#include "experiments/gcm_service.hpp"

#include <gtest/gtest.h>

#include "alarm/doze.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "support/framework_fixture.hpp"

namespace simty::gcm {
namespace {

class GcmTest : public test::FrameworkFixture {
 protected:
  void init_gcm(GcmConfig config = {}) {
    init(std::make_unique<alarm::SimtyPolicy>());
    service_ = std::make_unique<GcmService>(sim_, *device_, *wakelocks_, *manager_,
                                            config);
  }
  std::unique_ptr<GcmService> service_;
};

TEST_F(GcmTest, ConnectRegistersHeartbeatAlarm) {
  init_gcm();
  service_->connect();
  ASSERT_TRUE(service_->heartbeat_alarm().has_value());
  const alarm::Alarm* hb = manager_->find(*service_->heartbeat_alarm());
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->spec().tag, "gcm.heartbeat");
  EXPECT_EQ(hb->spec().mode, alarm::RepeatMode::kDynamic);
  EXPECT_THROW(service_->connect(), std::logic_error);  // already connected
}

TEST_F(GcmTest, HeartbeatsKeepFiringAndWakelockWifi) {
  GcmConfig c;
  c.heartbeat_interval = Duration::seconds(600);
  init_gcm(c);
  service_->connect();
  sim_.run_until(at(3600));
  // Dynamic repeating at 600 s over an hour: ~5 heartbeats.
  EXPECT_GE(service_->heartbeats(), 4u);
  EXPECT_GE(wakelocks_->usage(hw::Component::kWifi).cycles, 4u);
  // Heartbeats become imperceptible after the first delivery.
  EXPECT_FALSE(manager_->find(*service_->heartbeat_alarm())->perceptible());
}

TEST_F(GcmTest, IncomingMessageWakesFetchesAndDispatches) {
  init_gcm();
  std::vector<PushMessage> received;
  service_->subscribe("chat", [&](const PushMessage& m) { received.push_back(m); });

  sim_.schedule_at(at(100), [&] {
    service_->on_incoming(PushMessage{"chat", 2048, sim_.now()});
  });
  sim_.run_until(at(200));

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].topic, "chat");
  EXPECT_EQ(service_->delivered(), 1u);
  EXPECT_EQ(device_->wakeups_for(hw::WakeReason::kExternalPush), 1u);
  // The fetch wakelocked the radio once and the device went back to sleep.
  EXPECT_EQ(wakelocks_->usage(hw::Component::kWifi).cycles, 1u);
  EXPECT_EQ(device_->state(), hw::DeviceState::kAsleep);
}

TEST_F(GcmTest, UnsubscribedTopicIsDropped) {
  init_gcm();
  sim_.schedule_at(at(50), [&] {
    service_->on_incoming(PushMessage{"nobody-home", 100, sim_.now()});
  });
  sim_.run_until(at(100));
  EXPECT_EQ(service_->delivered(), 0u);
  EXPECT_EQ(service_->dropped(), 1u);
  // The device still woke (the radio cannot know the topic in advance).
  EXPECT_EQ(device_->wakeups_for(hw::WakeReason::kExternalPush), 1u);
}

TEST_F(GcmTest, DoubleSubscribeRejected) {
  init_gcm();
  service_->subscribe("chat", [](const PushMessage&) {});
  EXPECT_THROW(service_->subscribe("chat", [](const PushMessage&) {}),
               std::logic_error);
}

TEST_F(GcmTest, PushWakeFlushesPendingNonWakeupAlarms) {
  // Footnote 1's "compatible and orthogonal": a push wake is exactly the
  // external event that releases queued non-wakeup alarms.
  init_gcm();
  alarm::AlarmSpec spec = alarm::AlarmSpec::repeating(
      "lazy", alarm::AppId{5}, alarm::RepeatMode::kStatic, Duration::seconds(600),
      0.1, 0.9);
  spec.kind = alarm::AlarmKind::kNonWakeup;
  const alarm::AlarmId lazy = manager_->register_alarm(spec, at(100), noop_task());
  service_->subscribe("chat", [](const PushMessage&) {});

  sim_.schedule_at(at(400), [&] {
    service_->on_incoming(PushMessage{"chat", 256, sim_.now()});
  });
  sim_.run_until(at(500));
  ASSERT_EQ(deliveries_of(lazy).size(), 1u);
  EXPECT_EQ(deliveries_of(lazy)[0].delivered, at(400) + model_.wake_latency);
}

TEST_F(GcmTest, PushServerGeneratesTopicTraffic) {
  init_gcm();
  int chat = 0, mail = 0;
  service_->subscribe("chat", [&](const PushMessage&) { ++chat; });
  service_->subscribe("mail", [&](const PushMessage&) { ++mail; });
  PushServer server(sim_, *service_,
                    {TopicTraffic{"chat", Duration::seconds(300), 512},
                     TopicTraffic{"mail", Duration::seconds(900), 4096}},
                    Rng(9));
  server.start(at(3600 * 3));
  sim_.run_until(at(3600 * 3));
  EXPECT_GT(chat, 10);
  EXPECT_GT(mail, 2);
  EXPECT_GT(chat, mail);  // denser stream delivers more
  EXPECT_EQ(server.sent(), static_cast<std::uint64_t>(chat + mail));
  EXPECT_EQ(service_->delivered(), server.sent());
}

TEST_F(GcmTest, PushServerStopsAtHorizon) {
  init_gcm();
  service_->subscribe("chat", [](const PushMessage&) {});
  PushServer server(sim_, *service_,
                    {TopicTraffic{"chat", Duration::seconds(60), 512}}, Rng(2));
  server.start(at(600));
  sim_.run_until(at(600));
  const std::uint64_t sent = server.sent();
  sim_.run_until(at(7200));
  EXPECT_EQ(server.sent(), sent);
}

TEST_F(GcmTest, PushExitsDoze) {
  // A push is an external interaction: it must break the device out of
  // doze (the AOSP behaviour; high-priority FCM messages do this).
  init_gcm();
  alarm::DozeController::Config dc;
  dc.idle_threshold = Duration::minutes(5);
  alarm::DozeController doze(sim_, *manager_, *device_, dc);
  doze.enable();
  service_->subscribe("chat", [](const PushMessage&) {});
  sim_.run_until(at(6 * 60));
  ASSERT_TRUE(doze.dozing());
  service_->on_incoming(PushMessage{"chat", 256, sim_.now()});
  sim_.run_until(at(7 * 60));
  EXPECT_FALSE(doze.dozing());
}

TEST_F(GcmTest, FetchUsesLinkTransferTimeWhenAttached) {
  init(std::make_unique<alarm::SimtyPolicy>());
  net::WifiLinkConfig lc;
  lc.good_rate_kbps = 8.0;  // absurdly slow: 1 kB/s, so holds are visible
  lc.protocol_overhead = Duration::zero();
  net::WifiLink link(sim_, lc, Rng(1));
  GcmConfig gc;
  GcmService service(sim_, *device_, *wakelocks_, *manager_, gc, &link);
  service.subscribe("chat", [](const PushMessage&) {});
  sim_.schedule_at(at(10), [&] {
    service.on_incoming(PushMessage{"chat", 10'000, sim_.now()});
  });
  sim_.run_until(at(100));
  // 10 kB at 1 kB/s = 10 s of radio time.
  EXPECT_EQ(wakelocks_->usage(hw::Component::kWifi).on_time, Duration::seconds(10));
}

}  // namespace
}  // namespace simty::gcm
