#include "trace/delivery_log.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "snapshot/codec.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::trace {
namespace {

using hw::Component;
using hw::ComponentSet;

// The record views `tag`: pass literals or strings that outlive the record.
alarm::DeliveryRecord sample_record(std::uint64_t id, std::string_view tag) {
  alarm::DeliveryRecord r;
  r.id = alarm::AlarmId{id};
  r.tag = tag;
  r.app = alarm::AppId{7};
  r.kind = alarm::AlarmKind::kWakeup;
  r.mode = alarm::RepeatMode::kDynamic;
  r.repeat_interval = Duration::seconds(200);
  r.nominal = TimePoint::from_us(123'456'789);
  r.delivered = TimePoint::from_us(123'706'789);
  r.window = TimeInterval{r.nominal, r.nominal + Duration::seconds(150)};
  r.was_perceptible = false;
  r.hardware_used = ComponentSet{Component::kWifi, Component::kCellular};
  r.hold = Duration::millis(2500);
  r.batch_size = 3;
  return r;
}

// Saves `log` into a snapshot section and restores it into a fresh log.
DeliveryLog snapshot_round_trip(const DeliveryLog& log) {
  snapshot::Writer w;
  w.begin_section("log", 1);
  snapshot::write_fields(w, log);
  w.end_section();
  const snapshot::Reader r(w.finish());
  snapshot::SectionReader s = r.section("log", 1);
  DeliveryLog back;
  back.restore(s);
  return back;
}

TEST(DeliveryLog, HostileTagsRoundTrip) {
  // ',' shifts every later CSV field, '|' splits the hardware set and a
  // newline splits the row; each tag must survive a snapshot round trip,
  // and the restored log must export the same (escaped) CSV.
  const std::string hostile[] = {
      "a,b",         "pipe|tag",    "back\\slash", "tricky\\c,mix",
      "line\nbreak", "cr\rreturn",  ",|\\\n\r",    "plain.tag",
  };
  DeliveryLog log;
  std::uint64_t id = 1;
  for (const std::string& tag : hostile) log.observe(sample_record(id++, tag));
  const DeliveryLog back = snapshot_round_trip(log);
  ASSERT_EQ(back.size(), std::size(hostile));
  for (std::size_t i = 0; i < std::size(hostile); ++i) {
    EXPECT_EQ(back.records()[i].tag, hostile[i]) << i;
    EXPECT_EQ(back.records()[i].hardware_used,
              (ComponentSet{Component::kWifi, Component::kCellular}))
        << i;
    EXPECT_EQ(back.records()[i].batch_size, 3u) << i;
  }
  EXPECT_EQ(back.to_csv(), log.to_csv());
}

TEST(DeliveryLog, EmptyHardwareRoundTrips) {
  DeliveryLog log;
  alarm::DeliveryRecord r = sample_record(1, "cpu.only");
  r.hardware_used = ComponentSet::none();
  log.observe(r);
  const DeliveryLog back = snapshot_round_trip(log);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back.records()[0].hardware_used.empty());
  EXPECT_EQ(back.records()[0].hold, r.hold);
  EXPECT_EQ(back.to_csv(), log.to_csv());
}

TEST(DeliveryLog, CsvEscapesReservedCharactersInTags) {
  // ',' separates fields, '|' separates hardware names and a newline ends
  // the row, so a tag carrying one of them, or the escape character '\',
  // is written escaped and every later field keeps its column. An empty
  // hardware set is an empty field.
  DeliveryLog log;
  log.observe(sample_record(1, "a,b"));
  log.observe(sample_record(2, "pipe|tag"));
  log.observe(sample_record(3, "line\nbreak"));
  log.observe(sample_record(4, "back\\slash"));
  alarm::DeliveryRecord cpu_only = sample_record(5, "cpu.only");
  cpu_only.hardware_used = ComponentSet::none();
  log.observe(cpu_only);
  EXPECT_EQ(
      log.to_csv(),
      "id,tag,app,kind,mode,repeat_us,nominal_us,delivered_us,window_start_us,"
      "window_end_us,perceptible,hardware,hold_us,batch_size\n"
      "1,a\\cb,7,wakeup,dynamic,200000000,123456789,123706789,123456789,273456789,0,"
      "wifi|cellular,2500000,3\n"
      "2,pipe\\ptag,7,wakeup,dynamic,200000000,123456789,123706789,123456789,"
      "273456789,0,wifi|cellular,2500000,3\n"
      "3,line\\nbreak,7,wakeup,dynamic,200000000,123456789,123706789,123456789,"
      "273456789,0,wifi|cellular,2500000,3\n"
      "4,back\\\\slash,7,wakeup,dynamic,200000000,123456789,123706789,123456789,"
      "273456789,0,wifi|cellular,2500000,3\n"
      "5,cpu.only,7,wakeup,dynamic,200000000,123456789,123706789,123456789,"
      "273456789,0,,2500000,3\n");
}

}  // namespace
}  // namespace simty::trace
