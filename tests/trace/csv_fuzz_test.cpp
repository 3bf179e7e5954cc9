// Robustness fuzzing of the delivery-log CSV parser: random mutations of a
// valid log must either parse to SOMETHING or throw std::runtime_error —
// never crash, hang, or corrupt memory. Deterministic per seed.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "trace/delivery_log.hpp"

namespace simty::trace {
namespace {

std::string valid_csv() {
  DeliveryLog log;
  for (int i = 0; i < 5; ++i) {
    alarm::DeliveryRecord r;
    r.id = alarm::AlarmId{static_cast<std::uint64_t>(i + 1)};
    const std::string tag = "app" + std::to_string(i) + ".sync";
    r.tag = tag;  // observe() copies the viewed tag into the log
    r.app = alarm::AppId{static_cast<std::uint32_t>(i)};
    r.kind = i % 2 == 0 ? alarm::AlarmKind::kWakeup : alarm::AlarmKind::kNonWakeup;
    r.mode = i % 2 == 0 ? alarm::RepeatMode::kStatic : alarm::RepeatMode::kDynamic;
    r.repeat_interval = Duration::seconds(60 * (i + 1));
    r.nominal = TimePoint::from_us(1'000'000LL * (i + 1));
    r.delivered = r.nominal + Duration::millis(250);
    r.window = TimeInterval{r.nominal, r.nominal + Duration::seconds(45)};
    r.hardware_used = hw::ComponentSet{hw::Component::kWifi};
    r.hold = Duration::seconds(2);
    r.batch_size = 1;
    log.observe(r);
  }
  return log.to_csv();
}

TEST(CsvFuzz, RandomByteMutationsNeverCrash) {
  const std::string base = valid_csv();
  Rng rng(0xF022);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = rng.next_below(static_cast<std::uint32_t>(mutated.size()));
      const auto kind = rng.next_below(3);
      if (kind == 0) {
        mutated[pos] = static_cast<char>(rng.next_below(96) + 32);
      } else if (kind == 1) {
        mutated.erase(pos, 1 + rng.next_below(5));
      } else {
        mutated.insert(pos, 1, static_cast<char>(rng.next_below(96) + 32));
      }
      if (mutated.empty()) mutated = ",";
    }
    try {
      const DeliveryLog log = DeliveryLog::from_csv(mutated);
      (void)log.size();
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    // std::logic_error or anything else would escape and fail the test.
  }
  // Both outcomes must occur: the fuzzer actually exercises accept and
  // reject paths.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CsvFuzz, TruncationsAtEveryBoundaryNeverCrash) {
  const std::string base = valid_csv();
  for (std::size_t cut = 0; cut < base.size(); cut += 7) {
    try {
      (void)DeliveryLog::from_csv(base.substr(0, cut));
    } catch (const std::runtime_error&) {
    }
  }
  SUCCEED();
}

TEST(CsvFuzz, HugeFieldValuesRejectedNotCrashed) {
  // Numeric fields beyond int64 range throw from std::stoll as
  // std::out_of_range; the parser must surface a clean failure.
  std::string csv = valid_csv();
  const auto pos = csv.find("60000000");
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos, 8, "99999999999999999999999999999");
  EXPECT_THROW((void)DeliveryLog::from_csv(csv), std::runtime_error);
}

}  // namespace
}  // namespace simty::trace
