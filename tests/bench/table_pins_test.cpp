// Every deterministic bench's table, pinned. Each bench named in
// bench/table_digests.txt runs at SIMTY_JOBS=1 and at SIMTY_JOBS=4, and the
// FNV-1a digest of its stdout must equal the recorded digest at both job
// counts, so a changed number in any experiment table fails here by the
// bench's name. The four benches that print wall times (bench_core_micro,
// bench_fleet_scale, bench_trace_overhead, bench_warm_start) are not listed;
// they keep wall budgets in bench/serial_budgets.txt. ctest bounds each pin
// at 12 s (tests/CMakeLists.txt), so a hung bench fails by name.
//
// The digests were recorded once. A deliberate change to a table re-records
// its line in a commit of its own that names the bench and the cells that
// moved; a digest is never regenerated to make a change pass.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"

namespace {

struct Pin {
  std::string bench;
  std::string digest;  // "0x" and 16 lowercase hex digits
};

void PrintTo(const Pin& p, std::ostream* os) { *os << p.bench; }

std::vector<Pin> pins() {
  std::vector<Pin> out;
  std::ifstream in(SIMTY_TABLE_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    Pin p;
    fields >> p.bench >> p.digest;
    out.push_back(p);
  }
  return out;
}

/// Runs one bench at the given job count; returns its stdout, or fails the
/// test if it cannot start or exits non-zero.
std::string run_bench(const std::string& bench, int jobs) {
  const std::string cmd =
      "SIMTY_JOBS=" + std::to_string(jobs) + " '" SIMTY_BENCH_DIR "/" + bench + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot start " << cmd;
    return {};
  }
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) out.append(buf, n);
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0) << cmd << " exited with wait status " << status;
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class TablePin : public ::testing::TestWithParam<Pin> {};

TEST_P(TablePin, StdoutMatchesRecordedDigestAtOneAndFourJobs) {
  const Pin& pin = GetParam();
  for (const int jobs : {1, 4}) {
    const std::string out = run_bench(pin.bench, jobs);
    EXPECT_EQ(hex(simty::common::fnv1a64(out)), pin.digest)
        << pin.bench << " at SIMTY_JOBS=" << jobs << " printed a different table:\n"
        << out;
  }
}

TEST(TablePins, TwentyBenchesArePinned) { EXPECT_EQ(pins().size(), 20u); }

INSTANTIATE_TEST_SUITE_P(Bench, TablePin, ::testing::ValuesIn(pins()),
                         [](const ::testing::TestParamInfo<Pin>& p) {
                           return p.param.bench;
                         });

}  // namespace
