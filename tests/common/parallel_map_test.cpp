#include "common/parallel_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace simty::common {
namespace {

TEST(ParallelMap, ResultsComeBackInIndexOrderAtEveryJobCount) {
  // Early indices sleep longest, so on the parallel path later indices
  // finish first; the results must still come back in index order.
  const auto square = [](std::size_t n) {
    return [n](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * (n - i)));
      return static_cast<int>(i * i);
    };
  };
  for (const int jobs : {-5, 0, 1, 2, 8}) {
    // n = 0, n = 1, n < jobs, and more indices than threads.
    for (const std::size_t n : {0u, 1u, 3u, 16u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + ", n " + std::to_string(n));
      const std::vector<int> out = parallel_map(n, jobs, square(n));
      ASSERT_EQ(out.size(), n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
  }
}

TEST(ParallelMap, EveryJobCountMatchesTheSerialPath) {
  // A floating-point reduction per index: the parallel path must hand back
  // exactly the values the serial path computes.
  const auto harmonic = [](std::size_t i) {
    double acc = 0.0;
    for (int k = 1; k <= 1000; ++k) acc += static_cast<double>(i) / k;
    return acc;
  };
  const std::vector<double> serial = parallel_map(8, 1, harmonic);
  for (const int jobs : {2, 3, 8}) {
    SCOPED_TRACE(jobs);
    EXPECT_EQ(parallel_map(8, jobs, harmonic), serial);
  }
}

TEST(ParallelMap, SerialPathRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int jobs : {-5, 0, 1}) {
    const std::vector<std::thread::id> ids =
        parallel_map(4, jobs, [](std::size_t) { return std::this_thread::get_id(); });
    for (const std::thread::id id : ids) EXPECT_EQ(id, caller);
  }
  // One index never starts a thread, whatever `jobs` says.
  EXPECT_EQ(parallel_map(1, 8, [](std::size_t) { return std::this_thread::get_id(); })[0],
            caller);
}

TEST(ParallelMap, ParallelPathRunsEveryIndexAndRethrowsTheLowestFailure) {
  // Indices 5 and 2 fail; index 5 fails first in wall time. Every index
  // still runs, and the exception of index 2 is the one rethrown.
  std::vector<std::atomic<int>> ran(12);
  try {
    parallel_map(ran.size(), 4, [&ran](std::size_t i) -> int {
      ++ran[i];
      if (i == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("index 2");
      }
      if (i == 5) throw std::logic_error("index 5");
      return 0;
    });
    FAIL() << "expected the failure of index 2";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 2");
  }
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i].load(), 1) << i;
}

TEST(ParallelMap, ThrowingIndexDoesNotStopItsThread) {
  // Two threads, three indices. Whoever holds index 1 waits for index 2,
  // so index 2 can only be claimed by the thread that threw on index 0
  // (or that thread claimed index 1 itself). Either way the thread that
  // threw goes on to run another index.
  std::vector<std::thread::id> ran_on(3);
  std::atomic<bool> two_done{false};
  try {
    parallel_map(3, 2, [&](std::size_t i) -> int {
      ran_on[i] = std::this_thread::get_id();
      if (i == 0) throw std::runtime_error("index 0");
      if (i == 1) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!two_done && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (i == 2) two_done = true;
      return 0;
    });
    FAIL() << "expected the failure of index 0";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 0");
  }
  EXPECT_TRUE(two_done);
  EXPECT_TRUE(ran_on[1] == ran_on[0] || ran_on[2] == ran_on[0]);
}

TEST(ParallelMap, SerialPathStopsAtTheFirstThrow) {
  std::vector<int> ran(6, 0);
  EXPECT_THROW(parallel_map(ran.size(), 1,
                            [&ran](std::size_t i) -> int {
                              ++ran[i];
                              if (i == 2 || i == 4) throw std::runtime_error("boom");
                              return 0;
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 0, 0, 0}));
}

}  // namespace
}  // namespace simty::common
