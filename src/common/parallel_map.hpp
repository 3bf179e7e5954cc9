#pragma once
// Ordered parallel map: the one fan-out under every parallel path in the
// tree (seed repetitions and config sweeps via exp::run_sweep, fleet
// shards via fleet::run_fleet, and the sweep benches).
//
// Contract: parallel_map(n, jobs, fn) returns {fn(0), ..., fn(n - 1)} in
// index order, whatever the thread count or OS scheduling.
//   - With min(max(jobs, 1), n) <= 1 every index runs inline on the caller,
//     in order, and the first throw propagates at once: the serial path.
//   - Otherwise that many threads claim indices from one atomic counter.
//     Every index runs; results and exceptions land in per-index slots, and
//     after the join the exception of the lowest failing index is rethrown.
// So when fn(i) shares no mutable state with fn(j), the results — and any
// reduction the caller folds over them in index order — are byte-identical
// at every job count, and a failing sweep reports the same error serially
// and in parallel.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace simty::common {

template <typename F>
auto parallel_map(std::size_t n, int jobs, F&& fn)
    -> std::vector<std::invoke_result_t<F&, std::size_t>> {
  using R = std::invoke_result_t<F&, std::size_t>;
  static_assert(!std::is_same_v<R, bool>,
                "threads write neighbouring results; std::vector<bool> packs them "
                "into shared words");
  const std::size_t threads =
      std::min(static_cast<std::size_t>(std::max(jobs, 1)), n);
  std::vector<R> results;
  if (threads <= 1) {
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) results.push_back(fn(i));
    return results;
  }

  results.resize(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) {
          try {
            results[i] = fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }  // the jthreads join here; their writes happen-before the reads below
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace simty::common
