#pragma once
// Deterministic pseudo-random number generation (PCG32).
//
// Every stochastic element of the simulation (app launch offsets, task
// duration jitter modelling "instant network speeds", system-alarm arrivals)
// draws from a seeded PCG32 stream so experiment repetitions are exactly
// reproducible, matching the paper's "three runs, averaged" protocol.

#include <cstdint>

namespace simty {

/// PCG32 generator (O'Neill, pcg-random.org; minimal oneseq variant).
class Rng {
 public:
  /// Seeds the stream; identical (seed, sequence) pairs yield identical draws.
  explicit Rng(std::uint64_t seed, std::uint64_t sequence = 0);

  /// Uniform 32-bit draw.
  std::uint32_t next_u32();

  /// Uniform integer in [0, bound) without modulo bias; bound must be > 0.
  std::uint32_t next_below(std::uint32_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponentially distributed draw with the given mean (> 0).
  double exponential(double mean);

  /// Normal draw via Box–Muller (no internal caching; two u32s per call).
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Derives an independent child stream (for per-app RNGs).
  Rng fork(std::uint64_t salt);

  /// Snapshot fields: `state` is the stream position and `inc` names the
  /// stream, so a restored Rng resumes mid-stream exactly.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("state", self.state_);
    f("inc", self.inc_);
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace simty
