#pragma once
// Deterministic structured run tracer.
//
// The simulator's load-bearing contract is that a run is a pure function of
// its seed; the tracer turns that contract into an artifact. Every layer
// that decides behavior (event loop, alarm batching, device FSM, wakelocks,
// RRC machine, experiment boundaries) records spans / instants / counters
// stamped with VIRTUAL time, so two runs of the same config must produce
// byte-identical traces — and when they don't, tools/trace_diff points at
// the first divergent event instead of leaving a whodunit over end-of-run
// aggregates.
//
// Hot-path rules (same as the event queue's): labels are `const char*`
// string literals (intern_label() for computed ones), events are fixed-size
// PODs, and storage is slab-backed: a growable arena of fixed-size chunks
// that allocates only on a chunk boundary.
//
// Enabling has three layers:
//   - compiled out: -DSIMTY_TRACING=OFF defines SIMTY_TRACE_DISABLED and
//     the SIMTY_TRACE_* macros expand to nothing (zero overhead, behavior
//     bit-identical — the macros never carry side effects);
//   - runtime off (default): no Tracer installed, each macro is one
//     thread-local load and a branch;
//   - runtime on: a TraceScope installs a Tracer for the current thread,
//     which is what lets the parallel runner trace one run per worker
//     without any cross-thread ordering leaking into the trace.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::trace {

/// Layer that recorded the event (the Chrome `cat` field).
enum class TraceCategory : std::uint8_t { kSim = 0, kAlarm, kHw, kNet, kExp };

/// Record shape: paired B/E spans, point instants, sampled counters.
enum class TraceEventKind : std::uint8_t {
  kSpanBegin = 0,
  kSpanEnd,
  kInstant,
  kCounter,
};

const char* to_string(TraceCategory c);
const char* to_string(TraceEventKind k);

/// One recorded event. `label` must outlive the tracer (string literal or
/// sim::intern_label()); exporters dedup by string content, never by
/// pointer, so label identity cannot leak addresses into an export.
struct TraceEvent {
  std::int64_t t_us = 0;
  const char* label = "";
  std::int64_t arg = 0;
  TraceEventKind kind = TraceEventKind::kInstant;
  TraceCategory category = TraceCategory::kSim;
};

/// Structured event recorder; see the file comment for the storage and
/// enablement model. Not thread-safe — one tracer per (thread-local) run.
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void span_begin(TimePoint when, TraceCategory category, const char* label,
                  std::int64_t arg = 0);
  void span_end(TimePoint when, TraceCategory category, const char* label,
                std::int64_t arg = 0);
  void instant(TimePoint when, TraceCategory category, const char* label,
               std::int64_t arg = 0);
  void counter(TimePoint when, TraceCategory category, const char* label,
               std::int64_t value);

  /// Events currently held.
  std::size_t size() const;

  /// Current span nesting depth (begins minus ends); span_end below zero
  /// throws, which is how unbalanced instrumentation fails fast.
  std::int64_t open_spans() const { return open_spans_; }

  /// Drops every recorded event. Storage is retained — including every
  /// already-grown chunk, so a reused tracer records allocation-free up to
  /// its high-water mark.
  void clear();

  /// Copies the held events out in record order.
  std::vector<TraceEvent> snapshot() const;

  /// Chrome trace-event JSON (load in Perfetto / chrome://tracing).
  std::string chrome_json() const;

  /// Binary export: a snapshot container (snapshot/snapshot.hpp) holding
  /// one "tracer" section written by save(); decode_trace() reads it.
  std::string binary() const;

  /// Serializes the held events (labels deduplicated by content in
  /// first-appearance order) plus the open-span counter. restore() replaces
  /// this tracer's contents; restored labels are owned by the tracer, so
  /// subsequent exports are byte-identical to the saved run's.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::SectionReader& s);

 private:
  void record(const TraceEvent& e);

  static constexpr std::size_t kChunkEvents = 16384;

  // Chunked storage: chunks_[0..current_chunk_] hold events; chunks past
  // current_chunk_ are empty, retained by clear() for reuse.
  std::vector<std::vector<TraceEvent>> chunks_;
  std::size_t current_chunk_ = 0;
  std::int64_t open_spans_ = 0;
  // Labels brought in by restore(); unique_ptr keeps the c_str() addresses
  // stable across vector growth, which TraceEvent::label relies on.
  std::vector<std::unique_ptr<std::string>> restored_labels_;
};

/// The tracer installed for the current thread (nullptr = tracing off).
Tracer* current();

/// RAII installer: installs `tracer` (may be nullptr = leave tracing off)
/// as the current thread's tracer and restores the previous one on exit.
class TraceScope {
 public:
  explicit TraceScope(Tracer* tracer);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* previous_;
};

// ---------------------------------------------------------------------------
// Decoded traces and diffing (the testable core of tools/trace_diff).

/// A decoded binary-trace event; `label` indexes DecodedTrace::labels.
struct DecodedEvent {
  std::int64_t t_us = 0;
  std::uint32_t label = 0;
  std::int64_t arg = 0;
  TraceEventKind kind = TraceEventKind::kInstant;
  TraceCategory category = TraceCategory::kSim;

  bool operator==(const DecodedEvent&) const = default;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("t_us", self.t_us);
    f("label", self.label);
    f("kind", self.kind);
    f("category", self.category);
    f("arg", self.arg);
  }
};

/// Result of decoding a binary trace. Labels are content-deduplicated in
/// first-appearance order, so identical runs decode to identical tables.
struct DecodedTrace {
  std::vector<std::string> labels;
  std::vector<DecodedEvent> events;

  const std::string& label_of(const DecodedEvent& e) const {
    return labels[e.label];
  }
};

/// Parses Tracer::binary() output; throws std::logic_error on malformed
/// input (the container's checks, out-of-range enums or label indices).
DecodedTrace decode_trace(const std::string& bytes);

/// Reads and decodes a binary trace file.
DecodedTrace load_trace(const std::string& path);

/// Outcome of comparing two decoded traces event by event (labels compared
/// by content, so differing table layouts alone cannot mask a divergence).
struct TraceDiff {
  bool equal = false;
  /// Index of the first differing event when both traces have one.
  std::optional<std::size_t> first_divergence;
  /// Human-readable verdict: "identical", or what diverged and where.
  std::string summary;
};

TraceDiff diff_traces(const DecodedTrace& a, const DecodedTrace& b);

}  // namespace simty::trace

// ---------------------------------------------------------------------------
// Instrumentation macros. Call sites pay nothing when compiled out and one
// thread-local load + branch when no tracer is installed. Arguments are not
// evaluated in the compiled-out build, so they must be side-effect free.

#if defined(SIMTY_TRACE_DISABLED)

#define SIMTY_TRACE_SPAN_BEGIN(when, category, label, arg) \
  do {                                                     \
  } while (false)
#define SIMTY_TRACE_SPAN_END(when, category, label, arg) \
  do {                                                   \
  } while (false)
#define SIMTY_TRACE_INSTANT(when, category, label, arg) \
  do {                                                  \
  } while (false)
#define SIMTY_TRACE_COUNTER(when, category, label, value) \
  do {                                                    \
  } while (false)

#else

#define SIMTY_TRACE_SPAN_BEGIN(when, category, label, arg)                 \
  do {                                                                     \
    if (::simty::trace::Tracer* simty_trace_t_ = ::simty::trace::current()) \
      simty_trace_t_->span_begin((when), (category), (label), (arg));      \
  } while (false)
#define SIMTY_TRACE_SPAN_END(when, category, label, arg)                   \
  do {                                                                     \
    if (::simty::trace::Tracer* simty_trace_t_ = ::simty::trace::current()) \
      simty_trace_t_->span_end((when), (category), (label), (arg));        \
  } while (false)
#define SIMTY_TRACE_INSTANT(when, category, label, arg)                    \
  do {                                                                     \
    if (::simty::trace::Tracer* simty_trace_t_ = ::simty::trace::current()) \
      simty_trace_t_->instant((when), (category), (label), (arg));         \
  } while (false)
#define SIMTY_TRACE_COUNTER(when, category, label, value)                  \
  do {                                                                     \
    if (::simty::trace::Tracer* simty_trace_t_ = ::simty::trace::current()) \
      simty_trace_t_->counter((when), (category), (label), (value));       \
  } while (false)

#endif  // SIMTY_TRACE_DISABLED
