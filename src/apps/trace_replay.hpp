#pragma once
// Trace recording and replay for the five irregular apps.
//
// The paper found five apps whose wakelock durations were not reproducible
// run to run, and replaced them with "imitated apps" that replay the time
// and hardware patterns logged in a profiling pass. We reproduce that
// methodology: the erratic original draws heavy-tailed holds,
// record_trace() logs a run of them, and ImitatedApp replays that trace —
// making NATIVE-vs-SIMTY comparisons fair, exactly as in the paper.

#include <vector>

#include "apps/app.hpp"
#include "common/arena.hpp"

namespace simty::apps {

/// One logged delivery of an app's major alarm.
struct TraceEntry {
  hw::ComponentSet hardware;
  Duration hold;
};

/// A logged behaviour trace of one app.
struct AppTrace {
  std::string app_name;
  std::vector<TraceEntry> entries;
};

/// Entries logged per irregular app in the workloads' profiling pass.
inline constexpr std::size_t kImitatedTraceLength = 256;

/// Replays a trace cyclically; fully deterministic.
class ImitatedApp : public ResidentApp {
 public:
  /// Replays record_trace(profile, length, seed), recording entry i on
  /// first use: each entry is the next draw of the seed's stream, so the
  /// trace is prefix-stable and a run records only the entries it replays.
  /// A non-null `arena` backs the recorded entries.
  ImitatedApp(AppProfile profile, std::size_t length, std::uint64_t seed,
              common::Arena* arena = nullptr);

  std::size_t trace_length() const { return length_; }

  /// Entry `i` (< trace_length()) of the replayed trace; records the
  /// entries through `i` first if they are not recorded yet.
  const TraceEntry& entry(std::size_t i);

  /// Base state plus the replay cursor; the trace itself is reconstructed
  /// from config (same name-hash seed), not serialized.
  void save(snapshot::Writer& w) const override;
  void restore(snapshot::SectionReader& s) override;

  /// State fields past the base's, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) { f("cursor", self.cursor_); }

 protected:
  alarm::TaskSpec next_task() override;

 private:
  common::ArenaVector<TraceEntry> entries_;  // recorded so far, reserved to length_
  std::size_t length_;   // the replay wraps here
  Rng recorder_;         // the recording stream, positioned after entries_
  std::size_t cursor_ = 0;
};

/// Profiles an irregular app offline: samples `deliveries` of its
/// heavy-tailed holds from a stream seeded with `seed` and returns the
/// logged trace. This is the "logged in advance" step of the paper's §4.1.
AppTrace record_trace(const AppProfile& profile, std::size_t deliveries,
                      std::uint64_t seed);

}  // namespace simty::apps
