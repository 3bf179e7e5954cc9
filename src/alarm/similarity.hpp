#pragma once
// Similarity determination (paper §3.1) and the applicability/preferability
// ranking of Table 1.
//
// Hardware similarity reflects how much energy alignment saves (identical
// non-empty sets amortize everything; disjoint sets only amortize the
// wakeup). Time similarity reflects the user-experience cost of postponing
// (window overlap = free; grace-only overlap = only acceptable between
// imperceptible parties). §3.1.1 notes the classification granularity is a
// design choice — the 2/3/4-level variants are all implemented and swept by
// the similarity-ablation bench.

#include <string>

#include "common/interval.hpp"
#include "hw/component.hpp"

namespace simty::alarm {

/// Three-level similarity classification used by the paper's tables.
enum class SimilarityLevel : std::uint8_t { kHigh = 0, kMedium, kLow };

const char* to_string(SimilarityLevel l);

/// Granularity of the hardware-similarity classification (§3.1.1).
enum class HardwareSimilarityMode : std::uint8_t {
  kTwoLevel,    // share any component vs none
  kThreeLevel,  // identical / partially identical / neither (the paper's)
  kFourLevel,   // medium split by whether a shared component is energy-hungry
};

const char* to_string(HardwareSimilarityMode m);

/// Granularity of the time-similarity classification (§3.1.2 notes "there
/// are also different ways to classify time similarity").
enum class TimeSimilarityMode : std::uint8_t {
  kThreeLevel,  // the paper's: High (windows) / Medium (graces) / Low
  kWindowOnly,  // no grace credit: Medium demotes to Low — isolates the
                // hardware-selection contribution from the grace interval's
};

const char* to_string(TimeSimilarityMode m);

/// Tunables for similarity determination.
struct SimilarityConfig {
  HardwareSimilarityMode hw_mode = HardwareSimilarityMode::kThreeLevel;
  TimeSimilarityMode time_mode = TimeSimilarityMode::kThreeLevel;

  /// Components considered energy-hungry for the four-level mode: sharing
  /// one of these promotes a medium match above a medium match that only
  /// shares cheap components.
  hw::ComponentSet energy_hungry{hw::Component::kWifi, hw::Component::kWps,
                                 hw::Component::kGps, hw::Component::kCellular,
                                 hw::Component::kScreen};
};

/// Paper §3.1.1 three-level hardware similarity between two hardware sets:
/// high iff identical and non-empty; medium iff non-empty intersection but
/// not identical; low otherwise (including any empty operand).
SimilarityLevel hardware_similarity(hw::ComponentSet a, hw::ComponentSet b);

/// Graded hardware similarity under the configured granularity:
/// 0 is the most similar; max_hardware_grade(mode) the least. The
/// three-level grades are High=0, Medium=1, Low=2.
int hardware_grade(hw::ComponentSet a, hw::ComponentSet b,
                   const SimilarityConfig& config);

/// Worst (largest) grade under `mode`: 1 / 2 / 3 respectively.
int max_hardware_grade(HardwareSimilarityMode mode);

/// Paper §3.1.2 time similarity between two parties given their window and
/// grace intervals: high iff the windows overlap; medium iff the graces
/// (but not the windows) overlap; low otherwise.
SimilarityLevel time_similarity(const TimeInterval& window_a,
                                const TimeInterval& grace_a,
                                const TimeInterval& window_b,
                                const TimeInterval& grace_b);

/// Time similarity under the configured granularity. The paper's three-level
/// classification is the default; in kWindowOnly mode a grace-only overlap
/// earns no credit, so Medium demotes to Low. This is the single home of
/// that demotion — the SIMTY policy and the similarity-ablation bench both
/// go through it, so they cannot diverge.
SimilarityLevel time_similarity(const TimeInterval& window_a,
                                const TimeInterval& grace_a,
                                const TimeInterval& window_b,
                                const TimeInterval& grace_b,
                                const SimilarityConfig& config);

/// Applicability rule of the search phase (§3.2.1): when either party is
/// perceptible only High time similarity qualifies; between imperceptible
/// parties Medium also qualifies.
bool is_applicable(SimilarityLevel time, bool alarm_perceptible,
                   bool entry_perceptible);

/// Preferability rank per Table 1, generalized to the configured hardware
/// granularity: rank = hw_grade * 2 + (time == High ? 1 : 2); lower is
/// better. With the three-level mode this reproduces Table 1's 1..6
/// numbering exactly. Callers must only pass applicable (non-Low) time
/// levels — Low maps to the table's "infinity" and throws here.
int preferability_rank(int hw_grade, SimilarityLevel time);

}  // namespace simty::alarm
