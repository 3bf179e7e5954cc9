#include "alarm/policy.hpp"

#include "common/check.hpp"

namespace simty::alarm {

std::optional<std::size_t> AlignmentPolicy::select_among(
    const Alarm&, const BatchQueue&, std::span<const std::size_t>) const {
  SIMTY_CHECK_MSG(false,
                  "policy advertises a candidate_query but does not "
                  "implement select_among");
  return std::nullopt;
}

}  // namespace simty::alarm
