#pragma once
// Umbrella header: the full public API of the SIMTY reproduction.
//
// For selective builds include the per-module headers directly; this
// header exists for quick experiments and downstream prototypes. Every
// include is a deliberate re-export, so the unused-include advisory is off:
// simty-analyze: allow-file(include)

// Foundations
#include "common/check.hpp"       // IWYU pragma: export
#include "common/interval.hpp"    // IWYU pragma: export
#include "common/logging.hpp"     // IWYU pragma: export
#include "common/rng.hpp"         // IWYU pragma: export
#include "common/stats.hpp"       // IWYU pragma: export
#include "common/strings.hpp"     // IWYU pragma: export
#include "common/table.hpp"       // IWYU pragma: export
#include "common/time.hpp"        // IWYU pragma: export
#include "common/units.hpp"       // IWYU pragma: export

// Discrete-event core
#include "sim/event_queue.hpp"    // IWYU pragma: export
#include "sim/simulator.hpp"      // IWYU pragma: export

// The simulated smartphone
#include "hw/battery.hpp"         // IWYU pragma: export
#include "hw/component.hpp"       // IWYU pragma: export
#include "hw/device.hpp"          // IWYU pragma: export
#include "hw/device_spec.hpp"     // IWYU pragma: export
#include "hw/power_bus.hpp"       // IWYU pragma: export
#include "hw/power_model.hpp"     // IWYU pragma: export
#include "hw/rtc.hpp"             // IWYU pragma: export
#include "hw/wakelock.hpp"        // IWYU pragma: export

// Network substrates
#include "net/cellular.hpp"       // IWYU pragma: export
#include "net/rrc.hpp"            // IWYU pragma: export
#include "net/wifi_link.hpp"      // IWYU pragma: export

// Wakeup management (the paper's contribution)
#include "alarm/alarm.hpp"                 // IWYU pragma: export
#include "alarm/alarm_manager.hpp"         // IWYU pragma: export
#include "alarm/batch.hpp"                 // IWYU pragma: export
#include "alarm/doze.hpp"                  // IWYU pragma: export
#include "alarm/duration_policy.hpp"       // IWYU pragma: export
#include "alarm/exact_policy.hpp"          // IWYU pragma: export
#include "alarm/fixed_interval_policy.hpp" // IWYU pragma: export
#include "alarm/native_policy.hpp"         // IWYU pragma: export
#include "alarm/policy.hpp"                // IWYU pragma: export
#include "alarm/similarity.hpp"            // IWYU pragma: export
#include "alarm/simty_policy.hpp"          // IWYU pragma: export

// Push channel
#include "gcm/gcm_service.hpp"    // IWYU pragma: export

// Measurement
#include "power/app_attribution.hpp"   // IWYU pragma: export
#include "power/energy_accounting.hpp" // IWYU pragma: export
#include "power/monitor.hpp"           // IWYU pragma: export

// Workloads & traces
#include "apps/app.hpp"            // IWYU pragma: export
#include "apps/app_catalog.hpp"    // IWYU pragma: export
#include "apps/system_alarms.hpp"  // IWYU pragma: export
#include "apps/trace_replay.hpp"   // IWYU pragma: export
#include "apps/workload.hpp"       // IWYU pragma: export
#include "trace/delivery_log.hpp"  // IWYU pragma: export
#include "trace/tracer.hpp"        // IWYU pragma: export

// Metrics & experiments
#include "exp/adaptive.hpp"           // IWYU pragma: export
#include "exp/experiment.hpp"         // IWYU pragma: export
#include "exp/reporting.hpp"          // IWYU pragma: export
#include "metrics/delay_stats.hpp"    // IWYU pragma: export
#include "metrics/histogram.hpp"      // IWYU pragma: export
#include "metrics/interval_audit.hpp" // IWYU pragma: export
#include "metrics/wakeup_breakdown.hpp" // IWYU pragma: export
