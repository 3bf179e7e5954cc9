#pragma once
// The config codec's writer, shared by every config that is a list of named
// fields: ExperimentConfig (for_each_config_field) and fleet::FleetConfig
// (fleet::for_each_fleet_field). The type-to-wire mapping is the shared one
// of snapshot/codec.hpp. The decoder, read_config, stays in experiment.cpp:
// only ExperimentConfig is ever decoded.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "exp/experiment.hpp"
#include "snapshot/codec.hpp"

namespace simty::exp {

// Field lists of the records inside ExperimentConfig, in wire order.
template <typename T, typename F>
void for_each_field(T& v, F&& f) {
  using S = std::remove_const_t<T>;
  if constexpr (std::is_same_v<S, alarm::SimilarityConfig>) {
    f("hw_mode", v.hw_mode);
    f("time_mode", v.time_mode);
    f("energy_hungry", v.energy_hungry);
  } else if constexpr (std::is_same_v<S, apps::AppProfile>) {
    f("name", v.name);
    f("repeat", v.repeat);
    f("alpha", v.alpha);
    f("mode", v.mode);
    f("hardware", v.hardware);
    f("base_hold", v.base_hold);
    f("hold_jitter", v.hold_jitter);
    f("in_light", v.in_light);
    f("irregular", v.irregular);
    f("payload_bytes", v.payload_bytes);
    f("retry_probability", v.retry_probability);
    f("retry_backoff", v.retry_backoff);
  } else if constexpr (std::is_same_v<S, ExperimentConfig::BetaSwitch>) {
    f("at", v.at);  // the switch's β is a config field of its own
  } else if constexpr (std::is_same_v<S, net::DrxConfig>) {
    f("paging_cycle", v.paging_cycle);
    f("on_duration", v.on_duration);
    f("listen", v.listen);
    f("mean_page_gap", v.mean_page_gap);
    f("page_hold", v.page_hold);
    f("wur", v.wur);
    f("wur_delay_budget", v.wur_delay_budget);
  } else if constexpr (std::is_same_v<S, hw::WurConfig>) {
    f("listen", v.listen);
    f("wake_trigger", v.wake_trigger);
    f("wake_latency", v.wake_latency);
  } else if constexpr (std::is_same_v<S, hw::PowerModel>) {
    f("sleep", v.sleep);
    f("waking", v.waking);
    f("awake_base", v.awake_base);
    f("wake_transition", v.wake_transition);
    f("wake_latency", v.wake_latency);
    f("idle_linger", v.idle_linger);
    f("handler_floor", v.handler_floor);
    f("components", v.components);
  } else {
    static_assert(std::is_same_v<S, hw::ComponentPower>, "config type without a codec");
    f("activation", v.activation);
    f("active", v.active);
    f("serial_fraction", v.serial_fraction);
    f("tail", v.tail);
    f("tail_power", v.tail_power);
  }
}

using OptionalSwitch = std::optional<ExperimentConfig::BetaSwitch>;

/// Writes the fields it visits: the shared state-field codec, plus the
/// config-only types, with records walked through for_each_field.
struct ConfigWriter : snapshot::FieldWriterBase<ConfigWriter> {
  bool beta_blind = false;

  explicit ConfigWriter(snapshot::Writer& w, bool blind = false)
      : FieldWriterBase(w), beta_blind(blind) {}

  using FieldWriterBase::operator();
  void operator()(const char*, hw::ComponentSet v) const { w_.u32(v.bits()); }
  void operator()(const char*, SwitchBeta<const OptionalSwitch> v) const {
    if (!beta_blind) w_.f64(v.beta_switch ? v.beta_switch->beta : 0.0);
  }
  template <typename T>
  void record(const T& v) const {
    for_each_field(v, *this);
  }
};

/// The bytes ConfigWriter writes for the fields `for_each(c, f)` visits,
/// e.g. for_each_config_field.
template <typename Config, typename ForEach>
std::string encode_fields(const Config& c, ForEach&& for_each, bool beta_blind = false) {
  snapshot::Writer w;
  w.begin_section("config", 0);
  for_each(c, ConfigWriter{w, beta_blind});
  return std::string(w.payload());
}

/// The first field of `c` whose encoding departs from `encoding` (an
/// encode_fields output), or nullptr if `encoding` starts with all of c's.
template <typename Config, typename ForEach>
const char* first_differing(const Config& c, std::string_view encoding,
                            ForEach&& for_each, bool beta_blind = false) {
  // Fields are self-delimiting: the first one whose running encoding stops
  // being a prefix of `encoding` is the one that differs.
  snapshot::Writer w;
  w.begin_section("config", 0);
  const char* differing = nullptr;
  for_each(c, [&](const char* name, const auto& member) {
    ConfigWriter{w, beta_blind}(name, member);
    if (differing == nullptr && !encoding.starts_with(w.payload())) differing = name;
  });
  return differing;
}

}  // namespace simty::exp
