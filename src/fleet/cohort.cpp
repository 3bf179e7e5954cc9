#include "fleet/cohort.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "apps/app_catalog.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace simty::fleet {

namespace {

const std::vector<apps::AppProfile>& table3() {
  static const std::vector<apps::AppProfile> kTable = apps::table3_catalog();
  return kTable;
}

Duration scaled(Duration d, double factor, double floor_seconds) {
  return Duration::from_seconds(std::max(d.seconds_f() * factor, floor_seconds));
}

}  // namespace

void CohortSpec::validate() const {
  SIMTY_CHECK_MSG(!name.empty(), "cohort name must be non-empty");
  SIMTY_CHECK_MSG(weight > 0.0, "cohort weight must be positive");
  SIMTY_CHECK_MSG(min_apps >= 1, "cohort needs at least one app");
  SIMTY_CHECK_MSG(min_apps <= max_apps, "cohort min_apps must be <= max_apps");
  SIMTY_CHECK_MSG(max_apps <= table3().size(),
                  "cohort max_apps exceeds the Table 3 catalog");
  SIMTY_CHECK_MSG(rein_jitter >= 0.0 && rein_jitter < 1.0,
                  "cohort rein_jitter must be in [0, 1)");
  SIMTY_CHECK_MSG(alpha_jitter >= 0.0 && alpha_jitter < 1.0,
                  "cohort alpha_jitter must be in [0, 1)");
  SIMTY_CHECK_MSG(beta_lo >= 0.0 && beta_lo <= beta_hi && beta_hi < 1.0,
                  "cohort beta range must satisfy 0 <= lo <= hi < 1");
  SIMTY_CHECK_MSG(wearable_fraction >= 0.0 && wearable_fraction <= 1.0,
                  "cohort wearable_fraction must be in [0, 1]");
  SIMTY_CHECK_MSG(power_scale_lo > 0.0 && power_scale_lo <= power_scale_hi &&
                      power_scale_hi <= kMaxCohortFactor,
                  "cohort power scale range must satisfy 0 < lo <= hi <= " +
                      str_format("%g", kMaxCohortFactor));
  SIMTY_CHECK_MSG(
      degraded_network_fraction >= 0.0 && degraded_network_fraction <= 1.0,
      "cohort degraded_network_fraction must be in [0, 1]");
  SIMTY_CHECK_MSG(degraded_hold_factor_max >= 1.0 &&
                      degraded_hold_factor_max <= kMaxCohortFactor,
                  "cohort degraded_hold_factor_max must be in [1, " +
                      str_format("%g", kMaxCohortFactor) + "]");
  SIMTY_CHECK_MSG(standby > Duration::zero(), "cohort standby must be positive");
}

hw::PowerModel scale_power_model(hw::PowerModel model, double factor) {
  model.sleep = model.sleep * factor;
  model.waking = model.waking * factor;
  model.awake_base = model.awake_base * factor;
  model.wake_transition = model.wake_transition * factor;
  for (hw::ComponentPower& c : model.components) {
    c.activation = c.activation * factor;
    c.active = c.active * factor;
    c.tail_power = c.tail_power * factor;
  }
  return model;
}

DeviceSample sample_device(const CohortSpec& spec, std::uint64_t fleet_seed,
                           std::uint64_t device_index) {
  const std::vector<apps::AppProfile>& table = table3();
  // One PCG32 stream per device: counter-keyed on the device index, seeded
  // by the fleet seed mixed with the cohort name. The draw order below is
  // fixed, so the sample depends on nothing but (spec, seed, index).
  Rng rng(fleet_seed ^ common::fnv1a64(spec.name), device_index);

  DeviceSample s;
  s.device_index = device_index;

  // 1. Catalog subset: size, then a partial Fisher–Yates pick; the chosen
  //    rows keep their Table 3 (launch) order.
  const auto span = static_cast<std::uint32_t>(spec.max_apps - spec.min_apps + 1);
  const std::size_t k = spec.min_apps + rng.next_below(span);
  std::vector<std::uint32_t> indices(table.size());
  std::iota(indices.begin(), indices.end(), 0u);
  for (std::size_t i = 0; i < k; ++i) {
    const auto remaining = static_cast<std::uint32_t>(table.size() - i);
    std::swap(indices[i], indices[i + rng.next_below(remaining)]);
  }
  indices.resize(k);
  std::sort(indices.begin(), indices.end());

  // 2. Per-app ReIn / alpha perturbations, in catalog order.
  s.catalog.reserve(k);
  for (const std::uint32_t idx : indices) {
    apps::AppProfile p = table[idx];
    const double rein_factor =
        rng.uniform(1.0 - spec.rein_jitter, 1.0 + spec.rein_jitter);
    p.repeat = scaled(p.repeat, rein_factor, 1.0);
    const double alpha_factor =
        rng.uniform(1.0 - spec.alpha_jitter, 1.0 + spec.alpha_jitter);
    p.alpha = std::clamp(p.alpha * alpha_factor, 0.0, kMaxSampledAlpha);
    s.catalog.push_back(std::move(p));
  }

  // 3. Hardware profile.
  s.wearable = rng.chance(spec.wearable_fraction);
  s.power_scale = rng.uniform(spec.power_scale_lo, spec.power_scale_hi);
  s.power_model = scale_power_model(
      s.wearable ? hw::PowerModel::wearable() : hw::PowerModel::nexus5(),
      s.power_scale);

  // 4. Network quality: degraded devices hold the radio longer per sync.
  s.degraded_network = rng.chance(spec.degraded_network_fraction);
  if (s.degraded_network) {
    s.hold_factor = rng.uniform(1.0, spec.degraded_hold_factor_max);
    for (apps::AppProfile& p : s.catalog) {
      p.base_hold = scaled(p.base_hold, s.hold_factor, 0.0);
    }
  }

  // 5. Platform grace factor and the device's run seed.
  s.beta = rng.uniform(spec.beta_lo, spec.beta_hi);
  s.run_seed = (static_cast<std::uint64_t>(rng.next_u32()) << 32) |
               static_cast<std::uint64_t>(rng.next_u32());
  return s;
}

std::string describe(const DeviceSample& s) {
  std::string out = str_format(
      "device %llu seed %llu wearable %d scale %.17g degraded %d hold %.17g "
      "beta %.17g\n",
      static_cast<unsigned long long>(s.device_index),
      static_cast<unsigned long long>(s.run_seed), s.wearable ? 1 : 0,
      s.power_scale, s.degraded_network ? 1 : 0, s.hold_factor, s.beta);
  for (const apps::AppProfile& p : s.catalog) {
    out += str_format("  app %s repeat_us %lld alpha %.17g hold_us %lld\n",
                      p.name.c_str(), static_cast<long long>(p.repeat.us()),
                      p.alpha, static_cast<long long>(p.base_hold.us()));
  }
  return out;
}

std::vector<CohortSpec> default_cohorts() {
  CohortSpec mainstream;
  mainstream.name = "mainstream";
  mainstream.weight = 2.0;
  mainstream.min_apps = 4;
  mainstream.max_apps = 12;

  CohortSpec wearables;
  wearables.name = "wearables";
  wearables.weight = 1.0;
  wearables.min_apps = 2;
  wearables.max_apps = 6;
  wearables.wearable_fraction = 1.0;
  wearables.power_scale_lo = 0.9;
  wearables.power_scale_hi = 1.1;

  CohortSpec poor_network;
  poor_network.name = "poor-network";
  poor_network.weight = 1.0;
  poor_network.min_apps = 4;
  poor_network.max_apps = 10;
  poor_network.degraded_network_fraction = 1.0;
  poor_network.degraded_hold_factor_max = 2.5;

  return {mainstream, wearables, poor_network};
}

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& message) {
  throw std::runtime_error(
      str_format("cohort file line %zu: %s", line_no, message.c_str()));
}

double parse_num(const std::string& token, std::size_t line_no) {
  const std::optional<double> v = parse_double(token);
  if (!v) parse_fail(line_no, "bad number: " + token);
  return *v;
}

// One bound of `apps`: a whole number of Table 3 apps.
std::size_t parse_app_count(const std::string& token, const std::string& cohort,
                            std::size_t line_no) {
  const auto catalog = static_cast<long long>(table3().size());
  if (const std::optional<long long> n = parse_int(token, 1, catalog)) {
    return static_cast<std::size_t>(*n);
  }
  if (parse_num(token, line_no) > static_cast<double>(catalog)) {
    parse_fail(line_no, "cohort [" + cohort + "]: apps exceeds the Table 3 catalog");
  }
  parse_fail(line_no, "apps needs whole numbers in [1, " + std::to_string(catalog) +
                          "]: " + token);
}

}  // namespace

std::vector<CohortSpec> parse_cohorts(std::string_view text) {
  std::vector<CohortSpec> cohorts;
  std::set<std::string> section_keys;  // keys seen in the current section
  std::size_t line_no = 0;
  for (const std::string& raw : split(std::string(text), '\n')) {
    ++line_no;
    std::string line = trim(raw);
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = trim(line.substr(0, hash));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') parse_fail(line_no, "unterminated [section]");
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) parse_fail(line_no, "empty cohort name");
      CohortSpec spec;
      spec.name = name;
      cohorts.push_back(std::move(spec));
      section_keys.clear();
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) parse_fail(line_no, "expected key = value");
    if (cohorts.empty()) parse_fail(line_no, "key before any [cohort] section");
    const std::string key = trim(line.substr(0, eq));
    // A repeated key within one cohort is almost always a copy-paste error,
    // and silently keeping the later value would mask it.
    if (!section_keys.insert(key).second) {
      parse_fail(line_no, "duplicate key: " + key);
    }
    std::vector<std::string> values;
    for (const std::string& v : split(trim(line.substr(eq + 1)), ' ')) {
      if (!trim(v).empty()) values.push_back(trim(v));
    }
    auto one = [&]() -> double {
      if (values.size() != 1) parse_fail(line_no, key + " needs one value");
      return parse_num(values[0], line_no);
    };
    auto two = [&](double* lo, double* hi) {
      if (values.size() != 2) parse_fail(line_no, key + " needs two values");
      *lo = parse_num(values[0], line_no);
      *hi = parse_num(values[1], line_no);
    };

    CohortSpec& spec = cohorts.back();
    if (key == "weight") {
      spec.weight = one();
    } else if (key == "apps") {
      if (values.size() != 2) parse_fail(line_no, key + " needs two values");
      spec.min_apps = parse_app_count(values[0], spec.name, line_no);
      spec.max_apps = parse_app_count(values[1], spec.name, line_no);
      if (spec.max_apps < spec.min_apps) parse_fail(line_no, "apps needs lo <= hi");
    } else if (key == "rein_jitter") {
      spec.rein_jitter = one();
    } else if (key == "alpha_jitter") {
      spec.alpha_jitter = one();
    } else if (key == "beta") {
      two(&spec.beta_lo, &spec.beta_hi);
    } else if (key == "wearable_fraction") {
      spec.wearable_fraction = one();
    } else if (key == "power_scale") {
      two(&spec.power_scale_lo, &spec.power_scale_hi);
    } else if (key == "degraded_fraction") {
      spec.degraded_network_fraction = one();
    } else if (key == "degraded_hold_max") {
      spec.degraded_hold_factor_max = one();
    } else if (key == "standby_minutes") {
      one();  // a finite number, or "bad number"
      const std::optional<Duration> d = parse_duration(values[0], Duration::minutes(1));
      if (!d || d->is_zero()) {
        parse_fail(line_no, "standby_minutes must be positive and fit in int64 "
                            "microseconds");
      }
      spec.standby = *d;
    } else if (key == "system_alarms") {
      if (values.size() != 1 || (values[0] != "on" && values[0] != "off")) {
        parse_fail(line_no, "system_alarms needs on|off");
      }
      spec.system_alarms = values[0] == "on";
    } else {
      parse_fail(line_no, "unknown key: " + key);
    }
    // Each key sets fields that validate() checks on their own, and the
    // defaults pass, so checking after every line names the bad one.
    try {
      spec.validate();
    } catch (const std::logic_error& e) {
      parse_fail(line_no, "cohort [" + spec.name + "]: " + e.what());
    }
  }
  if (cohorts.empty()) throw std::runtime_error("cohort file defines no cohorts");
  return cohorts;
}

std::vector<CohortSpec> load_cohort_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot read cohort file " + path);
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return parse_cohorts(text);
}

std::vector<std::uint64_t> apportion_devices(
    std::uint64_t total, const std::vector<CohortSpec>& cohorts) {
  SIMTY_CHECK_MSG(!cohorts.empty(), "apportion over zero cohorts");
  double weight_sum = 0.0;
  for (const CohortSpec& c : cohorts) {
    SIMTY_CHECK_MSG(c.weight > 0.0, "cohort weight must be positive");
    weight_sum += c.weight;
  }
  std::vector<std::uint64_t> counts(cohorts.size(), 0);
  std::vector<double> fractions(cohorts.size(), 0.0);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    const double exact =
        static_cast<double>(total) * (cohorts[i].weight / weight_sum);
    counts[i] = static_cast<std::uint64_t>(exact);
    fractions[i] = exact - static_cast<double>(counts[i]);
    assigned += counts[i];
  }
  // Hand out the remainder by largest fractional part, ties by cohort
  // order — a full deterministic ordering, so the apportionment is a pure
  // function of (total, weights).
  std::vector<std::size_t> order(cohorts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return fractions[a] > fractions[b];
  });
  for (std::size_t i = 0; assigned < total; ++i) {
    ++counts[order[i % order.size()]];
    ++assigned;
  }
  return counts;
}

}  // namespace simty::fleet
