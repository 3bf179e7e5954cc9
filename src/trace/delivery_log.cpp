#include "trace/delivery_log.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "snapshot/codec.hpp"

namespace simty::trace {

namespace {

constexpr const char* kHeader =
    "id,tag,app,kind,mode,repeat_us,nominal_us,delivered_us,window_start_us,"
    "window_end_us,perceptible,hardware,hold_us,batch_size";

// Tags are app-controlled strings, and the CSV layer has three reserved
// characters of its own: ',' (field separator), '|' (hardware-set
// separator), and the newline (row separator). A raw tag containing any of
// them shifts or corrupts the row on reload, so tags travel escaped:
// '\\' '\c' '\p' '\n' '\r' for backslash, comma, pipe, LF, CR.
std::string escape_tag(std::string_view tag) {
  std::string out;
  out.reserve(tag.size());
  for (const char ch : tag) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case ',': out += "\\c"; break;
      case '|': out += "\\p"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string unescape_tag(const std::string& field) {
  std::string out;
  out.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    const char ch = field[i];
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (++i == field.size()) {
      throw std::runtime_error("DeliveryLog: dangling escape in tag: " + field);
    }
    switch (field[i]) {
      case '\\': out += '\\'; break;
      case 'c': out += ','; break;
      case 'p': out += '|'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:
        throw std::runtime_error("DeliveryLog: unknown escape in tag: " + field);
    }
  }
  return out;
}

std::string hardware_names(hw::ComponentSet set) {
  std::string out;
  set.for_each([&out](hw::Component c) {
    if (!out.empty()) out += '|';
    out += hw::to_string(c);
  });
  return out;
}

hw::ComponentSet parse_hardware(const std::string& field) {
  hw::ComponentSet set;
  if (field.empty()) return set;
  for (const std::string& name : split(field, '|')) {
    const auto c = hw::component_from_string(name);
    if (!c) throw std::runtime_error("DeliveryLog: unknown component: " + name);
    set.insert(*c);
  }
  return set;
}

std::int64_t parse_i64(const std::string& field) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(field, &pos);
    if (pos != field.size()) {
      throw std::runtime_error("DeliveryLog: bad integer field: " + field);
    }
    return v;
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception&) {  // stoll's invalid_argument/out_of_range
    throw std::runtime_error("DeliveryLog: bad integer field: " + field);
  }
}

/// parse_i64 for fields whose target type is unsigned: a negative value
/// must error, not wrap through the cast.
std::int64_t parse_nonneg(const std::string& field, const char* what) {
  const std::int64_t v = parse_i64(field);
  if (v < 0) {
    throw std::runtime_error(std::string("DeliveryLog: negative ") + what + ": " +
                             field);
  }
  return v;
}

alarm::AlarmKind parse_kind(const std::string& field) {
  if (field == "wakeup") return alarm::AlarmKind::kWakeup;
  if (field == "non-wakeup") return alarm::AlarmKind::kNonWakeup;
  throw std::runtime_error("DeliveryLog: bad kind: " + field);
}

alarm::RepeatMode parse_mode(const std::string& field) {
  if (field == "one-shot") return alarm::RepeatMode::kOneShot;
  if (field == "static") return alarm::RepeatMode::kStatic;
  if (field == "dynamic") return alarm::RepeatMode::kDynamic;
  throw std::runtime_error("DeliveryLog: bad mode: " + field);
}

}  // namespace

void DeliveryLog::append(alarm::DeliveryRecord record) {
  auto it = tags_.find(record.tag);
  if (it == tags_.end()) it = tags_.emplace(record.tag).first;
  record.tag = *it;
  records_.push_back(record);
}

void DeliveryLog::observe(const alarm::DeliveryRecord& record) { append(record); }

alarm::DeliveryObserver DeliveryLog::observer() {
  return [this](const alarm::DeliveryRecord& r) { observe(r); };
}

std::string DeliveryLog::to_csv() const {
  std::string out = std::string(kHeader) + "\n";
  for (const alarm::DeliveryRecord& r : records_) {
    out += str_format(
        "%llu,%s,%u,%s,%s,%lld,%lld,%lld,%lld,%lld,%d,%s,%lld,%zu\n",
        static_cast<unsigned long long>(r.id.value), escape_tag(r.tag).c_str(),
        r.app.value,
        alarm::to_string(r.kind), alarm::to_string(r.mode),
        static_cast<long long>(r.repeat_interval.us()),
        static_cast<long long>(r.nominal.us()),
        static_cast<long long>(r.delivered.us()),
        static_cast<long long>(r.window.start().us()),
        static_cast<long long>(r.window.end().us()),
        r.was_perceptible ? 1 : 0, hardware_names(r.hardware_used).c_str(),
        static_cast<long long>(r.hold.us()), r.batch_size);
  }
  return out;
}

DeliveryLog DeliveryLog::from_csv(const std::string& csv) {
  DeliveryLog log;
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line) || trim(line) != kHeader) {
    throw std::runtime_error("DeliveryLog: missing or wrong header");
  }
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    const std::vector<std::string> f = split(trim(line), ',');
    if (f.size() != 14) {
      throw std::runtime_error("DeliveryLog: bad row: " + line);
    }
    alarm::DeliveryRecord r;
    r.id = alarm::AlarmId{static_cast<std::uint64_t>(parse_nonneg(f[0], "id"))};
    const std::string tag = unescape_tag(f[1]);
    r.tag = tag;  // append() copies it into the log's store
    const std::int64_t app = parse_nonneg(f[2], "app");
    if (app > static_cast<std::int64_t>(std::numeric_limits<std::uint32_t>::max())) {
      throw std::runtime_error("DeliveryLog: app id out of range: " + f[2]);
    }
    r.app = alarm::AppId{static_cast<std::uint32_t>(app)};
    r.kind = parse_kind(f[3]);
    r.mode = parse_mode(f[4]);
    r.repeat_interval = Duration::micros(parse_i64(f[5]));
    r.nominal = TimePoint::from_us(parse_i64(f[6]));
    r.delivered = TimePoint::from_us(parse_i64(f[7]));
    r.window = TimeInterval{TimePoint::from_us(parse_i64(f[8])),
                            TimePoint::from_us(parse_i64(f[9]))};
    r.was_perceptible = parse_i64(f[10]) != 0;
    r.hardware_used = parse_hardware(f[11]);
    r.hold = Duration::micros(parse_i64(f[12]));
    r.batch_size = static_cast<std::size_t>(parse_nonneg(f[13], "batch_size"));
    log.append(r);
  }
  return log;
}

void DeliveryLog::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("DeliveryLog::save: cannot open " + path);
  f << to_csv();
  if (!f) throw std::runtime_error("DeliveryLog::save: write failed for " + path);
}

DeliveryLog DeliveryLog::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("DeliveryLog::load: cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return from_csv(buf.str());
}

namespace {

// The shared reader, with each record's tag interned in the log's store.
class RecordReader final : public snapshot::FieldReaderBase<RecordReader> {
 public:
  RecordReader(snapshot::SectionReader& s, std::set<std::string, std::less<>>& tags)
      : FieldReaderBase(s), tags_(tags) {}

  using FieldReaderBase::operator();
  void operator()(const char*, std::string_view& tag) const {
    tag = *tags_.insert(s_.str()).first;
  }

 private:
  std::set<std::string, std::less<>>& tags_;
};

}  // namespace

void DeliveryLog::restore(snapshot::SectionReader& s) {
  records_.clear();  // before the tags they view
  tags_.clear();
  RecordReader(s, tags_).record(*this);
  for (const alarm::DeliveryRecord& r : records_) {
    SIMTY_CHECK_MSG(!r.window.is_empty(),
                    "DeliveryLog::restore: inverted delivery window");
  }
}

apps::AppTrace DeliveryLog::app_trace(std::string_view tag) const {
  apps::AppTrace trace;
  trace.app_name = std::string(tag);
  for (const alarm::DeliveryRecord& r : records_) {
    if (r.tag == tag) {
      trace.entries.push_back(apps::TraceEntry{r.hardware_used, r.hold});
    }
  }
  SIMTY_CHECK_MSG(!trace.entries.empty(),
                  "no deliveries logged for tag " + std::string(tag));
  return trace;
}

apps::Workload workload_from_log(const DeliveryLog& log,
                                 const apps::WorkloadConfig& config) {
  // First record per distinct repeating wakeup tag defines the profile.
  std::vector<std::pair<apps::AppProfile, apps::AppTrace>> imitations;
  std::vector<std::string_view> seen;  // views into the log's tag store
  for (const alarm::DeliveryRecord& r : log.records()) {
    if (r.mode == alarm::RepeatMode::kOneShot) continue;
    if (r.kind != alarm::AlarmKind::kWakeup) continue;
    if (std::find(seen.begin(), seen.end(), r.tag) != seen.end()) continue;
    seen.push_back(r.tag);

    apps::AppProfile p;
    // ImitatedApp registers "<name>.major"; strip a recorded ".major" so
    // replayed tags match the original log's.
    std::string name(r.tag);
    if (name.size() > 6 && name.ends_with(".major")) {
      name.resize(name.size() - 6);
    }
    p.name = std::move(name);
    p.repeat = r.repeat_interval;
    p.alpha = r.window.length().ratio(r.repeat_interval);
    p.mode = r.mode;
    // Hardware/hold behaviour comes from the replayed trace; the profile
    // fields just need plausible placeholders.
    p.hardware = r.hardware_used;
    p.base_hold = std::max(r.hold, Duration::millis(1));
    imitations.emplace_back(std::move(p), log.app_trace(r.tag));
  }
  SIMTY_CHECK_MSG(!imitations.empty(),
                  "log contains no repeating wakeup deliveries to replay");
  return apps::Workload::from_imitations(std::move(imitations), config);
}

}  // namespace simty::trace
