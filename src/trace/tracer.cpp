#include "trace/tracer.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "snapshot/codec.hpp"

namespace simty::trace {

namespace {

thread_local Tracer* g_current = nullptr;

// Binary format (all integers little-endian, independent of host order):
//   magic "SMTYTRC1"
//   u32 label_count, then per label: u32 byte length + raw bytes
//   u64 dropped events (always 0: the tracer never drops; the field keeps
//       the format stable)
//   u64 event_count, then per event:
//     i64 t_us | u32 label index | u8 kind | u8 category | i64 arg
constexpr char kMagic[8] = {'S', 'M', 'T', 'Y', 'T', 'R', 'C', '1'};
constexpr std::size_t kRecordBytes = 8 + 4 + 1 + 1 + 8;

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void append_i64(std::string& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader over an immutable byte string.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  std::uint32_t read_u32() { return static_cast<std::uint32_t>(read_le(4)); }
  std::uint64_t read_u64() { return read_le(8); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_le(8)); }
  std::uint8_t read_u8() { return static_cast<std::uint8_t>(read_le(1)); }

  std::string read_bytes(std::size_t n) {
    require(n);
    std::string out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) {
      throw std::runtime_error("trace: truncated input");
    }
  }

  std::uint64_t read_le(std::size_t n) {
    require(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

// The events as a decoded trace: labels deduplicated by CONTENT in
// first-appearance order, each event naming its label by index. Two runs
// recording the same event sequence get identical tables even though the
// label pointers differ between processes (or interner states). binary()
// and save() share it, so a save/restore round trip re-exports
// byte-identical artifacts.
DecodedTrace decode_events(const std::vector<TraceEvent>& events) {
  DecodedTrace t;
  std::map<std::string_view, std::uint32_t> ids;
  t.events.reserve(events.size());
  for (const TraceEvent& e : events) {
    const auto [it, inserted] =
        ids.emplace(e.label, static_cast<std::uint32_t>(t.labels.size()));
    if (inserted) t.labels.emplace_back(e.label);
    t.events.push_back(DecodedEvent{e.t_us, it->second, e.arg, e.kind, e.category});
  }
  return t;
}

// A tracer's snapshot fields: its events as a decoded trace (never any
// dropped), and the number of spans still open.
struct SavedTrace {
  DecodedTrace trace;
  std::int64_t open_spans = 0;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("labels", self.trace.labels);
    f("dropped", self.trace.dropped);
    f("open_spans", self.open_spans);
    f("events", self.trace.events);
  }
};

std::string json_escape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    const char ch = *p;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += str_format("\\u%04x", static_cast<unsigned char>(ch));
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kAlarm: return "alarm";
    case TraceCategory::kHw: return "hw";
    case TraceCategory::kNet: return "net";
    case TraceCategory::kExp: return "exp";
  }
  return "?";
}

const char* to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kSpanBegin: return "span-begin";
    case TraceEventKind::kSpanEnd: return "span-end";
    case TraceEventKind::kInstant: return "instant";
    case TraceEventKind::kCounter: return "counter";
  }
  return "?";
}

Tracer::Tracer() {
  // Pre-allocate the first chunk so steady state never allocates on the
  // recording path until a chunk boundary.
  chunks_.emplace_back();
  chunks_[0].reserve(kChunkEvents);
}

void Tracer::record(const TraceEvent& e) {
  if (chunks_[current_chunk_].size() == kChunkEvents) {
    // Advance into a chunk retained by clear() when one exists; only a
    // fresh high-water mark allocates.
    ++current_chunk_;
    if (current_chunk_ == chunks_.size()) {
      chunks_.emplace_back();
      chunks_[current_chunk_].reserve(kChunkEvents);
    }
  }
  chunks_[current_chunk_].push_back(e);
}

void Tracer::span_begin(TimePoint when, TraceCategory category, const char* label,
                        std::int64_t arg) {
  ++open_spans_;
  record(TraceEvent{when.us(), label, arg, TraceEventKind::kSpanBegin, category});
}

void Tracer::span_end(TimePoint when, TraceCategory category, const char* label,
                      std::int64_t arg) {
  SIMTY_CHECK_MSG(open_spans_ > 0, "Tracer::span_end without a matching begin");
  --open_spans_;
  record(TraceEvent{when.us(), label, arg, TraceEventKind::kSpanEnd, category});
}

void Tracer::instant(TimePoint when, TraceCategory category, const char* label,
                     std::int64_t arg) {
  record(TraceEvent{when.us(), label, arg, TraceEventKind::kInstant, category});
}

void Tracer::counter(TimePoint when, TraceCategory category, const char* label,
                     std::int64_t value) {
  record(TraceEvent{when.us(), label, value, TraceEventKind::kCounter, category});
}

std::size_t Tracer::size() const {
  std::size_t n = 0;
  for (const auto& chunk : chunks_) n += chunk.size();
  return n;
}

void Tracer::clear() {
  // Retain every grown chunk (and its capacity) for the next run.
  for (std::size_t i = 0; i <= current_chunk_; ++i) chunks_[i].clear();
  current_chunk_ = 0;
  open_spans_ = 0;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for (const auto& chunk : chunks_) out.insert(out.end(), chunk.begin(), chunk.end());
  return out;
}

std::string Tracer::chrome_json() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    const std::string name = json_escape(e.label);
    const char* cat = to_string(e.category);
    const long long ts = static_cast<long long>(e.t_us);
    const long long arg = static_cast<long long>(e.arg);
    switch (e.kind) {
      case TraceEventKind::kSpanBegin:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"B\",\"ts\":%lld,"
            "\"pid\":0,\"tid\":0,\"args\":{\"arg\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
      case TraceEventKind::kSpanEnd:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"E\",\"ts\":%lld,"
            "\"pid\":0,\"tid\":0,\"args\":{\"arg\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
      case TraceEventKind::kInstant:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"I\",\"s\":\"t\","
            "\"ts\":%lld,\"pid\":0,\"tid\":0,\"args\":{\"arg\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
      case TraceEventKind::kCounter:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%lld,"
            "\"pid\":0,\"tid\":0,\"args\":{\"value\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
    }
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::binary() const {
  const DecodedTrace t = decode_events(snapshot());
  std::string out(kMagic, sizeof(kMagic));
  append_u32(out, static_cast<std::uint32_t>(t.labels.size()));
  for (const std::string& label : t.labels) {
    append_u32(out, static_cast<std::uint32_t>(label.size()));
    out.append(label);
  }
  append_u64(out, t.dropped);
  append_u64(out, static_cast<std::uint64_t>(t.events.size()));
  for (const DecodedEvent& e : t.events) {
    append_i64(out, e.t_us);
    append_u32(out, e.label);
    out.push_back(static_cast<char>(e.kind));
    out.push_back(static_cast<char>(e.category));
    append_i64(out, e.arg);
  }
  return out;
}

void Tracer::save(snapshot::Writer& w) const {
  snapshot::write_fields(w, SavedTrace{decode_events(snapshot()), open_spans_});
}

void Tracer::restore(snapshot::SectionReader& s) {
  SavedTrace saved;
  snapshot::read_fields(s, saved);
  SIMTY_CHECK_MSG(saved.trace.dropped == 0,
                  "Tracer::restore: snapshot counts dropped events");
  SIMTY_CHECK_MSG(saved.open_spans >= 0, "Tracer::restore: negative open span count");
  clear();
  restored_labels_.clear();
  for (std::string& label : saved.trace.labels) {
    restored_labels_.push_back(std::make_unique<std::string>(std::move(label)));
  }
  for (const DecodedEvent& e : saved.trace.events) {
    SIMTY_CHECK_MSG(e.label < restored_labels_.size(),
                    "Tracer::restore: label index out of range");
    record(TraceEvent{e.t_us, restored_labels_[e.label]->c_str(), e.arg, e.kind,
                      e.category});
  }
  open_spans_ = saved.open_spans;
}

Tracer* current() { return g_current; }

TraceScope::TraceScope(Tracer* tracer) : previous_(g_current) {
  g_current = tracer;
}

TraceScope::~TraceScope() { g_current = previous_; }

DecodedTrace decode_trace(const std::string& bytes) {
  Reader in(bytes);
  if (in.read_bytes(sizeof(kMagic)) != std::string(kMagic, sizeof(kMagic))) {
    throw std::runtime_error("trace: bad magic (not a SIMTY binary trace)");
  }
  DecodedTrace t;
  const std::uint32_t label_count = in.read_u32();
  // Each label takes at least its u32 length, so a count the input cannot
  // hold is rejected before it sizes an allocation.
  if (label_count > in.remaining() / 4) {
    throw std::runtime_error("trace: label_count exceeds the input");
  }
  t.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    const std::uint32_t len = in.read_u32();
    t.labels.push_back(in.read_bytes(len));
  }
  t.dropped = in.read_u64();
  const std::uint64_t event_count = in.read_u64();
  // Divide rather than multiply: event_count * kRecordBytes can wrap.
  if (in.remaining() % kRecordBytes != 0 ||
      event_count != in.remaining() / kRecordBytes) {
    throw std::runtime_error("trace: event_count does not match the event payload");
  }
  t.events.reserve(event_count);
  for (std::uint64_t i = 0; i < event_count; ++i) {
    DecodedEvent e;
    e.t_us = in.read_i64();
    e.label = in.read_u32();
    const std::uint8_t kind = in.read_u8();
    const std::uint8_t category = in.read_u8();
    e.arg = in.read_i64();
    if (kind > static_cast<std::uint8_t>(TraceEventKind::kCounter)) {
      throw std::runtime_error("trace: bad event kind");
    }
    if (category > static_cast<std::uint8_t>(TraceCategory::kExp)) {
      throw std::runtime_error("trace: bad event category");
    }
    if (e.label >= t.labels.size()) {
      throw std::runtime_error("trace: label index out of range");
    }
    e.kind = static_cast<TraceEventKind>(kind);
    e.category = static_cast<TraceCategory>(category);
    t.events.push_back(e);
  }
  return t;
}

DecodedTrace load_trace(const std::string& path) {
  return decode_trace(snapshot::read_file(path));
}

namespace {

std::string format_event(const DecodedTrace& t, std::size_t i) {
  const DecodedEvent& e = t.events[i];
  return str_format("event %zu: t=%lldus %s/%s \"%s\" arg=%lld", i,
                    static_cast<long long>(e.t_us), to_string(e.category),
                    to_string(e.kind), t.label_of(e).c_str(),
                    static_cast<long long>(e.arg));
}

}  // namespace

TraceDiff diff_traces(const DecodedTrace& a, const DecodedTrace& b) {
  TraceDiff d;
  const std::size_t common = std::min(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < common; ++i) {
    const DecodedEvent& ea = a.events[i];
    const DecodedEvent& eb = b.events[i];
    const bool same = ea.t_us == eb.t_us && ea.arg == eb.arg &&
                      ea.kind == eb.kind && ea.category == eb.category &&
                      a.label_of(ea) == b.label_of(eb);
    if (!same) {
      d.first_divergence = i;
      d.summary = str_format("traces diverge at event %zu:\n  a: %s\n  b: %s", i,
                             format_event(a, i).c_str(), format_event(b, i).c_str());
      return d;
    }
  }
  if (a.events.size() != b.events.size()) {
    const DecodedTrace& longer = a.events.size() > b.events.size() ? a : b;
    d.first_divergence = common;
    d.summary = str_format(
        "traces share %zu events, then %s has %zu extra:\n  first extra: %s",
        common, a.events.size() > b.events.size() ? "a" : "b",
        longer.events.size() - common, format_event(longer, common).c_str());
    return d;
  }
  if (a.dropped != b.dropped) {
    d.summary = str_format(
        "events identical but drop counts differ (a: %llu, b: %llu)",
        static_cast<unsigned long long>(a.dropped),
        static_cast<unsigned long long>(b.dropped));
    return d;
  }
  d.equal = true;
  d.summary = str_format("traces identical (%zu events)", a.events.size());
  return d;
}

}  // namespace simty::trace
