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

// A trace file is a snapshot container holding this one section, in
// SavedTrace's layout. Bump the version when SavedTrace's field list
// changes (Run snapshots carry the same section under their own version).
constexpr const char* kTraceSection = "tracer";
constexpr std::uint32_t kTraceVersion = 1;

// The events as a decoded trace: labels deduplicated by CONTENT in
// first-appearance order, each event naming its label by index. Two runs
// recording the same event sequence get identical tables even though the
// label pointers differ between processes (or interner states), and a
// save/restore round trip re-exports byte-identical artifacts.
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

// A tracer's snapshot fields: its events as a decoded trace, and the
// number of spans still open.
struct SavedTrace {
  DecodedTrace trace;
  std::int64_t open_spans = 0;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("labels", self.trace.labels);
    f("open_spans", self.open_spans);
    f("events", self.trace.events);
  }
};

// Reads a tracer section, checking what the field codec cannot: the span
// count and every event's label index. Tracer::restore and decode_trace
// both read through here.
SavedTrace read_saved(snapshot::SectionReader& s) {
  SavedTrace saved;
  snapshot::read_fields(s, saved);
  if (saved.open_spans < 0) throw std::logic_error("trace: negative open span count");
  for (const DecodedEvent& e : saved.trace.events) {
    if (e.label >= saved.trace.labels.size()) {
      throw std::logic_error("trace: label index out of range");
    }
  }
  return saved;
}

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
    // Phases B, E, I, C by kind; an instant is thread-scoped and a
    // counter's value is its only arg.
    out += str_format(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\"%s,\"ts\":%lld,"
        "\"pid\":0,\"tid\":0,\"args\":{\"%s\":%lld}}",
        name.c_str(), cat, "BEIC"[static_cast<int>(e.kind)],
        e.kind == TraceEventKind::kInstant ? ",\"s\":\"t\"" : "", ts,
        e.kind == TraceEventKind::kCounter ? "value" : "arg", arg);
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::binary() const {
  snapshot::Writer w;
  w.begin_section(kTraceSection, kTraceVersion);
  save(w);
  w.end_section();
  return w.finish();
}

void Tracer::save(snapshot::Writer& w) const {
  snapshot::write_fields(w, SavedTrace{decode_events(snapshot()), open_spans_});
}

void Tracer::restore(snapshot::SectionReader& s) {
  SavedTrace saved = read_saved(s);
  clear();
  restored_labels_.clear();
  for (std::string& label : saved.trace.labels) {
    restored_labels_.push_back(std::make_unique<std::string>(std::move(label)));
  }
  for (const DecodedEvent& e : saved.trace.events) {
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
  DecodedTrace t;
  const snapshot::Reader r(bytes);
  r.read_section(kTraceSection, kTraceVersion, [&t](snapshot::SectionReader& s) {
    t = std::move(read_saved(s).trace);
  });
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
  d.equal = true;
  d.summary = str_format("traces identical (%zu events)", a.events.size());
  return d;
}

}  // namespace simty::trace
