#include "trace/delivery_log.hpp"

#include <string_view>

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
// them shifts or corrupts the row for a CSV reader, so tags travel escaped:
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

std::string hardware_names(hw::ComponentSet set) {
  std::string out;
  set.for_each([&out](hw::Component c) {
    if (!out.empty()) out += '|';
    out += hw::to_string(c);
  });
  return out;
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

}  // namespace simty::trace
