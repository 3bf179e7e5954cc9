#include "snapshot/snapshot.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"
#include "snapshot/codec.hpp"

namespace simty::snapshot {

namespace {

constexpr char kMagic[8] = {'S', 'M', 'T', 'Y', 'S', 'N', 'P', '1'};

/// Magic, format version and section count.
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 4;
constexpr std::size_t kCountAt = sizeof(kMagic) + 4;

/// Every protocol frame fits without growing the buffer.
constexpr std::size_t kInitialCapacity = 1024;

/// Longest name/bytes/str length the reader will honor even when the
/// buffer is large; a secondary ceiling so a hostile header cannot ask for
/// multi-gigabyte strings backed by a sparse mmap.
constexpr std::uint64_t kMaxBlob = 1ull << 31;

static_assert(detail::byteswap(std::uint32_t{0x01020304}) == 0x04030201u);

template <typename U>
void append_le(std::string& out, U v) {
  char buf[sizeof(U)];
  detail::store_le(buf, v);
  out.append(buf, sizeof(U));
}

}  // namespace

const char* to_string(FieldType t) {
  switch (t) {
    case FieldType::kU8: return "u8";
    case FieldType::kU32: return "u32";
    case FieldType::kU64: return "u64";
    case FieldType::kI64: return "i64";
    case FieldType::kF64: return "f64";
    case FieldType::kBytes: return "bytes";
    case FieldType::kStr: return "str";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Writer

void Writer::start() {
  out_.reserve(kInitialCapacity);
  out_.append(kMagic, sizeof(kMagic));
  append_le(out_, kFormatVersion);
  append_le(out_, std::uint32_t{0});  // patched by finish()
}

void Writer::begin_section(std::string_view name, std::uint32_t version) {
  SIMTY_CHECK_MSG(!open_, "snapshot::Writer: begin_section inside a section");
  SIMTY_CHECK_MSG(!name.empty(), "snapshot::Writer: empty section name");
  if (out_.empty()) start();
  // Walk the closed sections' headers (their lengths are patched in).
  for (std::size_t at = kHeaderBytes; at < out_.size();) {
    const auto name_len = detail::load_le<std::uint32_t>(out_.data() + at);
    at += 4;
    SIMTY_CHECK_MSG(std::string_view(out_.data() + at, name_len) != name,
                    "snapshot::Writer: duplicate section name");
    at += name_len + 4;
    at += 8 + detail::load_le<std::uint64_t>(out_.data() + at);
  }
  append_le(out_, static_cast<std::uint32_t>(name.size()));
  out_.append(name);
  append_le(out_, version);
  length_at_ = out_.size();
  append_le(out_, std::uint64_t{0});  // patched by end_section()
  payload_at_ = out_.size();
  ++sections_;
  open_ = true;
}

void Writer::end_section() {
  SIMTY_CHECK_MSG(open_, "snapshot::Writer: end_section without begin_section");
  detail::store_le(out_.data() + length_at_,
                   static_cast<std::uint64_t>(out_.size() - payload_at_));
  open_ = false;
}

void Writer::require_open() const {
  SIMTY_CHECK_MSG(open_, "snapshot::Writer: field written outside a section");
}

template <typename U>
void Writer::fixed(FieldType type, U v) {
  require_open();
  char field[1 + sizeof(U)];
  field[0] = static_cast<char>(type);
  detail::store_le(field + 1, v);
  out_.append(field, sizeof(field));
}

void Writer::u8(std::uint8_t v) { fixed(FieldType::kU8, v); }
void Writer::u32(std::uint32_t v) { fixed(FieldType::kU32, v); }
void Writer::u64(std::uint64_t v) { fixed(FieldType::kU64, v); }
void Writer::i64(std::int64_t v) {
  fixed(FieldType::kI64, static_cast<std::uint64_t>(v));
}
void Writer::f64(double v) { fixed(FieldType::kF64, std::bit_cast<std::uint64_t>(v)); }
void Writer::str(std::string_view v) { blob(FieldType::kStr, v); }
void Writer::bytes(std::string_view v) { blob(FieldType::kBytes, v); }

void Writer::blob(FieldType type, std::string_view v) {
  fixed(type, static_cast<std::uint64_t>(v.size()));
  out_.append(v);
}

std::string_view Writer::payload() const {
  require_open();
  return std::string_view(out_).substr(payload_at_);
}

std::string Writer::finish() {
  SIMTY_CHECK_MSG(!open_, "snapshot::Writer: finish with an open section");
  if (out_.empty()) start();
  detail::store_le(out_.data() + kCountAt, sections_);
  sections_ = 0;
  return std::exchange(out_, std::string());
}

// ---------------------------------------------------------------------------
// SectionReader

std::uint8_t SectionReader::peek_tag() const {
  if (remaining() < 1) {
    throw std::logic_error("snapshot: truncated section payload");
  }
  return static_cast<std::uint8_t>(payload_[pos_]);
}

void SectionReader::reject(FieldType want) const {
  const std::uint8_t tag = peek_tag();
  if (tag != static_cast<std::uint8_t>(want)) {
    throw std::logic_error(std::string("snapshot: expected a ") + to_string(want) +
                           " field, found " + to_string(static_cast<FieldType>(tag)) +
                           " (schema skew or corruption)");
  }
  // The tag is there and right, so the value is what is cut short.
  throw std::logic_error("snapshot: truncated section payload");
}

std::string_view SectionReader::blob(FieldType type) {
  const std::uint64_t n = take<std::uint64_t>(type);
  if (n > remaining() || n >= kMaxBlob) {
    throw std::logic_error(std::string("snapshot: ") + to_string(type) +
                           " overruns payload");
  }
  const std::string_view out = payload_.substr(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

void SectionReader::check_count(std::uint64_t n, std::size_t min_bytes_each) const {
  // Every field costs at least its tag byte, so `min_bytes_each` is >= 1
  // and the division cannot admit an absurd count on a short payload.
  if (min_bytes_each == 0) {
    throw std::logic_error("snapshot: check_count needs a positive item size");
  }
  if (n > remaining() / min_bytes_each) {
    throw std::logic_error("snapshot: item count overruns payload");
  }
}

void SectionReader::require_end() const {
  if (!at_end()) {
    throw std::logic_error("snapshot: section '" + std::string(name_) + "' has " +
                           std::to_string(remaining()) +
                           " unread bytes after its last field");
  }
}

namespace {

// A restore error located in a field: "section 'S' field 'a.b': cause".
struct FieldError : std::logic_error {
  FieldError(std::string s, std::string p, std::string c)
      : std::logic_error("section '" + s + "' field '" + p + "': " + c),
        section(std::move(s)),
        path(std::move(p)),
        cause(std::move(c)) {}
  std::string section, path, cause;
};

}  // namespace

void rethrow_in_field(const SectionReader& s, const char* name,
                      const std::logic_error& e) {
  if (const auto* inner = dynamic_cast<const FieldError*>(&e)) {
    throw FieldError(inner->section, name + ("." + inner->path), inner->cause);
  }
  throw FieldError(std::string(s.name()), name, e.what());
}

// ---------------------------------------------------------------------------
// Reader

Reader::Reader(std::string bytes) : bytes_(std::move(bytes)) {
  std::size_t pos = 0;
  const auto take = [&](std::size_t n) -> std::string_view {
    if (bytes_.size() - pos < n) {
      throw std::logic_error("snapshot: truncated container");
    }
    const std::string_view v(bytes_.data() + pos, n);
    pos += n;
    return v;
  };
  const auto take_u32 = [&] { return detail::load_le<std::uint32_t>(take(4).data()); };
  const auto take_u64 = [&] { return detail::load_le<std::uint64_t>(take(8).data()); };

  if (take(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    throw std::logic_error("snapshot: bad magic (not a SMTYSNP1 snapshot)");
  }
  if (take_u32() != kFormatVersion) {
    throw std::logic_error("snapshot: unsupported format version");
  }
  const std::uint32_t count = take_u32();
  // Each section costs at least name-len + version + payload-len = 16 bytes.
  if (count > (bytes_.size() - pos) / 16) {
    throw std::logic_error("snapshot: section count overruns container");
  }
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = take_u32();
    if (name_len == 0 || name_len > bytes_.size() - pos) {
      throw std::logic_error("snapshot: section name overruns container");
    }
    Entry e;
    e.name = take(name_len);
    e.version = take_u32();
    const std::uint64_t payload_len = take_u64();
    if (payload_len > bytes_.size() - pos || payload_len >= kMaxBlob) {
      throw std::logic_error("snapshot: section payload overruns container");
    }
    e.payload = take(static_cast<std::size_t>(payload_len));
    for (const Entry& prev : sections_) {
      if (prev.name == e.name) {
        throw std::logic_error("snapshot: duplicate section name");
      }
    }
    sections_.push_back(e);
  }
  if (pos != bytes_.size()) {
    throw std::logic_error("snapshot: trailing garbage after last section");
  }
}

bool Reader::has_section(std::string_view name) const {
  for (const Entry& e : sections_) {
    if (e.name == name) return true;
  }
  return false;
}

SectionReader Reader::section(std::string_view name, std::uint32_t version) const {
  for (const Entry& e : sections_) {
    if (e.name != name) continue;
    if (e.version != version) {
      throw std::logic_error(str_format(
          "snapshot: section '%.*s' has version %u, this build reads %u",
          static_cast<int>(name.size()), name.data(), e.version, version));
    }
    return SectionReader(e.name, e.version, e.payload);
  }
  throw std::logic_error(str_format("snapshot: missing required section '%.*s'",
                                    static_cast<int>(name.size()), name.data()));
}

std::string_view Reader::section_name(std::size_t i) const {
  SIMTY_CHECK_MSG(i < sections_.size(), "snapshot: section index out of range");
  return sections_[i].name;
}

SectionReader Reader::section_at(std::size_t i) const {
  SIMTY_CHECK_MSG(i < sections_.size(), "snapshot: section index out of range");
  return SectionReader(sections_[i].name, sections_[i].version, sections_[i].payload);
}

// ---------------------------------------------------------------------------
// Generic decode + diff

namespace {

std::string printable(const std::string& s) {
  // Short printable strings verbatim; everything else length + FNV-1a so
  // the diff stays line-sized on callback-free but large blobs.
  bool clean = s.size() <= 48;
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) > 0x7e) {
      clean = false;
      break;
    }
  }
  if (clean) return "'" + s + "'";
  return str_format("[%zu bytes, fnv 0x%016llx]", s.size(),
                    static_cast<unsigned long long>(common::fnv1a64(s)));
}

}  // namespace

DecodedSnapshot decode_snapshot(const std::string& bytes) {
  const Reader reader(bytes);
  DecodedSnapshot out;
  out.sections.reserve(reader.section_count());
  for (std::size_t i = 0; i < reader.section_count(); ++i) {
    SectionReader s = reader.section_at(i);
    DecodedSection d;
    d.name = std::string(s.name());
    d.version = s.version();
    while (!s.at_end()) {
      const auto tag = static_cast<FieldType>(s.peek_tag());
      DecodedField f;
      f.type = tag;
      switch (tag) {
        case FieldType::kU8: f.repr = str_format("%u", s.u8()); break;
        case FieldType::kU32: f.repr = str_format("%u", s.u32()); break;
        case FieldType::kU64:
          f.repr = str_format("%llu", static_cast<unsigned long long>(s.u64()));
          break;
        case FieldType::kI64:
          f.repr = str_format("%lld", static_cast<long long>(s.i64()));
          break;
        case FieldType::kF64: {
          const double v = s.f64();
          f.repr = str_format("%.17g (bits 0x%016llx)", v,
                              static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
          break;
        }
        case FieldType::kStr: f.repr = printable(s.str()); break;
        case FieldType::kBytes: f.repr = printable(s.bytes()); break;
        default:
          throw std::logic_error("snapshot: unknown field tag");
      }
      d.fields.push_back(std::move(f));
    }
    out.sections.push_back(std::move(d));
  }
  return out;
}

SnapshotDiff diff_snapshots(const DecodedSnapshot& a, const DecodedSnapshot& b) {
  const std::size_t common_sections = std::min(a.sections.size(), b.sections.size());
  for (std::size_t i = 0; i < common_sections; ++i) {
    const DecodedSection& sa = a.sections[i];
    const DecodedSection& sb = b.sections[i];
    if (sa.name != sb.name) {
      return {false, str_format("section #%zu differs: '%s' vs '%s'", i,
                                sa.name.c_str(), sb.name.c_str())};
    }
    if (sa.version != sb.version) {
      return {false, str_format("section '%s' version differs: %u vs %u",
                                sa.name.c_str(), sa.version, sb.version)};
    }
    const std::size_t common_fields = std::min(sa.fields.size(), sb.fields.size());
    for (std::size_t k = 0; k < common_fields; ++k) {
      const DecodedField& fa = sa.fields[k];
      const DecodedField& fb = sb.fields[k];
      if (fa.type != fb.type) {
        return {false,
                str_format("section '%s' field #%zu type differs: %s vs %s",
                           sa.name.c_str(), k, to_string(fa.type), to_string(fb.type))};
      }
      if (fa.repr != fb.repr) {
        return {false,
                str_format("section '%s' field #%zu (%s): %s vs %s", sa.name.c_str(),
                           k, to_string(fa.type), fa.repr.c_str(), fb.repr.c_str())};
      }
    }
    if (sa.fields.size() != sb.fields.size()) {
      return {false,
              str_format("section '%s' field counts differ: %zu vs %zu",
                         sa.name.c_str(), sa.fields.size(), sb.fields.size())};
    }
  }
  if (a.sections.size() != b.sections.size()) {
    return {false, str_format("section counts differ: %zu vs %zu", a.sections.size(),
                              b.sections.size())};
  }
  return {true, "snapshots identical"};
}

// ---------------------------------------------------------------------------
// File I/O

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  if (f.bad()) throw std::runtime_error("read failed for " + path);
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.close();
  if (!f) throw std::runtime_error("write failed for " + path);
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  write_file(tmp, bytes);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("rename failed for " + path);
  }
}

}  // namespace simty::snapshot
