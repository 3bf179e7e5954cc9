#pragma once
// Versioned little-endian snapshot container: the one binary format for
// resumable run state, binary run traces (trace/tracer.hpp) and the serve
// protocol's frames.
//
// Every integer is little-endian regardless of host order, doubles travel
// as raw IEEE-754 bit patterns (bit-exact, no text round-trip), and the
// reader bounds-checks every length before it allocates or advances.
//
// Layout:
//   magic "SMTYSNP1"
//   u32 format version (kFormatVersion)
//   u32 section count, then per section:
//     u32 name length + name bytes
//     u32 section version (bumped when a component's field list changes)
//     u64 payload length + payload bytes
//
// A section payload is a flat sequence of *tagged* fields: one FieldType
// byte, then the value (u8/u32/u64/i64/f64 fixed-size; bytes/str carry a
// u64 length). The tags buy two things: restore code self-checks against
// schema skew (reading a u32 where a u64 was written fails loudly instead
// of desynchronizing the stream), and tools/snapshot_diff can walk any
// snapshot generically and name the first divergent section/field without
// knowing component schemas.
//
// Components do not call the typed writers and readers field by field:
// each names its state once in a for_each_state_field list, and the shared
// codec (snapshot/codec.hpp) maps that list onto tagged fields, naming the
// section and field in any restore error. The names never reach the wire.
// Reader::read_section requires a section to be read to its end, so a
// section carrying a field its reader does not list is rejected.
//
// Malformed input — bad magic, truncated section, version skew, a length
// that overruns the buffer, an unknown tag — is rejected with a
// std::logic_error whose message is the cause alone, never undefined
// behavior; tests/snapshot feeds this reader randomized corruptions under
// the ASan/UBSan CI job.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>


namespace simty::snapshot {

inline constexpr std::uint32_t kFormatVersion = 1;

/// Tag byte preceding every field in a section payload.
enum class FieldType : std::uint8_t {
  kU8 = 1,
  kU32 = 2,
  kU64 = 3,
  kI64 = 4,
  kF64 = 5,  // raw IEEE-754 bit pattern, little-endian
  kBytes = 6,
  kStr = 7,
};

namespace detail {

/// `v` with its bytes in reverse order.
template <typename U>
constexpr U byteswap(U v) {
  U out = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    out = static_cast<U>((out << 8) | (v & 0xffu));
    v = static_cast<U>(v >> 8);
  }
  return out;
}

/// Stores `v` little-endian at `p` (one memcpy; a byte swap first on a
/// big-endian host).
template <typename U>
void store_le(char* p, U v) {
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  std::memcpy(p, &v, sizeof(U));
}

/// Loads a little-endian U from `p`.
template <typename U>
U load_le(const char* p) {
  U v = 0;
  std::memcpy(&v, p, sizeof(U));
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  return v;
}

}  // namespace detail

/// Serializes sections of tagged fields into one output buffer: a
/// section's header is written when it opens and its payload length
/// patched when it closes, so finish() copies no payload again.
class Writer {
 public:
  /// Opens a section; fields written next belong to it. Section names must
  /// be unique within a snapshot and are matched exactly by the reader.
  void begin_section(std::string_view name, std::uint32_t version);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view v);
  void bytes(std::string_view v);

  /// The open section's fields so far (to hash or embed an encoding).
  std::string_view payload() const;

  /// Patches the section count and hands over the container; the writer
  /// starts afresh after.
  std::string finish();

 private:
  void require_open() const;
  // A tag byte and a fixed-width value, appended with one copy.
  template <typename U>
  void fixed(FieldType type, U v);
  void blob(FieldType type, std::string_view v);  // str/bytes: length + data
  void start();  // magic, format version, section count placeholder

  std::string out_;  // the container so far
  std::uint32_t sections_ = 0;
  std::size_t length_at_ = 0;   // the open section's payload length field
  std::size_t payload_at_ = 0;  // the open section's first payload byte
  bool open_ = false;
};

/// Bounds-checked reader over one section's payload. Every accessor
/// verifies the tag byte before consuming the value.
class SectionReader {
 public:
  SectionReader(std::string_view name, std::uint32_t version,
                std::string_view payload)
      : name_(name), version_(version), payload_(payload) {}

  std::string_view name() const { return name_; }
  std::uint32_t version() const { return version_; }
  /// The whole payload, read or not (a view into the Reader's bytes).
  std::string_view payload() const { return payload_; }

  std::uint8_t u8() { return take<std::uint8_t>(FieldType::kU8); }
  std::uint32_t u32() { return take<std::uint32_t>(FieldType::kU32); }
  std::uint64_t u64() { return take<std::uint64_t>(FieldType::kU64); }
  std::int64_t i64() {
    return static_cast<std::int64_t>(take<std::uint64_t>(FieldType::kI64));
  }
  double f64() { return std::bit_cast<double>(take<std::uint64_t>(FieldType::kF64)); }
  bool boolean() { return u8() != 0; }
  std::string str() { return std::string(blob(FieldType::kStr)); }
  std::string bytes() { return std::string(blob(FieldType::kBytes)); }
  /// A bytes field as a view into the Reader's bytes, not a copy.
  std::string_view bytes_view() { return blob(FieldType::kBytes); }

  /// Guards a count read from the payload before it sizes an allocation:
  /// `n` items of at least `min_bytes_each` serialized bytes must still fit
  /// in the unread payload, so a hostile count cannot trigger a huge
  /// reserve before the truncation is noticed.
  void check_count(std::uint64_t n, std::size_t min_bytes_each) const;

  std::size_t remaining() const { return payload_.size() - pos_; }
  bool at_end() const { return pos_ == payload_.size(); }
  /// Throws naming the section unless every field has been read.
  void require_end() const;

  /// Next field's tag byte without consuming it (generic decode walks).
  std::uint8_t peek_tag() const;

 private:
  // Reads the next field, a `want` tag and a fixed-width U. The fast path
  // is one bounds check covering tag and value, a tag compare and a load;
  // anything else goes to reject(), which throws the message naming what
  // is wrong.
  template <typename U>
  U take(FieldType want) {
    if (remaining() > sizeof(U) && payload_[pos_] == static_cast<char>(want)) {
      const U v = detail::load_le<U>(payload_.data() + pos_ + 1);
      pos_ += 1 + sizeof(U);
      return v;
    }
    reject(want);
  }
  [[noreturn]] void reject(FieldType want) const;
  std::string_view blob(FieldType type);  // str/bytes
  std::string_view name_;
  std::uint32_t version_ = 0;
  std::string_view payload_;
  std::size_t pos_ = 0;
};

/// Parses the container header and section table (validating magic, format
/// version, and every length against the buffer). Section payloads are not
/// interpreted until a SectionReader walks them.
class Reader {
 public:
  /// Takes ownership of the raw bytes; throws std::logic_error on a
  /// malformed container.
  explicit Reader(std::string bytes);

  bool has_section(std::string_view name) const;

  /// Opens section `name`, checking it exists and its recorded version is
  /// exactly `version` (schema changes must bump the component's version).
  SectionReader section(std::string_view name, std::uint32_t version) const;

  /// Opens section `name` as section() does, hands it to `read`, then
  /// requires that `read` consumed all of it: a section that carries fields
  /// its reader does not list is rejected, naming the section.
  template <typename F>
  void read_section(std::string_view name, std::uint32_t version, F&& read) const {
    SectionReader s = section(name, version);
    std::forward<F>(read)(s);
    s.require_end();
  }

  std::size_t section_count() const { return sections_.size(); }
  /// Section name by container order (for generic walks).
  std::string_view section_name(std::size_t i) const;
  /// Opens section `i` without a version check (diff/decode tooling).
  SectionReader section_at(std::size_t i) const;

 private:
  struct Entry {
    std::string_view name;  // into bytes_
    std::uint32_t version = 0;
    std::string_view payload;  // into bytes_
  };
  std::string bytes_;
  std::vector<Entry> sections_;
};

// ---------------------------------------------------------------------------
// Generic decode + diff (tools/snapshot_diff), mirroring trace_diff
// semantics: equal -> exit 0, first divergence named -> exit 1, malformed
// input -> exception -> exit 2.

struct DecodedField {
  FieldType type = FieldType::kU8;
  std::string repr;  // deterministic text rendering of the value
};

struct DecodedSection {
  std::string name;
  std::uint32_t version = 0;
  std::vector<DecodedField> fields;
};

struct DecodedSnapshot {
  std::vector<DecodedSection> sections;
};

/// Fully decodes a snapshot, validating every field tag and length.
DecodedSnapshot decode_snapshot(const std::string& bytes);

struct SnapshotDiff {
  bool equal = false;
  std::string summary;  // first divergence, human-readable
};

/// Compares two decoded snapshots; names the first divergent
/// section/field ("section 'queue' field #12 (u64): 42 vs 43").
SnapshotDiff diff_snapshots(const DecodedSnapshot& a, const DecodedSnapshot& b);

/// Field-type name for diagnostics ("u64", "str", ...).
const char* to_string(FieldType t);

/// Reads a whole file; throws std::runtime_error on I/O failure.
std::string read_file(const std::string& path);

/// Writes bytes to `path`; throws std::runtime_error naming the path when
/// the file cannot be opened or a byte does not reach it (the stream is
/// checked after close, so a full device is an error, not a short file).
/// Every file a tool writes goes through here or write_file_atomic.
void write_file(const std::string& path, const std::string& bytes);

/// Writes bytes to `path` via a same-directory temporary + rename, so a
/// crash mid-write never leaves a torn file.
void write_file_atomic(const std::string& path, const std::string& bytes);

}  // namespace simty::snapshot
