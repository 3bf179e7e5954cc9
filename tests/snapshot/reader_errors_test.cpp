// Reader error parity: every check the container reader makes — field tag,
// value bounds, blob length and ceiling, item counts, read-to-end and the
// container header — rejects its input with the same message whatever
// path the read takes. The messages are compared exactly: a reader error
// is its cause alone, with no check expression or source location.

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "snapshot/snapshot.hpp"

namespace simty::snapshot {
namespace {

constexpr std::string_view kTruncated = "snapshot: truncated section payload";

/// The message `f` throws.
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "(no error)";
}

std::string le(std::uint64_t v, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
  return out;
}

std::string tag(FieldType t) { return std::string(1, static_cast<char>(t)); }

struct Typed {
  FieldType type;
  std::size_t width;  // value bytes after the tag (the length, for blobs)
  std::function<void(SectionReader&)> read;
};

const Typed kTyped[] = {
    {FieldType::kU8, 1, [](SectionReader& s) { s.u8(); }},
    {FieldType::kU32, 4, [](SectionReader& s) { s.u32(); }},
    {FieldType::kU64, 8, [](SectionReader& s) { s.u64(); }},
    {FieldType::kI64, 8, [](SectionReader& s) { s.i64(); }},
    {FieldType::kF64, 8, [](SectionReader& s) { s.f64(); }},
    {FieldType::kStr, 8, [](SectionReader& s) { s.str(); }},
    {FieldType::kBytes, 8, [](SectionReader& s) { s.bytes(); }},
};

/// The message reading `payload` with `t.read` throws.
std::string read_error(const Typed& t, const std::string& payload) {
  return error_of([&] {
    SectionReader s("parity", 1, payload);
    t.read(s);
  });
}

bool is_blob(FieldType t) { return t == FieldType::kStr || t == FieldType::kBytes; }

TEST(ReaderErrors, TypedReadersKeepTheirMessages) {
  for (const Typed& t : kTyped) {
    SCOPED_TRACE(to_string(t.type));
    const std::string want = to_string(t.type);
    // Wrong tag: a field of the neighbouring type, with its full value.
    const FieldType other = t.type == FieldType::kU8 ? FieldType::kU32 : FieldType::kU8;
    EXPECT_EQ(read_error(t, tag(other) + std::string(16, '\0')),
              "snapshot: expected a " + want + " field, found " + to_string(other) +
                  " (schema skew or corruption)");
    // An unknown tag byte, and a tag byte of 0.
    const std::string unknown =
        "snapshot: expected a " + want + " field, found ? (schema skew or corruption)";
    EXPECT_EQ(read_error(t, std::string(1, '\x63') + std::string(16, '\0')), unknown);
    EXPECT_EQ(read_error(t, std::string(17, '\0')), unknown);
    // No tag at all, and a value cut short at every length.
    EXPECT_EQ(read_error(t, ""), kTruncated);
    for (std::size_t have = 0; have < t.width; ++have) {
      std::string payload = tag(t.type);
      payload.append(have, '\x01');
      EXPECT_EQ(read_error(t, payload), kTruncated) << have << " value bytes";
    }
    if (!is_blob(t.type)) continue;
    // A blob length one past the payload, and one far past it.
    const std::string overrun = "snapshot: " + want + " overruns payload";
    EXPECT_EQ(read_error(t, tag(t.type) + le(4, 8) + "abc"), overrun);
    EXPECT_EQ(read_error(t, tag(t.type) + le(~0ull, 8) + "abc"), overrun);
    EXPECT_EQ(read_error(t, tag(t.type) + le(1ull << 31, 8)), overrun);
  }
}

TEST(ReaderErrors, BlobLengthAtTheCeilingIsRejected) {
  // A payload long enough to hold a 2 GiB blob: the ceiling, not the
  // bounds check, must reject it. The mapping is reserved, not committed;
  // only the field header is ever touched.
  constexpr std::size_t kCeiling = std::size_t{1} << 31;
  const std::size_t size = kCeiling + 64;
  void* mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  char* data = static_cast<char*>(mem);
  for (const FieldType type : {FieldType::kStr, FieldType::kBytes}) {
    SCOPED_TRACE(to_string(type));
    const std::string header = tag(type) + le(kCeiling, 8);
    std::memcpy(data, header.data(), header.size());
    EXPECT_EQ(error_of([&] {
                SectionReader s("parity", 1, std::string_view(data, size));
                type == FieldType::kStr ? (void)s.str() : (void)s.bytes();
              }),
              std::string("snapshot: ") + to_string(type) + " overruns payload");
  }
  ::munmap(mem, size);
}

TEST(ReaderErrors, CountAndEndChecksKeepTheirMessages) {
  const std::string payload = tag(FieldType::kU64) + le(9, 8);
  EXPECT_EQ(error_of([&] {
              SectionReader s("parity", 1, payload);
              s.check_count(2, 9);
            }),
            "snapshot: item count overruns payload");
  EXPECT_EQ(error_of([&] {
              SectionReader s("parity", 1, payload);
              s.check_count(1, 0);
            }),
            "snapshot: check_count needs a positive item size");
  EXPECT_EQ(error_of([&] {
              SectionReader s("parity", 1, payload);
              s.require_end();
            }),
            "snapshot: section 'parity' has 9 unread bytes after its last field");
  EXPECT_EQ(error_of([&] {
              SectionReader s("parity", 1, "");
              s.peek_tag();
            }),
            kTruncated);
}

TEST(ReaderErrors, ContainerHeaderChecksKeepTheirMessages) {
  const std::string magic = "SMTYSNP1";
  const std::string version = le(kFormatVersion, 4);
  const auto section = [](std::string_view name, std::uint64_t payload_len) {
    return le(name.size(), 4) + std::string(name) + le(1, 4) + le(payload_len, 8);
  };
  const auto header_error = [](const std::string& bytes) {
    return error_of([&] { Reader r(bytes); });
  };
  EXPECT_EQ(header_error(""), "snapshot: truncated container");
  EXPECT_EQ(header_error("SMTYSNP9" + version + le(0, 4)),
            "snapshot: bad magic (not a SMTYSNP1 snapshot)");
  EXPECT_EQ(header_error(magic + le(2, 4) + le(0, 4)),
            "snapshot: unsupported format version");
  EXPECT_EQ(header_error(magic + version + le(0, 2)), "snapshot: truncated container");
  EXPECT_EQ(header_error(magic + version + le(2, 4) + std::string(16, '\0')),
            "snapshot: section count overruns container");
  EXPECT_EQ(header_error(magic + version + le(1, 4) + le(0, 4) + std::string(12, '\0')),
            "snapshot: section name overruns container");
  EXPECT_EQ(header_error(magic + version + le(1, 4) + le(64, 4) + std::string(12, '\0')),
            "snapshot: section name overruns container");
  EXPECT_EQ(header_error(magic + version + le(1, 4) + section("a", 5) + "abcd"),
            "snapshot: section payload overruns container");
  EXPECT_EQ(header_error(magic + version + le(1, 4) + section("a", 1ull << 31)),
            "snapshot: section payload overruns container");
  const std::string short_length = le(1, 4) + "a" + std::string(11, '\0');
  EXPECT_EQ(header_error(magic + version + le(1, 4) + short_length),
            "snapshot: truncated container");
  EXPECT_EQ(header_error(magic + version + le(2, 4) + section("a", 0) + section("a", 0)),
            "snapshot: duplicate section name");
  EXPECT_EQ(header_error(magic + version + le(1, 4) + section("a", 0) + "x"),
            "snapshot: trailing garbage after last section");
  // The well-formed container those were cut from parses; opening a section
  // of it checks the name and the version.
  const std::string good = magic + version + le(1, 4) + section("a", 0);
  EXPECT_EQ(header_error(good), "(no error)");
  EXPECT_EQ(error_of([&] { Reader(good).section("b", 1); }),
            "snapshot: missing required section 'b'");
  EXPECT_EQ(error_of([&] { Reader(good).section("a", 2); }),
            "snapshot: section 'a' has version 1, this build reads 2");
}

}  // namespace
}  // namespace simty::snapshot
