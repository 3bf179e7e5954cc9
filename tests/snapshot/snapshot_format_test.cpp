// Snapshot container format: field-level round-trips, version and tag
// discipline, the generic decode/diff used by tools/snapshot_diff, and —
// the hostile-input satellite — a randomized-corruption sweep asserting
// that every mangled container is either decoded or rejected with
// std::logic_error, never undefined behavior. The suite runs under the
// sanitizer CI job, which is what turns "never UB" from a comment into a
// checked property.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"
#include "support/corrupt.hpp"

namespace simty::snapshot {
namespace {

std::string sample_snapshot() {
  Writer w;
  w.begin_section("alpha", 3);
  w.u8(7);
  w.u32(123456);
  w.u64(0xdeadbeefcafef00dull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.str("hello snapshot");
  w.bytes(std::string("\x00\x01\x02\xff", 4));
  w.end_section();
  w.begin_section("beta", 1);
  w.u64(9);
  w.end_section();
  return w.finish();
}

TEST(SnapshotFormat, EveryFieldTypeRoundTripsExactly) {
  const Reader reader(sample_snapshot());
  ASSERT_TRUE(reader.has_section("alpha"));
  ASSERT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));
  SectionReader s = reader.section("alpha", 3);
  EXPECT_EQ(s.u8(), 7u);
  EXPECT_EQ(s.u32(), 123456u);
  EXPECT_EQ(s.u64(), 0xdeadbeefcafef00dull);
  EXPECT_EQ(s.i64(), -42);
  EXPECT_EQ(s.f64(), 3.141592653589793);
  EXPECT_TRUE(s.boolean());
  EXPECT_EQ(s.str(), "hello snapshot");
  EXPECT_EQ(s.bytes(), std::string("\x00\x01\x02\xff", 4));
  EXPECT_TRUE(s.at_end());
}

TEST(SnapshotFormat, WriterBytesArePinned) {
  // The container bytes of the edge cases: a section with no fields,
  // zero-length str and bytes fields, and more than two sections. Pinned
  // before the writer was rebuilt around one output buffer.
  Writer w;
  w.begin_section("empty", 0);
  w.end_section();
  w.begin_section("blobs", 7);
  w.str("");
  w.bytes("");
  w.str("x");
  w.end_section();
  w.begin_section("scalars", 0xfedcba98u);
  w.u8(0xff);
  w.u32(0x89abcdefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-1);
  w.f64(-0.0);
  w.end_section();
  const std::string bytes = w.finish();
  EXPECT_EQ(bytes.size(), 143u);
  EXPECT_EQ(common::fnv1a64(bytes), 14296991597991435597ull);
  EXPECT_EQ(common::fnv1a64(sample_snapshot()), 11545739757090971911ull);
}

TEST(SnapshotFormat, TagDisciplineCatchesSchemaSkew) {
  const Reader reader(sample_snapshot());
  SectionReader s = reader.section("alpha", 3);
  EXPECT_EQ(s.peek_tag(), static_cast<std::uint8_t>(FieldType::kU8));
  // Reading a u64 where a u8 was written fails loudly instead of
  // desynchronizing the stream.
  EXPECT_THROW(s.u64(), std::logic_error);
}

TEST(SnapshotFormat, VersionMismatchIsRejected) {
  const Reader reader(sample_snapshot());
  EXPECT_THROW(reader.section("alpha", 2), std::logic_error);
  EXPECT_THROW(reader.section("missing", 1), std::logic_error);
}

TEST(SnapshotFormat, CheckCountGuardsHostileAllocationSizes) {
  const Reader reader(sample_snapshot());
  SectionReader s = reader.section("beta", 1);
  // One u64 field (9 wire bytes) remains; a claimed count of a million
  // 9-byte items cannot fit and must be rejected before any reserve.
  EXPECT_THROW(s.check_count(1u << 20, 9), std::logic_error);
  s.check_count(0, 9);  // zero items always fit
}

TEST(SnapshotFormat, DecodeAndDiffNameTheFirstDivergence) {
  const DecodedSnapshot a = decode_snapshot(sample_snapshot());
  ASSERT_EQ(a.sections.size(), 2u);
  EXPECT_EQ(a.sections[0].name, "alpha");
  EXPECT_EQ(a.sections[0].version, 3u);
  ASSERT_EQ(a.sections[0].fields.size(), 8u);

  EXPECT_TRUE(diff_snapshots(a, a).equal);

  Writer w;
  w.begin_section("alpha", 3);
  w.u8(7);
  w.u32(999999);  // diverges at field #2
  w.end_section();
  const SnapshotDiff diff = diff_snapshots(a, decode_snapshot(w.finish()));
  EXPECT_FALSE(diff.equal);
  EXPECT_NE(diff.summary.find("alpha"), std::string::npos);
}

TEST(SnapshotFormat, FileRoundTripAndAtomicWrite) {
  const std::string path = ::testing::TempDir() + "snapshot_format_test.snap";
  const std::string bytes = sample_snapshot();
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  // Overwrite via the atomic path: the rename replaces, never appends.
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  std::remove(path.c_str());
  EXPECT_THROW(read_file(path), std::runtime_error);
}

TEST(SnapshotFormat, WriteFailureThrowsNamingThePath) {
  // Every file a tool writes goes through write_file: a path that cannot
  // be opened and a device that takes no bytes are both errors.
  for (const std::string path : {"/nonexistent-dir-simty/out.csv", "/dev/full"}) {
    try {
      write_file(path, "bytes");
      ADD_FAILURE() << path << " written";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
}

TEST(SnapshotFormat, ObviousMalformationsAreRejected) {
  const std::string good = sample_snapshot();
  EXPECT_THROW(Reader(""), std::logic_error);
  EXPECT_THROW(Reader("SMTYSNP9" + good.substr(8)), std::logic_error);
  EXPECT_THROW(Reader(good.substr(0, 10)), std::logic_error);
  EXPECT_THROW(Reader(good + "trailing"), std::logic_error);
}

TEST(SnapshotFormat, RandomizedCorruptionNeverEscapesTheChecks) {
  // Fuzz-style sweep: mangle a real container thousands of ways — byte
  // flips, multi-byte stomps, truncations, length-field inflations — and
  // require every outcome to be "decoded fine" or "std::logic_error".
  // Anything else (crash, hang, other exception type) fails the test; UB
  // is caught by the sanitizer job running this same sweep.
  const std::string good = sample_snapshot();
  Rng rng(0xf02d, 17);
  int rejected = 0, survived = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::string bytes = support::corrupt(good, rng);
    try {
      const DecodedSnapshot decoded = decode_snapshot(bytes);
      // Data-byte corruption can still be a well-formed container;
      // decoding it is the acceptable outcome.
      survived += static_cast<int>(!decoded.sections.empty());
    } catch (const std::logic_error&) {
      ++rejected;  // the clean rejection path
    }
  }
  // The sweep must exercise both outcomes, or the corruptions are too
  // tame / too wild to mean anything.
  EXPECT_GT(rejected, 100);
  EXPECT_GT(survived, 10);
}

}  // namespace
}  // namespace simty::snapshot
