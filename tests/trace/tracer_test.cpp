#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"
#include "support/corrupt.hpp"

namespace simty::trace {
namespace {

TimePoint at_us(std::int64_t us) { return TimePoint::from_us(us); }

TEST(Tracer, RecordsAllEventKindsInOrder) {
  Tracer t;
  t.span_begin(at_us(10), TraceCategory::kSim, "fire", 2);
  t.instant(at_us(11), TraceCategory::kAlarm, "batch-join", 3);
  t.counter(at_us(12), TraceCategory::kHw, "cpu-locks", 1);
  t.span_end(at_us(13), TraceCategory::kSim, "fire", 2);

  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSpanBegin);
  EXPECT_EQ(events[0].t_us, 10);
  EXPECT_STREQ(events[0].label, "fire");
  EXPECT_EQ(events[1].kind, TraceEventKind::kInstant);
  EXPECT_EQ(events[1].category, TraceCategory::kAlarm);
  EXPECT_EQ(events[2].kind, TraceEventKind::kCounter);
  EXPECT_EQ(events[2].arg, 1);
  EXPECT_EQ(events[3].kind, TraceEventKind::kSpanEnd);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(decode_trace(t.binary()).dropped, 0u);
}

TEST(Tracer, SpanNestingIsTrackedAndUnderflowThrows) {
  Tracer t;
  EXPECT_EQ(t.open_spans(), 0);
  t.span_begin(at_us(0), TraceCategory::kSim, "outer");
  t.span_begin(at_us(1), TraceCategory::kSim, "inner");
  EXPECT_EQ(t.open_spans(), 2);
  t.span_end(at_us(2), TraceCategory::kSim, "inner");
  t.span_end(at_us(3), TraceCategory::kSim, "outer");
  EXPECT_EQ(t.open_spans(), 0);
  EXPECT_THROW(t.span_end(at_us(4), TraceCategory::kSim, "outer"),
               std::logic_error);
}

TEST(Tracer, ArenaGrowsAcrossChunkBoundaries) {
  Tracer t;
  const std::size_t n = 16384 + 100;  // one chunk plus change
  for (std::size_t i = 0; i < n; ++i) {
    t.instant(at_us(static_cast<std::int64_t>(i)), TraceCategory::kSim, "tick",
              static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(t.size(), n);
  const std::vector<TraceEvent> events = t.snapshot();
  EXPECT_EQ(events.front().arg, 0);
  EXPECT_EQ(events.back().arg, static_cast<std::int64_t>(n - 1));
}

TEST(Tracer, ClearRetainsStorageDropsEvents) {
  Tracer t;
  t.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  t.span_begin(at_us(2), TraceCategory::kSim, "open");
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.open_spans(), 0);
  t.instant(at_us(3), TraceCategory::kSim, "tick", 3);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Tracer, MacrosAreNoOpsWithoutAnInstalledTracer) {
  ASSERT_EQ(current(), nullptr);
  // Must not crash or record anywhere.
  SIMTY_TRACE_SPAN_BEGIN(at_us(0), TraceCategory::kSim, "x", 0);
  SIMTY_TRACE_SPAN_END(at_us(1), TraceCategory::kSim, "x", 0);
  SIMTY_TRACE_INSTANT(at_us(2), TraceCategory::kSim, "x", 0);
  SIMTY_TRACE_COUNTER(at_us(3), TraceCategory::kSim, "x", 0);
}

TEST(Tracer, TraceScopeInstallsAndRestores) {
  Tracer outer_t, inner_t;
  ASSERT_EQ(current(), nullptr);
  {
    TraceScope outer(&outer_t);
    EXPECT_EQ(current(), &outer_t);
    SIMTY_TRACE_INSTANT(at_us(1), TraceCategory::kSim, "outer", 0);
    {
      TraceScope inner(&inner_t);
      EXPECT_EQ(current(), &inner_t);
      SIMTY_TRACE_INSTANT(at_us(2), TraceCategory::kSim, "inner", 0);
    }
    EXPECT_EQ(current(), &outer_t);
  }
  EXPECT_EQ(current(), nullptr);
#if !defined(SIMTY_TRACE_DISABLED)
  EXPECT_EQ(outer_t.size(), 1u);
  EXPECT_EQ(inner_t.size(), 1u);
  EXPECT_STREQ(outer_t.snapshot()[0].label, "outer");
#endif
}

TEST(Tracer, ChromeJsonGolden) {
  Tracer t;
  t.span_begin(at_us(5), TraceCategory::kSim, "fire", 2);
  t.instant(at_us(6), TraceCategory::kNet, "rrc-state", 1);
  t.counter(at_us(7), TraceCategory::kHw, "cpu-locks", 3);
  t.span_end(at_us(8), TraceCategory::kSim, "fire", 2);
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"fire\",\"cat\":\"sim\",\"ph\":\"B\",\"ts\":5,"
      "\"pid\":0,\"tid\":0,\"args\":{\"arg\":2}},\n"
      "{\"name\":\"rrc-state\",\"cat\":\"net\",\"ph\":\"I\",\"s\":\"t\","
      "\"ts\":6,\"pid\":0,\"tid\":0,\"args\":{\"arg\":1}},\n"
      "{\"name\":\"cpu-locks\",\"cat\":\"hw\",\"ph\":\"C\",\"ts\":7,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":3}},\n"
      "{\"name\":\"fire\",\"cat\":\"sim\",\"ph\":\"E\",\"ts\":8,"
      "\"pid\":0,\"tid\":0,\"args\":{\"arg\":2}}\n"
      "]}\n";
  EXPECT_EQ(t.chrome_json(), expected);
}

TEST(Tracer, ChromeJsonEscapesHostileLabels) {
  Tracer t;
  t.instant(at_us(0), TraceCategory::kSim, "quo\"te\\slash\nline", 0);
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("quo\\\"te\\\\slash\\nline"), std::string::npos);
}

TEST(Tracer, BinaryRoundTripsThroughDecode) {
  Tracer t;
  t.span_begin(at_us(-5), TraceCategory::kExp, "run", 42);  // negative times ok
  t.instant(at_us(100), TraceCategory::kAlarm, "batch-create", 7);
  t.instant(at_us(200), TraceCategory::kAlarm, "batch-create", 8);
  t.span_end(at_us(300), TraceCategory::kExp, "run", 42);

  const DecodedTrace d = decode_trace(t.binary());
  // Labels dedup by content in first-appearance order.
  ASSERT_EQ(d.labels.size(), 2u);
  EXPECT_EQ(d.labels[0], "run");
  EXPECT_EQ(d.labels[1], "batch-create");
  ASSERT_EQ(d.events.size(), 4u);
  EXPECT_EQ(d.events[0].t_us, -5);
  EXPECT_EQ(d.events[0].arg, 42);
  EXPECT_EQ(d.events[0].kind, TraceEventKind::kSpanBegin);
  EXPECT_EQ(d.events[0].category, TraceCategory::kExp);
  EXPECT_EQ(d.label_of(d.events[1]), "batch-create");
  EXPECT_EQ(d.events[3].kind, TraceEventKind::kSpanEnd);
  EXPECT_EQ(d.dropped, 0u);
}

TEST(Tracer, BinaryIsIdenticalForIdenticalEventSequences) {
  // Labels with equal content but distinct storage must serialize the same:
  // the export dedups by content, never by pointer.
  const std::string heap_label = "fire";
  Tracer a, b;
  a.instant(at_us(1), TraceCategory::kSim, "fire", 0);
  b.instant(at_us(1), TraceCategory::kSim, heap_label.c_str(), 0);
  EXPECT_EQ(a.binary(), b.binary());
}

TEST(Tracer, DecodeRejectsMalformedInput) {
  Tracer t;
  t.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  const std::string good = t.binary();

  EXPECT_THROW(decode_trace(""), std::runtime_error);
  EXPECT_THROW(decode_trace("NOTATRACE"), std::runtime_error);
  EXPECT_THROW(decode_trace(good.substr(0, good.size() - 1)), std::runtime_error);
  EXPECT_THROW(decode_trace(good + "x"), std::runtime_error);

  // Corrupt the kind byte of the only record (offset: trailing 8 arg bytes
  // + 1 category byte + 1 kind byte from the end).
  std::string bad_kind = good;
  bad_kind[bad_kind.size() - 10] = 9;
  EXPECT_THROW(decode_trace(bad_kind), std::runtime_error);
  std::string bad_cat = good;
  bad_cat[bad_cat.size() - 9] = 9;
  EXPECT_THROW(decode_trace(bad_cat), std::runtime_error);
}

// Overwrites `width` little-endian bytes of `bytes` at `at` with `v`.
std::string with_le(std::string bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
  return bytes;
}

// Decoding `bytes` throws std::runtime_error naming `field`.
void expect_rejected_naming(const std::string& bytes, const std::string& field) {
  try {
    decode_trace(bytes);
    ADD_FAILURE() << "decoded a hostile " << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Tracer, DecodeRejectsCountsTheInputCannotHold) {
  Tracer t;
  t.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  const std::string good = t.binary();
  // label_count follows the 8-byte magic; a u32 count must not reach
  // reserve() when the input is too short to hold that many labels.
  expect_rejected_naming(with_le(good, 8, 0xffffffffu, 4), "label_count");
  // event_count sits before the one 22-byte record. 2^63 + 1 records times
  // 22 bytes wraps a u64 to exactly 22, which a multiplying check accepts.
  const std::size_t event_count_at = good.size() - 22 - 8;
  expect_rejected_naming(with_le(good, event_count_at, (1ull << 63) + 1, 8),
                         "event_count");
}

TEST(Tracer, DecodeSurvivesHostileInputSweep) {
  // Every mangled trace either decodes or is rejected with
  // std::runtime_error, never undefined behaviour or a huge allocation; the
  // sanitizer CI job runs this same sweep.
  Tracer t;
  t.span_begin(at_us(0), TraceCategory::kExp, "run", 1);
  for (int i = 0; i < 6; ++i) {
    t.instant(at_us(10 * i), TraceCategory::kAlarm, i % 2 == 0 ? "batch" : "fire", i);
  }
  t.counter(at_us(70), TraceCategory::kSim, "queue", 3);
  t.span_end(at_us(80), TraceCategory::kExp, "run", 1);
  const std::string good = t.binary();
  Rng rng(0x7ace, 3);
  int rejected = 0, survived = 0;
  for (int round = 0; round < 4000; ++round) {
    try {
      survived += static_cast<int>(!decode_trace(support::corrupt(good, rng)).events.empty());
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 100);
  EXPECT_GT(survived, 10);
}

TEST(Tracer, DiffReportsEqualTraces) {
  Tracer a, b;
  for (Tracer* t : {&a, &b}) {
    t->instant(at_us(1), TraceCategory::kSim, "tick", 1);
    t->instant(at_us(2), TraceCategory::kSim, "tick", 2);
  }
  const TraceDiff d = diff_traces(decode_trace(a.binary()), decode_trace(b.binary()));
  EXPECT_TRUE(d.equal);
  EXPECT_FALSE(d.first_divergence.has_value());
  EXPECT_NE(d.summary.find("identical"), std::string::npos);
}

TEST(Tracer, DiffPinpointsFirstDivergentEvent) {
  Tracer a, b;
  a.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  a.instant(at_us(2), TraceCategory::kSim, "tick", 2);
  a.instant(at_us(3), TraceCategory::kSim, "tick", 3);
  b.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  b.instant(at_us(2), TraceCategory::kSim, "tick", 99);  // diverges here
  b.instant(at_us(3), TraceCategory::kSim, "tick", 3);
  const TraceDiff d = diff_traces(decode_trace(a.binary()), decode_trace(b.binary()));
  EXPECT_FALSE(d.equal);
  ASSERT_TRUE(d.first_divergence.has_value());
  EXPECT_EQ(*d.first_divergence, 1u);
  EXPECT_NE(d.summary.find("arg=2"), std::string::npos);
  EXPECT_NE(d.summary.find("arg=99"), std::string::npos);
}

TEST(Tracer, DiffReportsLengthMismatch) {
  Tracer a, b;
  a.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  b.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  b.instant(at_us(2), TraceCategory::kSim, "tick", 2);
  const TraceDiff d = diff_traces(decode_trace(a.binary()), decode_trace(b.binary()));
  EXPECT_FALSE(d.equal);
  ASSERT_TRUE(d.first_divergence.has_value());
  EXPECT_EQ(*d.first_divergence, 1u);
  EXPECT_NE(d.summary.find("b has 1 extra"), std::string::npos);
}

TEST(Tracer, DiffReportsDropCountMismatch) {
  // A tracer never drops, but the format carries the count: a trace from
  // another writer that did must not compare equal.
  Tracer t;
  t.instant(at_us(2), TraceCategory::kSim, "tick", 2);
  const DecodedTrace a = decode_trace(t.binary());
  DecodedTrace b = a;
  b.dropped = 1;
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.equal);
  EXPECT_NE(d.summary.find("drop counts differ"), std::string::npos);
}

TEST(Tracer, SaveAndLoadBinaryFile) {
  Tracer t;
  t.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  const std::string path = ::testing::TempDir() + "/simty_trace_test.bin";
  snapshot::write_file(path, t.binary());
  const DecodedTrace d = load_trace(path);
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.label_of(d.events[0]), "tick");
  std::remove(path.c_str());
  EXPECT_THROW(load_trace("/nonexistent/simty.trace"), std::runtime_error);
}

}  // namespace
}  // namespace simty::trace
