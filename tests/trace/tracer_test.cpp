#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"
#include "support/corrupt.hpp"
#include "support/section_edit.hpp"

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
  EXPECT_EQ(decode_trace(t.binary()).events.size(), 4u);
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

// The file of a one-event trace, and the layout of its one section's
// payload: the label table (a u64 count, then tagged strings), open_spans
// (i64), the event count (u64), then per event t_us (i64), label (u32),
// kind (u8), category (u8) and arg (i64), each field behind its tag byte.
std::string one_tick() {
  Tracer t;
  t.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  return t.binary();
}

// Value offsets in that payload (each after its field's tag byte), and the
// size of one tagged event record.
constexpr std::size_t kLabelCountAt = 1;
constexpr std::size_t kEventCountAt = 9 + (1 + 8 + 4) + 9 + 1;  // "tick", open_spans
constexpr std::size_t kEventBytes = 9 + 5 + 2 + 2 + 9;

// `trace` with `edit(payload)` applied to its tracer section.
template <typename Edit>
std::string edited(const std::string& trace, Edit&& edit) {
  return support::edit_section(trace, "tracer", std::forward<Edit>(edit));
}

// Overwrites `width` little-endian bytes of `bytes` at `at` with `v`.
void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
}

// Decoding `bytes` throws std::logic_error containing `part`.
void expect_rejected(const std::string& bytes, const std::string& part) {
  try {
    decode_trace(bytes);
    ADD_FAILURE() << "decoded; wanted an error with " << part;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(part), std::string::npos) << e.what();
  }
}

TEST(Tracer, DecodeRejectsMalformedInput) {
  const std::string good = one_tick();
  ASSERT_EQ(decode_trace(good).events.size(), 1u);

  expect_rejected("", "truncated container");
  expect_rejected("NOTATRACE", "bad magic");
  expect_rejected(good.substr(0, good.size() - 1), "payload overruns container");
  expect_rejected(good + "x", "trailing garbage");

  // The only event's kind and category are its last u8 fields, before the
  // tagged arg; 9 names neither.
  expect_rejected(edited(good, [](std::string& p) { p[p.size() - 12] = 9; }),
                  "field 'events.kind': snapshot: unknown enumerator");
  expect_rejected(edited(good, [](std::string& p) { p[p.size() - 10] = 9; }),
                  "field 'events.category': snapshot: unknown enumerator");
}

TEST(Tracer, DecodeRejectsCountsTheInputCannotHold) {
  const std::string good = one_tick();
  // A count the unread payload cannot hold is rejected, naming its field,
  // before it sizes an allocation.
  expect_rejected(edited(good,
                         [](std::string& p) {
                           ASSERT_EQ(p[kLabelCountAt - 1],
                                     static_cast<char>(snapshot::FieldType::kU64));
                           put_le(p, kLabelCountAt, ~0ull, 8);
                         }),
                  "section 'tracer' field 'labels': snapshot: item count overruns");
  expect_rejected(edited(good,
                         [](std::string& p) {
                           ASSERT_EQ(p.size(), kEventCountAt + 8 + kEventBytes);
                           put_le(p, kEventCountAt, (1ull << 63) + 1, 8);
                         }),
                  "section 'tracer' field 'events': snapshot: item count overruns");
}

TEST(Tracer, DecodeRejectsLabelIndexOutOfRange) {
  // The event's label (a tagged u32) follows its tagged t_us.
  const std::string bad = edited(one_tick(), [](std::string& p) {
    const std::size_t label_at = kEventCountAt + 8 + 9;
    ASSERT_EQ(p[label_at], static_cast<char>(snapshot::FieldType::kU32));
    put_le(p, label_at + 1, 1, 4);  // the table holds label 0 only
  });
  expect_rejected(bad, "trace: label index out of range");
  // Tracer::restore shares the check.
  const snapshot::Reader r(bad);
  snapshot::SectionReader s = r.section_at(0);
  Tracer t;
  EXPECT_THROW(t.restore(s), std::logic_error);
}

TEST(Tracer, DecodeRejectsTheRetiredTraceFormat) {
  // A trace in the format binary() wrote before it became a snapshot
  // container: "SMTYTRC1", the label table, a drop count, then 22-byte
  // records.
  std::string old = "SMTYTRC1";
  old += std::string("\x01\0\0\0", 4) + std::string("\x04\0\0\0", 4) + "tick";
  old += std::string(8, '\0') + std::string("\x01\0\0\0\0\0\0\0", 8);
  old += std::string("\x01\0\0\0\0\0\0\0", 8) + std::string(4, '\0') +
         std::string("\x02\0", 2) + std::string("\x01\0\0\0\0\0\0\0", 8);
  ASSERT_EQ(old.size(), 8u + 4 + 8 + 8 + 8 + 22);
  expect_rejected(old, "snapshot: bad magic");
}

TEST(Tracer, DecodeSurvivesHostileInputSweep) {
  // Every mangled trace either decodes or is rejected with
  // std::logic_error, never undefined behaviour or a huge allocation; the
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
    } catch (const std::logic_error&) {
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
