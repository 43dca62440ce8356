// Observability layer tests (ISSUE 9): registry cell semantics, label
// sorting, log-linear histogram bucket edges, sample determinism, trace
// ring bounds under a 100k-event flood, key sampling, and the Chrome
// trace-event exporter's structure.
#include <gtest/gtest.h>

#include <string>

#include "obs/registry.h"
#include "obs/trace.h"

using namespace atum;
using namespace atum::obs;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// A level that moves both ways is a probe over the field that holds it.
TEST(RegistryTest, CountersAndProbes) {
  Registry reg;
  Counter& c = reg.counter("c");
  c.inc();
  c.inc(41);
  EXPECT_EQ(reg.value("c"), 42u);

  std::uint64_t level = 7;
  reg.probe("g", {}, [&level] { return level; });
  level -= 3;
  EXPECT_EQ(reg.value("g"), 4u);

  std::uint64_t backing = 0;
  reg.probe("p", {}, [&backing] { return backing; });
  backing = 99;
  EXPECT_EQ(reg.value("p"), 99u);  // polled at read time, not registration

  EXPECT_EQ(reg.value("absent"), 0u);
  EXPECT_EQ(reg.cell_count(), 3u);
}

TEST(RegistryTest, SameNameSameCellAndLabelsDistinguish) {
  Registry reg;
  Counter& a = reg.counter("hits", {{"class", "gossip"}});
  Counter& b = reg.counter("hits", {{"class", "walk"}});
  Counter& a2 = reg.counter("hits", {{"class", "gossip"}});
  EXPECT_EQ(&a, &a2);  // shared cell: system-wide totals across engines
  EXPECT_NE(&a, &b);
  a.inc();
  a.inc();
  b.inc();
  EXPECT_EQ(reg.value("hits", {{"class", "gossip"}}), 2u);
  EXPECT_EQ(reg.value("hits", {{"class", "walk"}}), 1u);
}

TEST(RegistryTest, LabelOrderIsNormalized) {
  Registry reg;
  Counter& a = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(reg.value("x", {{"b", "2"}, {"a", "1"}}), 1u);
}

TEST(RegistryTest, SampleIsSortedAndDeterministic) {
  // Register in scrambled order; the sample must come out sorted by
  // (name, labels) with the caller's sim-time stamp.
  Registry reg;
  reg.counter("zeta").inc(3);
  reg.probe("alpha", {}, [] { return 5; });
  reg.counter("mid", {{"k", "2"}}).inc();
  reg.counter("mid", {{"k", "10"}}).inc(2);
  Sample s = reg.sample(123456);
  EXPECT_EQ(s.at, 123456);
  ASSERT_EQ(s.cells.size(), 4u);
  EXPECT_EQ(s.cells[0].name, "alpha");
  EXPECT_EQ(s.cells[0].value, 5);
  EXPECT_EQ(s.cells[1].name, "mid");  // "10" < "2" lexicographically
  EXPECT_EQ(s.cells[1].labels, (Labels{{"k", "10"}}));
  EXPECT_EQ(s.cells[2].labels, (Labels{{"k", "2"}}));
  EXPECT_EQ(s.cells[3].name, "zeta");

  Sample again = reg.sample(123456);
  ASSERT_EQ(again.cells.size(), s.cells.size());
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    EXPECT_EQ(again.cells[i].name, s.cells[i].name);
    EXPECT_EQ(again.cells[i].value, s.cells[i].value);
  }
}

TEST(RegistryTest, SampleValueReadsWhatRegistryValueReads) {
  Registry reg;
  reg.counter("c").inc(42);
  std::uint64_t backing = 99;
  reg.probe("p", {}, [&backing] { return backing; });
  reg.histogram("h").record(5);
  reg.histogram("h").record(700);
  reg.counter("x", {{"a", "1"}, {"b", "2"}}).inc(3);
  reg.counter("x", {{"a", "2"}}).inc(5);
  const Sample s = reg.sample(0);
  for (const char* name : {"c", "p", "h", "absent"}) {
    EXPECT_EQ(s.value(name), reg.value(name)) << name;
  }
  EXPECT_EQ(s.value("p"), 99u);
  EXPECT_EQ(s.value("h"), 2u);  // a histogram reads its count
  for (const Labels& labels : {Labels{{"a", "1"}, {"b", "2"}}, Labels{{"b", "2"}, {"a", "1"}},
                               Labels{{"a", "2"}}, Labels{{"a", "3"}}, Labels{}}) {
    EXPECT_EQ(s.value("x", labels), reg.value("x", labels));
  }
  EXPECT_EQ(s.value("x", {{"b", "2"}, {"a", "1"}}), 3u);
  EXPECT_EQ(s.value("x"), 0u);  // the unlabelled name is a different, absent cell
  EXPECT_EQ(s.value("absent"), 0u);

  backing = 7;  // the snapshot keeps what the probe read at sample() time
  EXPECT_EQ(s.value("p"), 99u);
  EXPECT_EQ(reg.value("p"), 7u);
}

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramTest, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    // 0..3 are the singleton buckets; 4..7 sit in the first octave whose
    // sub-bucket width is 1, so they are exact too.
    EXPECT_EQ(Histogram::bucket_lower_bound(Histogram::bucket_index(v)), v) << v;
  }
}

TEST(HistogramTest, BucketEdgesAreExactLowerBounds) {
  // Every bucket's lower bound maps back to that bucket, and the value
  // just below it maps to the previous bucket.
  for (std::size_t idx = 1; idx < Histogram::kBucketCount; ++idx) {
    const std::uint64_t lo = Histogram::bucket_lower_bound(idx);
    EXPECT_EQ(Histogram::bucket_index(lo), idx) << "lower bound of " << idx;
    EXPECT_EQ(Histogram::bucket_index(lo - 1), idx - 1) << "below " << idx;
  }
  EXPECT_EQ(Histogram::bucket_index(~0ULL), Histogram::kBucketCount - 1);
}

TEST(HistogramTest, OctavesSplitIntoFourLinearSubBuckets) {
  // Octave [8,16): widths of 2 -> buckets at 8, 10, 12, 14.
  EXPECT_EQ(Histogram::bucket_index(8), Histogram::bucket_index(9));
  EXPECT_NE(Histogram::bucket_index(9), Histogram::bucket_index(10));
  EXPECT_EQ(Histogram::bucket_lower_bound(Histogram::bucket_index(11)), 10u);
  EXPECT_EQ(Histogram::bucket_lower_bound(Histogram::bucket_index(15)), 14u);
}

TEST(HistogramTest, RecordAccumulatesCountSumAndBuckets) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  for (std::uint64_t v : {0ULL, 1ULL, 1ULL, 9ULL, 1000ULL}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1011u);
  EXPECT_EQ(h.bucket(Histogram::bucket_index(1)), 2u);

  Sample s = reg.sample(0);
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_EQ(s.cells[0].kind, CellKind::kHistogram);
  EXPECT_EQ(s.cells[0].value, 5);
  EXPECT_EQ(s.cells[0].sum, 1011u);
  ASSERT_EQ(s.cells[0].buckets.size(), 4u);  // 0, 1, [8,10), [896,1024)
  EXPECT_EQ(s.cells[0].buckets[0], (std::pair<std::uint64_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(s.cells[0].buckets[1], (std::pair<std::uint64_t, std::uint64_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record(1, 0, TracePoint::kSend, 42);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.retained(), 0u);
  EXPECT_FALSE(t.keeps(42));
}

TEST(TracerTest, RingBoundsHoldUnderFlood) {
  // 100k events across 4 nodes with 256-slot rings: recorded counts them
  // all, retained stays at 4 * 256, and the survivors are the newest.
  Tracer t;
  t.enable(/*ring_capacity=*/256);
  constexpr std::uint64_t kEvents = 100'000;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    t.record(static_cast<std::int64_t>(i), static_cast<NodeId>(i % 4),
             TracePoint::kDeliver, i, i);
  }
  EXPECT_EQ(t.recorded(), kEvents);
  EXPECT_EQ(t.retained(), 4u * 256u);
  auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u * 256u);
  // Sorted by (at, seq) and all from the flood's tail.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);
  }
  EXPECT_GE(static_cast<std::uint64_t>(events.front().at), kEvents - 4 * 256);
}

TEST(TracerTest, KeySamplingDropsNonMultiples) {
  Tracer t;
  t.enable(64, /*key_sample=*/4);
  EXPECT_TRUE(t.keeps(8));
  EXPECT_FALSE(t.keeps(9));
  for (std::uint64_t k = 0; k < 100; ++k) t.record(1, 0, TracePoint::kSend, k);
  EXPECT_EQ(t.recorded(), 25u);  // keys 0,4,...,96
}

TEST(TracerTest, ChromeJsonHasSpansInstantsAndSummary) {
  Tracer t;
  t.enable(64);
  // One broadcast: sent on node 1, relayed by node 1 (fan-out 5), vouched
  // and delivered on node 2.
  const std::uint64_t key = 0xabcdef12345678ULL;
  t.record(10, 1, TracePoint::kSend, key, 1);
  t.record(20, 1, TracePoint::kRelay, key, 5, 2);
  t.record(30, 2, TracePoint::kVouch, key, 3);
  t.record(31, 2, TracePoint::kDeliver, key, 1);
  std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // per-(key,node) span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant events
  EXPECT_NE(json.find("\"name\":\"send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"deliver\""), std::string::npos);
  EXPECT_NE(json.find("\"atum_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"relay_fanout\""), std::string::npos);
  EXPECT_NE(json.find("\"hop_count\""), std::string::npos);
  // Deterministic: same events => same bytes.
  EXPECT_EQ(json, t.to_chrome_json());
}

TEST(TracerTest, TracePointNamesAreStable) {
  EXPECT_STREQ(trace_point_name(TracePoint::kSend), "send");
  EXPECT_STREQ(trace_point_name(TracePoint::kCoalesce), "coalesce");
  EXPECT_STREQ(trace_point_name(TracePoint::kRelay), "relay");
  EXPECT_STREQ(trace_point_name(TracePoint::kVouch), "vouch");
  EXPECT_STREQ(trace_point_name(TracePoint::kDeliver), "deliver");
  EXPECT_STREQ(trace_point_name(TracePoint::kPropose), "propose");
  EXPECT_STREQ(trace_point_name(TracePoint::kPrePrepare), "pre_prepare");
  EXPECT_STREQ(trace_point_name(TracePoint::kPrepare), "prepare");
  EXPECT_STREQ(trace_point_name(TracePoint::kCommit), "commit");
  EXPECT_STREQ(trace_point_name(TracePoint::kDecide), "decide");
}
