// Scenario engine tests: spec validation, driver mechanics on small
// systems, determinism of the JSON report (byte-identical per seed), and
// the fault primitives' observable effects (partition -> delivery drop ->
// recovery at least to pre-partition levels after heal; flash crowds
// joining; correlated group kills sparing survivors; Byzantine conversion
// flipping live behavior).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "scenario/driver.h"
#include "scenario/presets.h"
#include "scenario/report.h"
#include "scenario/spec.h"

using namespace atum;
using namespace atum::scenario;

namespace {

// A compact baseline spec that runs in well under a second: async engine,
// no signature verification, light broadcast load.
ScenarioSpec small_spec(std::size_t nodes = 60, std::uint64_t seed = 7) {
  ScenarioSpec s;
  s.name = "test";
  s.nodes = nodes;
  s.seed = seed;
  s.params.hc = 3;
  s.params.rwl = 4;
  s.params.gmin = 7;
  s.params.gmax = 14;
  s.params.engine = smr::EngineKind::kAsync;
  s.params.heartbeat_period = seconds(10.0);
  s.params.verify_signatures = false;
  s.relay_cycles = {0, 1};
  s.drain = seconds(10.0);
  return s;
}

Phase bcast_phase(const char* name, double per_second = 0.5,
                  DurationMicros duration = seconds(20.0)) {
  Phase p;
  p.name = name;
  p.duration = duration;
  p.broadcasts.per_second = per_second;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec validation
// ---------------------------------------------------------------------------

TEST(ScenarioSpecTest, ValidSpecPasses) {
  ScenarioSpec s = small_spec();
  s.phases = {bcast_phase("only")};
  EXPECT_NO_THROW(s.validate());
}

TEST(ScenarioSpecTest, RejectsNonsense) {
  ScenarioSpec s = small_spec();
  EXPECT_THROW(s.validate(), std::invalid_argument);  // no phases

  s.phases = {bcast_phase("a"), bcast_phase("a")};
  EXPECT_THROW(s.validate(), std::invalid_argument);  // duplicate names

  s.phases = {bcast_phase("a")};
  s.phases[0].duration = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);  // empty phase

  s.phases = {bcast_phase("a")};
  s.phases[0].churn.joins_per_minute = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);  // negative rate

  s.phases = {bcast_phase("a")};
  s.phases[0].broadcasts.payload_bytes = 8;  // smaller than the header
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s.phases = {bcast_phase("a")};
  PartitionSplit split;
  split.minority_fraction = 1.5;
  s.phases[0].partition = split;
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s.phases = {bcast_phase("a")};
  Expectation e;
  e.phase = "missing";
  s.expectations = {e};
  EXPECT_THROW(s.validate(), std::invalid_argument);  // unknown phase

  s.expectations.clear();
  s.relay_cycles = {99};
  EXPECT_THROW(s.validate(), std::invalid_argument);  // cycle out of range
}

TEST(ScenarioSpecTest, BoundsTheTimeSeriesPoints) {
  ScenarioSpec s = small_spec();  // 10 s drain
  s.phases = {bcast_phase("only", 0.5, seconds(20.0))};
  // 30 s of phases and drain: 300 us gives exactly the most points allowed.
  s.metrics_interval = seconds(30.0) / ScenarioSpec::kMaxTimeSeriesPoints;
  ASSERT_EQ(s.metrics_interval, 300);
  EXPECT_NO_THROW(s.validate());
  s.metrics_interval = 299;  // one more point
  try {
    s.validate();
    ADD_FAILURE() << "a 299 us interval validated";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("the smallest interval allowed is 300us"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpecTest, AllPresetsValidateAndAreListed) {
  auto presets = preset_list();
  ASSERT_GE(presets.size(), 5u);
  for (const auto& info : presets) {
    ScenarioSpec s = make_preset(info.name);
    EXPECT_EQ(s.name, info.name);
    EXPECT_NO_THROW(s.validate()) << info.name;
    EXPECT_GT(s.phases.size(), 0u) << info.name;
  }
  EXPECT_THROW(make_preset("no_such_preset"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Driver basics
// ---------------------------------------------------------------------------

TEST(ScenarioDriverTest, SteadyBroadcastDeliversEverywhere) {
  ScenarioSpec s = small_spec();
  s.phases = {bcast_phase("steady")};
  ScenarioDriver driver(s);
  ScenarioReport r = driver.run();
  ASSERT_EQ(r.phases.size(), 1u);
  const PhaseMetrics& p = r.phases[0];
  EXPECT_GT(p.broadcasts_sent, 0u);
  EXPECT_EQ(p.deliveries, p.deliveries_expected);
  EXPECT_EQ(p.broadcasts_fully_delivered, p.broadcasts_sent);
  EXPECT_EQ(p.latency_samples, p.deliveries);
  EXPECT_GT(p.latency_ms_p50, 0.0);
  EXPECT_GE(p.latency_ms_max, p.latency_ms_p50);
  EXPECT_EQ(p.window.joined, s.nodes);
  EXPECT_EQ(p.correct_evicted_end, 0u);
  // The flow gauge counts nodes with traffic in flight: at most every node.
  EXPECT_LE(p.window.flows, s.nodes);
  EXPECT_THROW(driver.run(), std::logic_error);  // single-shot
}

TEST(ScenarioDriverTest, RunTwiceSameSeedIsByteIdentical) {
  // The acceptance-criterion determinism pin, on a scaled-down
  // partition_heal: same preset + same seed => identical JSON bytes.
  ScenarioSpec a = make_preset("partition_heal", 90, 1234);
  ScenarioSpec b = make_preset("partition_heal", 90, 1234);
  // Shrink durations to keep the suite fast.
  for (auto* spec : {&a, &b}) {
    for (Phase& ph : spec->phases) ph.duration = seconds(15.0);
    spec->drain = seconds(10.0);
  }
  std::string ja = ScenarioDriver(a).run().to_json();
  std::string jb = ScenarioDriver(b).run().to_json();
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"scenario\":\"partition_heal\""), std::string::npos);
}

TEST(ScenarioDriverTest, DifferentSeedsStillSatisfyInvariants) {
  for (std::uint64_t seed : {1ULL, 99ULL, 31337ULL}) {
    ScenarioSpec s = make_preset("partition_heal", 90, seed);
    for (Phase& ph : s.phases) ph.duration = seconds(20.0);
    s.drain = seconds(10.0);
    ScenarioDriver driver(s);
    ScenarioReport r = driver.run();
    // The partition must hurt and the heal must recover: the built-in
    // expectations (baseline floor + heal >= baseline) hold per seed.
    EXPECT_TRUE(ScenarioDriver::check(driver.spec(), r).empty())
        << "seed " << seed << ": " << ScenarioDriver::check(driver.spec(), r)[0];
    const PhaseMetrics* part = r.phase("partition");
    const PhaseMetrics* baseline = r.phase("baseline");
    ASSERT_NE(part, nullptr);
    ASSERT_NE(baseline, nullptr);
    EXPECT_LT(part->delivery_ratio(), baseline->delivery_ratio() - 0.2)
        << "seed " << seed << ": the partition did not visibly cut delivery";
  }
}

TEST(ScenarioDriverTest, FlashCrowdJoinsComplete) {
  ScenarioSpec s = small_spec(60, 11);
  Phase flash = bcast_phase("flash", 0.25, seconds(30.0));
  flash.flash_joiners = 12;  // +20%
  s.phases = {flash};
  s.drain = seconds(20.0);
  ScenarioReport r = ScenarioDriver(s).run();
  const PhaseMetrics& p = r.phases[0];
  EXPECT_EQ(p.joins_requested, 12u);
  EXPECT_EQ(p.joins_completed, 12u);
  EXPECT_EQ(p.window.joined, 72u);
}

TEST(ScenarioDriverTest, ChurnJoinsAndLeavesComplete) {
  ScenarioSpec s = small_spec(60, 13);
  Phase churn = bcast_phase("churn", 0.25, seconds(30.0));
  churn.churn.joins_per_minute = 12.0;
  churn.churn.leaves_per_minute = 12.0;
  s.phases = {churn};
  s.drain = seconds(20.0);
  ScenarioReport r = ScenarioDriver(s).run();
  const PhaseMetrics& p = r.phases[0];
  EXPECT_GT(p.joins_requested, 0u);
  EXPECT_GT(p.leaves_requested, 0u);
  EXPECT_EQ(p.joins_completed, p.joins_requested);
  EXPECT_EQ(p.leaves_completed, p.leaves_requested);
}

TEST(ScenarioDriverTest, CorrelatedGroupKillSparesSurvivors) {
  ScenarioSpec s = small_spec(90, 17);
  Phase baseline = bcast_phase("baseline", 0.5, seconds(15.0));
  Phase failure = bcast_phase("failure", 0.5, seconds(20.0));
  failure.kill_groups = 2;
  s.phases = {baseline, failure};
  ScenarioReport r = ScenarioDriver(s).run();
  const PhaseMetrics* f = r.phase("failure");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->groups_killed, 2u);
  EXPECT_GT(f->nodes_killed, 0u);
  // Expected receivers shrank to the survivors and they all keep receiving.
  EXPECT_EQ(f->window.joined, 90u - f->nodes_killed);
  EXPECT_GE(f->delivery_ratio(), 0.99);
}

TEST(ScenarioDriverTest, ByzantineConversionFlipsLiveBehaviorAndCountsIt) {
  ScenarioSpec s = small_spec(60, 19);
  Phase calm = bcast_phase("calm", 0.5, seconds(10.0));
  Phase storm = bcast_phase("storm", 0.5, seconds(20.0));
  MakeByzantine conv;
  conv.fraction = 0.10;
  conv.behavior = core::NodeBehavior::kByzantineEvictor;
  storm.byzantine = conv;
  s.phases = {calm, storm};
  ScenarioDriver driver(s);
  ScenarioReport r = driver.run();
  const PhaseMetrics* storm_m = r.phase("storm");
  ASSERT_NE(storm_m, nullptr);
  EXPECT_EQ(storm_m->byzantine_converted, 6u);  // 10% of 60
  EXPECT_EQ(storm_m->window.joined, 54u);
  // The converted nodes really are Byzantine at the node level now.
  std::size_t byz = 0;
  for (NodeId id : driver.system().node_ids()) {
    if (driver.system().node(id).behavior() == core::NodeBehavior::kByzantineEvictor) ++byz;
  }
  EXPECT_EQ(byz, 6u);
  // Correct nodes keep delivering to each other despite the storm.
  EXPECT_GE(storm_m->delivery_ratio(), 0.80);
}

TEST(ScenarioDriverTest, DegradedLinksLoseAndDelayUntilRestored) {
  ScenarioSpec s = small_spec(60, 31);
  Phase base = bcast_phase("base");
  Phase degraded = bcast_phase("degraded");
  degraded.degrade = DegradeLinks{12, 0.2, millis(30)};
  Phase restored = bcast_phase("restored");
  restored.restore_links = true;
  s.phases = {base, degraded, restored};
  ScenarioReport r = ScenarioDriver(s).run();
  const PhaseMetrics* b = r.phase("base");
  const PhaseMetrics* d = r.phase("degraded");
  const PhaseMetrics* after = r.phase("restored");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(d, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(b->window.msgs_dropped, 0u);
  // Every link touching a degraded node loses messages and gains latency.
  EXPECT_GT(d->window.msgs_dropped, 0u);
  EXPECT_GT(d->latency_ms_p95, b->latency_ms_p95);
  // restore_links clears every node fault: no loss, delivery recovers.
  EXPECT_EQ(after->window.msgs_dropped, 0u);
  EXPECT_GE(after->delivery_ratio(), 0.95);
}

TEST(ScenarioDriverTest, StreamLoadDeliversChunksAndBoundsStores) {
  ScenarioSpec s = small_spec(60, 23);
  Phase stream = bcast_phase("stream", 0.25, seconds(30.0));
  stream.stream.chunks_per_second = 2.0;
  stream.stream.chunk_bytes = 512;
  stream.stream.store_window = 8;
  s.phases = {stream};
  s.drain = seconds(15.0);
  ScenarioReport r = ScenarioDriver(s).run();
  const PhaseMetrics& p = r.phases[0];
  EXPECT_GT(p.stream_chunks_sent, 20u);
  EXPECT_GE(p.stream_ratio(), 0.95);
}

// ---------------------------------------------------------------------------
// Telemetry (ISSUE 9): time_series sampling + tracing stay byte-deterministic
// ---------------------------------------------------------------------------

TEST(ScenarioTelemetryTest, TimeSeriesAndTraceAreByteIdenticalAcrossRuns) {
  auto make = [] {
    ScenarioSpec s = make_preset("partition_heal", 90, 4242);
    for (Phase& ph : s.phases) ph.duration = seconds(15.0);
    s.drain = seconds(10.0);
    s.metrics_interval = seconds(1.0);
    s.trace = true;
    s.trace_ring = 512;
    return s;
  };
  ScenarioDriver da(make());
  std::string ja = da.run().to_json();
  std::string ta = da.system().tracer().to_chrome_json();
  ScenarioDriver db(make());
  std::string jb = db.run().to_json();
  std::string tb = db.system().tracer().to_chrome_json();
  EXPECT_EQ(ja, jb);
  EXPECT_EQ(ta, tb);
  EXPECT_NE(ja.find("\"time_series\":["), std::string::npos);
  EXPECT_NE(ta.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(ta.find("\"atum_summary\""), std::string::npos);
}

TEST(ScenarioTelemetryTest, TimeSeriesShowsThePartitionDip) {
  ScenarioSpec s = make_preset("partition_heal", 90, 77);
  for (Phase& ph : s.phases) ph.duration = seconds(20.0);
  // The delivery ratio is smoothed over a trailing window of settled
  // broadcasts; the heal phase must outlast that window (8 broadcasts at
  // the preset send rate) so the final points are all post-heal.
  s.phases.back().duration = seconds(40.0);
  s.drain = seconds(10.0);
  s.metrics_interval = seconds(1.0);
  ScenarioDriver driver(s);
  ScenarioReport r = driver.run();
  ASSERT_FALSE(r.time_series.empty());
  // One point per interval across phases + drain.
  EXPECT_GE(r.time_series.size(), 60u);
  const PhaseMetrics* part = r.phase("partition");
  ASSERT_NE(part, nullptr);
  double min_baseline = 1.0;
  double min_partition = 1.0;
  double last = 0.0;
  for (const TimeSeriesPoint& p : r.time_series) {
    if (p.at <= part->start) min_baseline = std::min(min_baseline, p.delivery_ratio);
    if (p.at > part->start && p.at <= part->end) {
      min_partition = std::min(min_partition, p.delivery_ratio);
    }
    last = p.delivery_ratio;
  }
  EXPECT_GT(min_baseline, 0.95);       // level before the cut
  EXPECT_LT(min_partition, 0.85);      // visible dip during the partition
  EXPECT_GT(last, 0.95);               // recovered by the end of the drain
  // Levels are populated, not zero-filled.
  EXPECT_GT(r.time_series.back().window.joined, 0u);
  EXPECT_GT(r.time_series.back().window.groups, 0u);
}

TEST(ScenarioTelemetryTest, SeriesPhasesAndTotalsCountTheSameTraffic) {
  // Phases and drain are whole multiples of the interval, so every series
  // point's window lies inside one phase or inside the drain.
  ScenarioSpec s = make_preset("partition_heal", 90, 31);
  for (Phase& ph : s.phases) ph.duration = seconds(15.0);
  s.phases.front().flash_joiners = 9;
  s.phases.front().degrade = DegradeLinks{9, 0.1, 0};  // drops in every phase
  s.drain = seconds(10.0);
  s.metrics_interval = seconds(1.0);
  const ScenarioReport r = ScenarioDriver(s).run();
  ASSERT_EQ(r.time_series.size(), 55u);
  for (const PhaseMetrics& pm : r.phases) {
    WindowMetrics sum;
    for (const TimeSeriesPoint& p : r.time_series) {
      if (p.at <= pm.start || p.at > pm.end) continue;
      sum.msgs_sent += p.window.msgs_sent;
      sum.msgs_delivered += p.window.msgs_delivered;
      sum.msgs_dropped += p.window.msgs_dropped;
      sum.bytes_sent += p.window.bytes_sent;
      sum.sha256_digests += p.window.sha256_digests;
    }
    EXPECT_GT(pm.window.msgs_sent, 0u) << pm.name;
    EXPECT_GT(pm.window.msgs_dropped, 0u) << pm.name;
    EXPECT_EQ(sum.msgs_sent, pm.window.msgs_sent) << pm.name;
    EXPECT_EQ(sum.msgs_delivered, pm.window.msgs_delivered) << pm.name;
    EXPECT_EQ(sum.msgs_dropped, pm.window.msgs_dropped) << pm.name;
    EXPECT_EQ(sum.bytes_sent, pm.window.bytes_sent) << pm.name;
    EXPECT_EQ(sum.sha256_digests, pm.window.sha256_digests) << pm.name;
  }
  // Deploy sends nothing, so the series covers every message of the run;
  // the run's digest total also counts deploy's digests.
  WindowMetrics series;
  for (const TimeSeriesPoint& p : r.time_series) {
    series.msgs_sent += p.window.msgs_sent;
    series.bytes_sent += p.window.bytes_sent;
    series.sha256_digests += p.window.sha256_digests;
  }
  EXPECT_EQ(series.msgs_sent, r.totals.msgs_sent);
  EXPECT_EQ(series.bytes_sent, r.totals.bytes_sent);
  EXPECT_LE(series.sha256_digests, r.totals.sha256_digests);
}

TEST(ScenarioTelemetryTest, TelemetryOffOmitsTheSectionAndFieldsStayEmpty) {
  ScenarioSpec s = small_spec(60, 29);
  s.phases = {bcast_phase("only")};
  ScenarioReport r = ScenarioDriver(s).run();
  EXPECT_TRUE(r.time_series.empty());
  EXPECT_EQ(r.to_json().find("time_series"), std::string::npos);
}

TEST(ScenarioReportTest, CheckFlagsViolations) {
  ScenarioReport r;
  PhaseMetrics p;
  p.name = "a";
  p.deliveries_expected = 100;
  p.deliveries = 50;
  r.phases.push_back(p);
  ScenarioSpec s;
  Expectation e;
  e.phase = "a";
  e.min_delivery_ratio = 0.9;
  s.expectations = {e};
  auto violations = ScenarioDriver::check(s, r);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("delivery ratio"), std::string::npos);
  Expectation missing;
  missing.phase = "nope";
  s.expectations = {missing};
  EXPECT_EQ(ScenarioDriver::check(s, r).size(), 1u);
}
