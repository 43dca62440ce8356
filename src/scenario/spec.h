// Declarative scenario model: the workload + fault-injection layer the
// evaluation harness (ISSUE 4 / ROADMAP "as many scenarios as you can
// imagine") composes experiments from.
//
// A ScenarioSpec is a list of named phases. Each phase combines
//  * sustained loads — churn (joins + leaves per minute), broadcast traffic,
//    AStream chunk traffic — scheduled at fixed intervals for the phase's
//    duration, and
//  * one-shot fault primitives applied at phase start — a network partition
//    along vgroup boundaries, a heal, link degradation (loss + latency) on a
//    node sample, Byzantine conversion of correct nodes, correlated
//    whole-vgroup crashes, a flash crowd of joiners.
//
// Everything is driven through the discrete-event Simulator with all
// randomness derived from `seed`, so a scenario is bit-reproducible: the
// same spec and seed produce an identical metrics report (ScenarioDriver),
// which the determinism tests pin byte-for-byte.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/atum.h"
#include "core/params.h"
#include "net/network.h"

namespace atum::scenario {

// ---------------------------------------------------------------------------
// Sustained loads (scheduled at fixed intervals across the phase)
// ---------------------------------------------------------------------------

struct ChurnLoad {
  double joins_per_minute = 0.0;   // fresh nodes joining via random contacts
  double leaves_per_minute = 0.0;  // random correct members announcing leave
  bool any() const { return joins_per_minute > 0.0 || leaves_per_minute > 0.0; }
};

struct BroadcastLoad {
  double per_second = 0.0;           // broadcasts from random correct origins
  std::size_t payload_bytes = 128;   // padded scenario header (>= 20 bytes)
  bool any() const { return per_second > 0.0; }
};

// Per-app traffic: an AStream source pushing chunks through the two-tier
// dissemination forest. The driver instantiates AStreamNode on every node
// alive when the first streaming phase starts (use with moderate system
// sizes). `store_window` feeds StreamConfig::store_window so long scenarios
// can bound the per-node chunk store.
struct StreamLoad {
  double chunks_per_second = 0.0;
  std::size_t chunk_bytes = 1024;
  std::size_t store_window = 0;  // 0 = unbounded chunk store
  bool any() const { return chunks_per_second > 0.0; }
};

// ---------------------------------------------------------------------------
// One-shot fault primitives (applied at phase start)
// ---------------------------------------------------------------------------

// Partition the network in two along vgroup boundaries: whole vgroups are
// moved to the minority side until it holds ~minority_fraction of the
// joined nodes. Splitting along group boundaries keeps every vgroup's SMR
// quorum on one side — modelling a rack/datacenter cut rather than a
// per-node lottery (a split vgroup could not vouch group messages at all).
struct PartitionSplit {
  double minority_fraction = 0.25;
};

// Degrade the links of `nodes` randomly chosen live nodes (loss probability
// and added one-way latency on every link touching them).
struct DegradeLinks {
  std::size_t nodes = 0;
  double drop = 0.0;
  DurationMicros extra_latency = 0;
};

// Convert a fraction of the live correct nodes to a faulty behavior
// (AtumNode::set_behavior): kByzantineEvictor keeps heartbeating but goes
// protocol-silent and proposes evictions; kSilent also stops heartbeating
// and is eventually evicted.
struct MakeByzantine {
  double fraction = 0.0;
  core::NodeBehavior behavior = core::NodeBehavior::kByzantineEvictor;
};

struct Phase {
  std::string name;
  DurationMicros duration = seconds(60.0);

  // Sustained loads.
  ChurnLoad churn;
  BroadcastLoad broadcasts;
  StreamLoad stream;
  // Flash crowd: this many fresh joiners spread evenly across the phase
  // (on top of churn.joins_per_minute).
  std::size_t flash_joiners = 0;

  // One-shot primitives, applied at phase start in this order: heal /
  // restore first (clearing the previous phase's faults), then new faults.
  bool heal = false;           // remove the active partition
  bool restore_links = false;  // clear all link/node degradation
  std::optional<PartitionSplit> partition;
  std::optional<DegradeLinks> degrade;
  std::optional<MakeByzantine> byzantine;
  // Correlated failure: crash this many whole vgroups (every member stops).
  std::size_t kill_groups = 0;
};

// ---------------------------------------------------------------------------
// Expectations (evaluated by ScenarioDriver::check / atum_scenario --assert)
// ---------------------------------------------------------------------------

struct Expectation {
  std::string phase;  // phase the expectation applies to
  // Absolute floor on the phase's broadcast delivery ratio (ignored if < 0).
  double min_delivery_ratio = -1.0;
  // Relative floor: ratio(phase) >= ratio(at_least_phase) - tolerance.
  // Empty = unused. This is how partition_heal asserts recovery to at least
  // pre-partition delivery levels.
  std::string at_least_phase;
  // Floor on completed/requested joins in the phase (ignored if < 0).
  double min_join_ratio = -1.0;
  // Floor on stream chunk deliveries/expected in the phase (ignored if < 0).
  double min_stream_ratio = -1.0;
  // Ceiling on leaves that needed the force-stop fallback (ignored if < 0).
  // 0 asserts the leave-confirmation gap stays closed at the protocol level:
  // no leaver ever had to give up waiting for its vgroup's confirmation.
  std::int64_t max_forced_leaves = -1;
  double tolerance = 0.02;
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::size_t nodes = 10'000;   // instantly deployed before phase 1
  std::uint64_t seed = 1;
  core::Params params;
  net::NetworkConfig net = net::NetworkConfig::datacenter();
  // Gossip relay policy for every node: empty = flood all cycles
  // (latency-optimal, highest volume); otherwise forward_cycles(set).
  std::set<std::size_t> relay_cycles;
  // Settle time after the last phase so in-flight deliveries/joins count.
  DurationMicros drain = seconds(45.0);
  std::vector<Phase> phases;
  std::vector<Expectation> expectations;

  // ----- telemetry (ISSUE 9) -----
  // > 0: sample the system's obs::Registry every interval of sim-time and
  // emit the samples as the report's `time_series` section (interval
  // deltas for counters, point-in-time gauges). 0 = off; the report then
  // serializes exactly as before, so pre-telemetry byte baselines hold.
  // The phases plus the drain may hold at most kMaxTimeSeriesPoints
  // intervals: each point samples the whole registry.
  DurationMicros metrics_interval = 0;
  static constexpr std::int64_t kMaxTimeSeriesPoints = 100'000;
  // Enable message-lifecycle tracing (obs::Tracer) for the whole run; the
  // CLI dumps the Chrome trace JSON with --trace-out.
  bool trace = false;
  // Keep one trace key in N (0/1 = every key) and the per-node ring size;
  // both bound trace memory under broadcast floods.
  std::uint64_t trace_sample = 1;
  std::size_t trace_ring = 4096;

  // Throws std::invalid_argument on nonsense (no phases, duplicate phase
  // names, negative rates/durations, fractions outside [0,1], expectations
  // referencing unknown phases, undersized broadcast payloads, more than
  // kMaxTimeSeriesPoints telemetry points).
  void validate() const;
};

}  // namespace atum::scenario
