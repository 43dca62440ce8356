// ScenarioDriver: executes a ScenarioSpec against a real node-level
// AtumSystem.
//
// Lifecycle: the constructor validates the spec and instantly deploys
// `spec.nodes` nodes (AtumSystem::deploy — the paper's "start from
// checkpoint"). run() then walks the phases in order: it applies each
// phase's one-shot fault primitives (heal/restore first, then partition /
// link degradation / Byzantine conversion / correlated group kill),
// schedules the phase's sustained loads (churn, broadcasts, stream chunks)
// at fixed intervals on the simulator, runs the clock to the phase end, and
// snapshots per-phase metrics. A final drain period lets in-flight
// deliveries and joins complete; they stay attributed to the phase that
// initiated them (see report.h).
//
// Metrics come from two places. The driver's own bookkeeping attributes the
// workload to the phase that initiated it: broadcast records with
// per-broadcast expected/delivered counts and send timestamps give delivery
// ratios and latency percentiles (common/stats Samples), and pending ops
// give churn completions. Everything else (network, crypto and simulator
// counters, the joined population, the group count) comes from the system's
// obs::Registry: the driver samples it at construction, at run() start, at
// each phase end and telemetry tick, and at the end of the run, and fills
// every report window (phase, time-series point, run totals) from two
// samples through one function.
//
// Determinism: every random choice (origins, contacts, leavers, partition
// side, degraded/converted/killed samples) flows from one Rng seeded with
// spec.seed, and all container iteration is over sorted ids — the same
// spec + seed yields a byte-identical JSON report.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/astream/astream.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/atum.h"
#include "obs/registry.h"
#include "scenario/report.h"
#include "scenario/spec.h"

namespace atum::scenario {

class ScenarioDriver {
 public:
  // Validates the spec and deploys the initial system.
  explicit ScenarioDriver(ScenarioSpec spec);
  ~ScenarioDriver();
  ScenarioDriver(const ScenarioDriver&) = delete;
  ScenarioDriver& operator=(const ScenarioDriver&) = delete;

  // Runs all phases plus the drain; callable once.
  ScenarioReport run();

  // Evaluates spec.expectations against a report. Returns one human-readable
  // line per violated expectation; empty = all hold.
  static std::vector<std::string> check(const ScenarioSpec& spec, const ScenarioReport& report);

  // The underlying system (benches poke at it between/after runs).
  core::AtumSystem& system() { return *sys_; }
  const ScenarioSpec& spec() const { return spec_; }

 private:
  struct BcastRecord {
    std::size_t phase = 0;
    TimeMicros sent_at = 0;
    std::uint32_t expected = 0;
    std::uint32_t delivered = 0;
    // Nodes minted at/after this id did not exist at send time; their
    // deliveries never count toward `expected` (see on_deliver).
    NodeId fresh_cutoff = kInvalidNode;
  };
  struct PendingOp {
    NodeId node = kInvalidNode;
    std::size_t phase = 0;
    bool join = false;  // else leave
    // Leaves re-announce when stale: a leave proposal snapshots the vgroup
    // membership, so a concurrent reconfig of the same group can supersede
    // it; a real departing client would simply announce again — and after
    // enough unconfirmed announcements, exit anyway (the group either
    // already decided the removal without managing to tell us — deciding a
    // config op retires the SMR instance that could have served it — or
    // will evict the silent node via heartbeats).
    TimeMicros last_attempt = 0;
    int attempts = 1;
  };
  struct ChunkRecord {
    std::size_t phase = 0;
    std::uint32_t expected = 0;
  };

  void install_deliver(NodeId id);
  void on_deliver(NodeId deliverer, TimeMicros now, const net::Payload& payload);
  void poll_pending_ops();  // bookkeeper: completions of joins/leaves
  std::optional<NodeId> sample_live(NodeId exclude = kInvalidNode);
  std::uint32_t eligible_receivers();
  bool eligible(NodeId id);

  // The system registry's state now. The driver's own scenario.* probes
  // (broadcasts sent, deliveries, joined population) join it at
  // construction, so a sample covers the workload too.
  obs::Sample sample_registry();
  // Telemetry (spec.metrics_interval): appends one TimeSeriesPoint covering
  // the interval since the previous tick.
  void sample_time_series();

  // Phase machinery.
  void apply_one_shots(std::size_t phase_idx);
  void schedule_loads(std::size_t phase_idx, TimeMicros start, TimeMicros end);
  void snapshot_phase(std::size_t phase_idx);
  void send_scenario_broadcast(std::size_t phase_idx);
  void start_churn_join(std::size_t phase_idx);
  void start_churn_leave(std::size_t phase_idx);
  void ensure_stream(std::size_t phase_idx);
  void send_stream_chunk(std::size_t phase_idx);

  ScenarioSpec spec_;
  std::unique_ptr<core::AtumSystem> sys_;
  Rng rng_;
  bool ran_ = false;

  std::vector<PhaseMetrics> metrics_;
  std::vector<Samples> latencies_ms_;  // per phase
  std::vector<BcastRecord> bcasts_;
  std::vector<PendingOp> pending_ops_;
  std::vector<ChunkRecord> chunks_;

  // Population bookkeeping (sorted/deterministic).
  std::vector<NodeId> all_ids_;      // every id ever added, creation order
  std::set<NodeId> leave_requested_; // asked to leave (never cleared)
  std::set<NodeId> ever_joined_;     // completed a join at some point
  std::set<NodeId> killed_;          // crashed by kill_groups
  std::set<NodeId> converted_;       // turned Byzantine by MakeByzantine
  NodeId next_fresh_id_ = 0;

  // Fault state.
  TimeMicros heal_time_ = -1;        // most recent heal (for heal_to_full)
  std::size_t heal_phase_ = 0;

  // Stream state (created lazily at the first streaming phase).
  std::map<NodeId, std::unique_ptr<astream::AStreamNode>> stream_nodes_;
  std::vector<NodeId> stream_members_;
  NodeId stream_source_ = kInvalidNode;
  std::uint64_t stream_seq_ = 0;

  // Registry samples the report windows start from: before the initial
  // deploy (run totals), and the previous phase end and telemetry tick
  // (both first taken at run() start).
  obs::Sample deploy_base_;
  obs::Sample phase_base_;
  obs::Sample tick_base_;

  // Time-series telemetry state (spec.metrics_interval > 0).
  std::vector<TimeSeriesPoint> series_;
  double ts_ratio_ = 1.0;  // carried forward through send-free intervals
  // First bcasts_ record not yet folded into the windowed delivery ratio
  // (records settle once they are a full interval old), plus the trailing
  // window of settled (expected, delivered) pairs the ratio spans.
  static constexpr std::size_t kRatioWindow = 8;
  std::size_t ts_bcast_idx_ = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> ts_window_;
  std::uint64_t total_deliveries_ = 0;  // backs the scenario.deliveries probe
};

}  // namespace atum::scenario
