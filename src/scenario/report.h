// Scenario metrics report: what ScenarioDriver::run() returns and what the
// atum_scenario CLI serializes. Deliveries, latencies, joins and leaves are
// attributed to the phase that INITIATED them (the phase the broadcast was
// sent in / the join was requested in), even when completion lands in a
// later phase or the drain — a partition phase therefore owns the losses it
// caused, and the heal phase owns the recovery.
//
// to_json() is byte-deterministic: fixed key order, fixed float formatting,
// and every value derived from the seeded simulation. Two runs of the same
// spec + seed serialize identically (pinned by test_scenario).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace atum::scenario {

// Registry reads over one report window: a phase, a telemetry interval or
// the whole run. ScenarioDriver fills it from the registry samples taken
// at the window's two ends: counters as deltas, levels as read at the end.
struct WindowMetrics {
  // Counters.
  std::uint64_t events_executed = 0;  // simulator events
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t msgs_blocked = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t sha256_digests = 0;
  // Levels (memory/pressure proxies).
  std::uint64_t joined = 0;       // eligible correct receivers
  std::uint64_t groups = 0;       // vgroup count
  std::uint64_t live_events = 0;  // simulator queue depth
  std::uint64_t slot_count = 0;   // simulator arena = peak concurrent events so far
  std::uint64_t flows = 0;        // nodes with traffic in flight (net.flows)
};

struct PhaseMetrics {
  std::string name;
  TimeMicros start = 0;  // sim time
  TimeMicros end = 0;

  // Broadcast workload (attributed to the sending phase).
  std::uint64_t broadcasts_sent = 0;
  std::uint64_t deliveries_expected = 0;  // sum over broadcasts of eligible receivers at send
  std::uint64_t deliveries = 0;
  std::uint64_t broadcasts_fully_delivered = 0;  // reached every eligible receiver
  // Broadcast delivery latency (origin send -> node deliver), milliseconds.
  std::size_t latency_samples = 0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p95 = 0.0;
  double latency_ms_p99 = 0.0;
  double latency_ms_max = 0.0;

  // Churn (attributed to the requesting phase).
  std::uint64_t joins_requested = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t leaves_requested = 0;
  std::uint64_t leaves_completed = 0;
  // Leaves that exhausted the announce/retry fallback and force-stopped the
  // node (the client-side zombie escape hatch). With the f+1 removal-notice
  // path closing the leave-confirmation gap at the protocol level, a
  // healthy run keeps this at zero — long_haul_churn asserts it.
  std::uint64_t leaves_forced = 0;

  // Stream workload (attributed to the chunk's sending phase).
  std::uint64_t stream_chunks_sent = 0;
  std::uint64_t stream_deliveries_expected = 0;
  std::uint64_t stream_deliveries = 0;

  // Fault primitives applied in this phase.
  std::uint64_t byzantine_converted = 0;
  std::uint64_t groups_killed = 0;
  std::uint64_t nodes_killed = 0;

  // Activity during the phase and levels at its end.
  WindowMetrics window;
  std::uint64_t correct_evicted_end = 0;  // correct nodes expelled without asking to leave

  // Heal phases only: sim time from the heal to the first post-heal
  // broadcast that reached every eligible receiver. -1 elsewhere / never.
  DurationMicros heal_to_full_delivery = -1;

  double delivery_ratio() const {
    return deliveries_expected == 0
               ? 1.0
               : static_cast<double>(deliveries) / static_cast<double>(deliveries_expected);
  }
  double join_ratio() const {
    return joins_requested == 0
               ? 1.0
               : static_cast<double>(joins_completed) / static_cast<double>(joins_requested);
  }
  double stream_ratio() const {
    return stream_deliveries_expected == 0
               ? 1.0
               : static_cast<double>(stream_deliveries) /
                     static_cast<double>(stream_deliveries_expected);
  }
};

// One telemetry interval (spec.metrics_interval): counters as deltas over
// the interval, levels as read at its end. delivery_ratio is the windowed
// scenario-broadcast delivery rate, computed over broadcasts that settled
// during the interval (sent at least one full interval ago, so in-flight
// deliveries don't read as losses); intervals in which nothing settled
// carry the previous ratio forward — a partition therefore reads as a
// sustained 1.0 -> ~0.5 -> 1.0 dip instead of send-tick noise.
struct TimeSeriesPoint {
  TimeMicros at = 0;
  double delivery_ratio = 1.0;
  // Scenario broadcasts sent and delivered during the interval.
  std::uint64_t broadcasts_sent = 0;
  std::uint64_t deliveries = 0;
  WindowMetrics window;
};

struct ScenarioReport {
  std::string scenario;
  std::uint64_t seed = 0;
  std::uint64_t initial_nodes = 0;
  std::vector<PhaseMetrics> phases;

  // Registry telemetry (empty / 0 unless spec.metrics_interval > 0; the
  // section is omitted from the JSON entirely when off so pre-telemetry
  // report baselines stay byte-identical).
  DurationMicros metrics_interval = 0;
  std::vector<TimeSeriesPoint> time_series;

  // Whole-run summary, from before the initial deploy to the end of the
  // drain.
  TimeMicros sim_end = 0;
  WindowMetrics totals;

  const PhaseMetrics* phase(const std::string& name) const;
  double total_delivery_ratio() const;

  // Deterministic serialization (see file comment).
  std::string to_json() const;
};

}  // namespace atum::scenario
