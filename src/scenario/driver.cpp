#include "scenario/driver.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "common/serde.h"
#include "overlay/gossip.h"

namespace atum::scenario {

namespace {

// Scenario broadcast header: magic + broadcast index + send time, padded to
// the configured payload size. AStream's tier-1 tag is a single 0x51 byte,
// so the leading 0x5C keeps the two trivially distinguishable on shared
// deliver paths.
constexpr std::uint32_t kBcastMagic = 0x5C3A0001;
constexpr std::size_t kBcastHeader = 4 + 8 + 8;

Bytes encode_bcast(std::uint64_t index, TimeMicros sent_at, std::size_t payload_bytes) {
  ByteWriter w;
  w.u32(kBcastMagic);
  w.u64(index);
  w.i64(sent_at);
  Bytes out = w.take();
  out.resize(std::max(payload_bytes, kBcastHeader), 0);
  return out;
}

std::uint64_t delta(const obs::Sample& from, const obs::Sample& to, const char* name) {
  return to.value(name) - from.value(name);
}

// The one path from the registry into the report: every phase, time-series
// point and run total is a window between two samples.
WindowMetrics read_window(const obs::Sample& from, const obs::Sample& to) {
  WindowMetrics w;
  w.events_executed = delta(from, to, "sim.executed_events");
  w.msgs_sent = delta(from, to, "net.messages_sent");
  w.msgs_delivered = delta(from, to, "net.messages_delivered");
  w.msgs_dropped = delta(from, to, "net.messages_dropped");
  w.msgs_blocked = delta(from, to, "net.messages_blocked");
  w.bytes_sent = delta(from, to, "net.bytes_sent");
  w.sha256_digests = delta(from, to, "crypto.sha256_digests");
  w.joined = to.value("scenario.joined");
  w.groups = to.value("atum.groups");
  w.live_events = to.value("sim.live_events");
  w.slot_count = to.value("sim.slot_count");
  w.flows = to.value("net.flows");
  return w;
}

}  // namespace

ScenarioDriver::ScenarioDriver(ScenarioSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed ^ 0x5ce7a110ULL) {
  spec_.validate();
  sys_ = std::make_unique<core::AtumSystem>(spec_.params, spec_.net, spec_.seed);
  deploy_base_ = sample_registry();

  all_ids_.reserve(spec_.nodes);
  for (NodeId i = 0; i < spec_.nodes; ++i) all_ids_.push_back(i);
  next_fresh_id_ = static_cast<NodeId>(spec_.nodes);
  sys_->deploy(all_ids_);
  for (NodeId id : all_ids_) {
    install_deliver(id);
    if (!spec_.relay_cycles.empty()) {
      sys_->node(id).set_forward(overlay::forward_cycles(spec_.relay_cycles));
    }
  }

  // The driver's own workload joins the system registry, so one sample
  // holds every value a report window needs.
  obs::Registry& reg = sys_->metrics();
  reg.probe("scenario.broadcasts_sent", {},
            [this] { return static_cast<std::uint64_t>(bcasts_.size()); });
  reg.probe("scenario.deliveries", {}, [this] { return total_deliveries_; });
  reg.probe("scenario.joined", {},
            [this] { return static_cast<std::uint64_t>(eligible_receivers()); });
  if (spec_.trace) sys_->tracer().enable(spec_.trace_ring, spec_.trace_sample);
}

ScenarioDriver::~ScenarioDriver() = default;

// ---------------------------------------------------------------------------
// Population bookkeeping
// ---------------------------------------------------------------------------

bool ScenarioDriver::eligible(NodeId id) {
  if (!sys_->has_node(id)) return false;
  const core::AtumNode& n = sys_->node(id);
  return n.joined() && n.behavior() == core::NodeBehavior::kCorrect;
}

std::uint32_t ScenarioDriver::eligible_receivers() {
  std::uint32_t n = 0;
  for (NodeId id : all_ids_) {
    if (eligible(id)) ++n;
  }
  return n;
}

std::optional<NodeId> ScenarioDriver::sample_live(NodeId exclude) {
  if (all_ids_.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 64; ++attempt) {
    NodeId id = all_ids_[static_cast<std::size_t>(rng_.next_below(all_ids_.size()))];
    if (id == exclude) continue;
    if (leave_requested_.contains(id)) continue;
    if (eligible(id)) return id;
  }
  return std::nullopt;
}

void ScenarioDriver::install_deliver(NodeId id) {
  core::AtumNode& n = sys_->node(id);
  // Chain: the scenario metrics tap runs first, then whatever handler the
  // node already had (AStream's tier-1 digest intake for stream members).
  core::AtumNode::DeliverFn prev = n.deliver_handler();
  n.set_deliver([this, id, prev = std::move(prev)](NodeId origin, const net::Payload& payload) {
    on_deliver(id, sys_->simulator().now(), payload);
    if (prev) prev(origin, payload);
  });
}

void ScenarioDriver::on_deliver(NodeId deliverer, TimeMicros now, const net::Payload& payload) {
  if (payload.size() < kBcastHeader) return;
  try {
    ByteReader r(payload);
    if (r.u32() != kBcastMagic) return;
    std::uint64_t index = r.u64();
    TimeMicros sent_at = r.i64();
    if (index >= bcasts_.size()) return;
    BcastRecord& rec = bcasts_[index];
    // Deliveries only count toward nodes that existed when the broadcast
    // was sent: a flash-crowd joiner spawned afterwards must not stand in
    // for an eligible receiver that missed it (delivered == expected is
    // the full-delivery / heal-recovery trigger).
    if (deliverer >= rec.fresh_cutoff) return;
    ++rec.delivered;
    ++total_deliveries_;
    PhaseMetrics& pm = metrics_[rec.phase];
    ++pm.deliveries;
    latencies_ms_[rec.phase].add(static_cast<double>(now - sent_at) / 1000.0);
    if (rec.delivered == rec.expected) {
      ++pm.broadcasts_fully_delivered;
      if (heal_time_ >= 0 && rec.sent_at >= heal_time_ &&
          metrics_[heal_phase_].heal_to_full_delivery < 0) {
        metrics_[heal_phase_].heal_to_full_delivery = now - heal_time_;
      }
    }
  } catch (const SerdeError&) {
    // Not a scenario payload; application traffic passes through.
  }
}

void ScenarioDriver::poll_pending_ops() {
  constexpr DurationMicros kLeaveRetry = seconds(10.0);
  const TimeMicros now = sys_->simulator().now();
  // Explicit loop: the pass both mutates ops (leave retries) and erases
  // completed ones, which an erase_if predicate must not do.
  std::size_t kept = 0;
  for (PendingOp& op : pending_ops_) {
    bool done = false;
    if (op.join) {
      if (sys_->has_node(op.node) && sys_->node(op.node).joined()) {
        ++metrics_[op.phase].joins_completed;
        ever_joined_.insert(op.node);
        done = true;
      }
    } else if (!sys_->has_node(op.node) || !sys_->node(op.node).joined()) {
      ++metrics_[op.phase].leaves_completed;
      // A departed stream member leaves the stream too (its transport-level
      // chunk service would otherwise outlive its membership).
      stream_nodes_.erase(op.node);
      done = true;
    } else if (now - op.last_attempt >= kLeaveRetry) {
      op.last_attempt = now;
      if (++op.attempts > 2) {
        // Announced repeatedly without confirmation: exit anyway (see
        // PendingOp). Counted as complete on the next poll.
        ++metrics_[op.phase].leaves_forced;
        sys_->node(op.node).stop();
      } else {
        // Still a member: the leave proposal was superseded by a concurrent
        // reconfig of the same vgroup. Announce again with fresh membership.
        sys_->node(op.node).leave();
      }
    }
    if (!done) pending_ops_[kept++] = op;
  }
  pending_ops_.resize(kept);
}

// ---------------------------------------------------------------------------
// One-shot fault primitives
// ---------------------------------------------------------------------------

void ScenarioDriver::apply_one_shots(std::size_t phase_idx) {
  const Phase& ph = spec_.phases[phase_idx];
  net::SimNetwork& net = sys_->network();
  PhaseMetrics& pm = metrics_[phase_idx];

  // Heal / restore first: a phase may clear the previous faults and apply
  // new ones in one step.
  if (ph.heal) {
    net.partition({});
    heal_time_ = sys_->simulator().now();
    heal_phase_ = phase_idx;
  }
  if (ph.restore_links) net.clear_node_faults();

  if (ph.partition) {
    // Whole vgroups move to the minority side until it holds the requested
    // fraction of the joined population (see spec.h for why group-aligned).
    auto groups = sys_->group_map();
    std::size_t joined_total = 0;
    std::vector<GroupId> gids;
    gids.reserve(groups.size());
    for (const auto& [g, members] : groups) {
      gids.push_back(g);
      joined_total += members.size();
    }
    rng_.shuffle(gids);
    const auto want = static_cast<std::size_t>(ph.partition->minority_fraction *
                                               static_cast<double>(joined_total));
    std::vector<NodeId> minority;
    for (GroupId g : gids) {
      if (minority.size() >= want) break;
      const auto& members = groups[g];
      minority.insert(minority.end(), members.begin(), members.end());
    }
    net.partition({minority});
  }

  if (ph.degrade && ph.degrade->nodes > 0) {
    std::vector<NodeId> candidates;
    for (NodeId id : all_ids_) {
      if (eligible(id)) candidates.push_back(id);
    }
    rng_.shuffle(candidates);
    std::size_t n = std::min(ph.degrade->nodes, candidates.size());
    for (std::size_t i = 0; i < n; ++i) {
      net.set_node_fault(candidates[i],
                         net::LinkFault{ph.degrade->drop, ph.degrade->extra_latency});
    }
  }

  if (ph.byzantine && ph.byzantine->fraction > 0.0) {
    std::vector<NodeId> candidates;
    for (NodeId id : all_ids_) {
      if (eligible(id) && !leave_requested_.contains(id)) candidates.push_back(id);
    }
    rng_.shuffle(candidates);
    const auto n = static_cast<std::size_t>(ph.byzantine->fraction *
                                            static_cast<double>(candidates.size()));
    for (std::size_t i = 0; i < n; ++i) {
      sys_->node(candidates[i]).set_behavior(ph.byzantine->behavior);
      converted_.insert(candidates[i]);
      ++pm.byzantine_converted;
    }
  }

  if (ph.kill_groups > 0) {
    auto groups = sys_->group_map();
    std::vector<GroupId> gids;
    gids.reserve(groups.size());
    for (const auto& [g, members] : groups) gids.push_back(g);
    rng_.shuffle(gids);
    std::size_t killed = 0;
    for (GroupId g : gids) {
      if (killed >= ph.kill_groups) break;
      ++killed;
      ++pm.groups_killed;
      for (NodeId member : groups[g]) {
        sys_->node(member).stop();  // crash: instantly and permanently silent
        killed_.insert(member);
        stream_nodes_.erase(member);
        ++pm.nodes_killed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sustained loads
// ---------------------------------------------------------------------------

void ScenarioDriver::send_scenario_broadcast(std::size_t phase_idx) {
  std::optional<NodeId> origin = sample_live();
  if (!origin) return;
  const TimeMicros now = sys_->simulator().now();
  const std::uint64_t index = bcasts_.size();
  const std::uint32_t expected = eligible_receivers();
  bcasts_.push_back(BcastRecord{phase_idx, now, expected, 0, next_fresh_id_});
  PhaseMetrics& pm = metrics_[phase_idx];
  ++pm.broadcasts_sent;
  pm.deliveries_expected += expected;
  sys_->node(*origin).broadcast(
      encode_bcast(index, now, spec_.phases[phase_idx].broadcasts.payload_bytes));
}

void ScenarioDriver::start_churn_join(std::size_t phase_idx) {
  std::optional<NodeId> contact = sample_live();
  if (!contact) return;
  NodeId fresh = next_fresh_id_++;
  core::AtumNode& n = sys_->add_node(fresh);
  all_ids_.push_back(fresh);
  install_deliver(fresh);
  if (!spec_.relay_cycles.empty()) n.set_forward(overlay::forward_cycles(spec_.relay_cycles));
  n.join(*contact);
  pending_ops_.push_back(
      PendingOp{fresh, phase_idx, /*join=*/true, sys_->simulator().now()});
  ++metrics_[phase_idx].joins_requested;
}

void ScenarioDriver::start_churn_leave(std::size_t phase_idx) {
  std::optional<NodeId> victim = sample_live(stream_source_);
  if (!victim) return;
  leave_requested_.insert(*victim);
  sys_->node(*victim).leave();
  pending_ops_.push_back(
      PendingOp{*victim, phase_idx, /*join=*/false, sys_->simulator().now()});
  ++metrics_[phase_idx].leaves_requested;
}

void ScenarioDriver::ensure_stream(std::size_t phase_idx) {
  if (!stream_nodes_.empty()) return;
  const StreamLoad& load = spec_.phases[phase_idx].stream;
  astream::StreamConfig cfg;
  cfg.stream_id = 1;
  cfg.store_window = load.store_window;
  stream_members_.clear();  // rebuild: members of an earlier stream may be gone
  stream_source_ = kInvalidNode;
  for (NodeId id : all_ids_) {
    if (eligible(id)) stream_members_.push_back(id);
  }
  if (stream_members_.empty()) return;
  stream_source_ = stream_members_.front();
  for (NodeId id : stream_members_) {
    auto node = std::make_unique<astream::AStreamNode>(*sys_, id, cfg);
    node->set_chunk_handler([this](std::uint64_t seq, const net::Payload&) {
      if (seq == 0 || seq > chunks_.size()) return;
      ++metrics_[chunks_[seq - 1].phase].stream_deliveries;
    });
    stream_nodes_[id] = std::move(node);
  }
  for (auto& [id, node] : stream_nodes_) {
    node->join_stream(stream_source_);
    // AStreamNode installed its own tier-1 deliver handler; rechain the
    // scenario metrics tap in front of it.
    install_deliver(id);
  }
}

void ScenarioDriver::send_stream_chunk(std::size_t phase_idx) {
  auto it = stream_nodes_.find(stream_source_);
  if (it == stream_nodes_.end() || !eligible(stream_source_)) return;
  const StreamLoad& load = spec_.phases[phase_idx].stream;
  std::uint32_t expected = 0;
  for (NodeId id : stream_members_) {
    if (stream_nodes_.contains(id) && eligible(id)) ++expected;
  }
  const std::uint64_t seq = ++stream_seq_;
  chunks_.push_back(ChunkRecord{phase_idx, expected});
  PhaseMetrics& pm = metrics_[phase_idx];
  ++pm.stream_chunks_sent;
  pm.stream_deliveries_expected += expected;
  Bytes data(load.chunk_bytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((seq + i) & 0xFF);
  }
  it->second->stream_chunk(std::move(data));
}

void ScenarioDriver::schedule_loads(std::size_t phase_idx, TimeMicros start, TimeMicros end) {
  const Phase& ph = spec_.phases[phase_idx];
  sim::Simulator& sim = sys_->simulator();
  auto every = [&](double per_second, auto action) {
    if (per_second <= 0.0) return;
    auto gap = std::max<DurationMicros>(
        1, static_cast<DurationMicros>(static_cast<double>(kMicrosPerSecond) / per_second));
    // Strictly inside the phase: a tick on the boundary would race the next
    // phase's fault primitives (its gossip would still be in flight when a
    // partition lands) and smear attribution across phases.
    for (TimeMicros t = start + gap; t < end; t += gap) {
      sim.schedule_at(t, [this, phase_idx, action] { (this->*action)(phase_idx); });
    }
  };
  every(ph.broadcasts.per_second, &ScenarioDriver::send_scenario_broadcast);
  every(ph.churn.joins_per_minute / 60.0, &ScenarioDriver::start_churn_join);
  every(ph.churn.leaves_per_minute / 60.0, &ScenarioDriver::start_churn_leave);
  every(ph.stream.chunks_per_second, &ScenarioDriver::send_stream_chunk);
  if (ph.flash_joiners > 0) {
    DurationMicros gap = ph.duration / static_cast<DurationMicros>(ph.flash_joiners + 1);
    gap = std::max<DurationMicros>(1, gap);
    for (std::size_t j = 0; j < ph.flash_joiners; ++j) {
      sim.schedule_at(start + gap * static_cast<DurationMicros>(j + 1),
                      [this, phase_idx] { start_churn_join(phase_idx); });
    }
  }
}

// ---------------------------------------------------------------------------
// Registry samples and time-series telemetry
// ---------------------------------------------------------------------------

obs::Sample ScenarioDriver::sample_registry() {
  return sys_->metrics().sample(sys_->simulator().now());
}

void ScenarioDriver::sample_time_series() {
  obs::Sample now = sample_registry();
  TimeSeriesPoint p;
  p.at = now.at;
  p.broadcasts_sent = delta(tick_base_, now, "scenario.broadcasts_sent");
  p.deliveries = delta(tick_base_, now, "scenario.deliveries");
  p.window = read_window(tick_base_, now);
  tick_base_ = std::move(now);

  // Windowed delivery rate over *settled* broadcasts — records at least
  // one full interval old, so deliveries still in flight (latency is
  // milliseconds, the interval is ~seconds) do not read as losses. The
  // ratio spans the last kRatioWindow settled broadcasts: a single
  // broadcast's fate is bimodal under a partition (its origin side gets
  // it, the other side does not), so the trailing window is what turns
  // the series into a readable ~minority-weighted level. Intervals in
  // which no broadcast settled carry the previous ratio forward.
  const TimeMicros settled = p.at - spec_.metrics_interval;
  bool fresh = false;
  while (ts_bcast_idx_ < bcasts_.size() && bcasts_[ts_bcast_idx_].sent_at <= settled) {
    const BcastRecord& rec = bcasts_[ts_bcast_idx_++];
    ts_window_.emplace_back(rec.expected, rec.delivered);
    if (ts_window_.size() > kRatioWindow) ts_window_.pop_front();
    fresh = true;
  }
  if (fresh) {
    std::uint64_t win_expected = 0;
    std::uint64_t win_delivered = 0;
    for (const auto& [e, d] : ts_window_) {
      win_expected += e;
      win_delivered += d;
    }
    if (win_expected > 0) {
      ts_ratio_ = static_cast<double>(win_delivered) / static_cast<double>(win_expected);
    }
  }
  p.delivery_ratio = ts_ratio_;
  series_.push_back(p);
}

// ---------------------------------------------------------------------------
// Phase snapshots and the run loop
// ---------------------------------------------------------------------------

void ScenarioDriver::snapshot_phase(std::size_t phase_idx) {
  PhaseMetrics& pm = metrics_[phase_idx];
  obs::Sample now = sample_registry();
  pm.end = now.at;
  pm.window = read_window(phase_base_, now);
  phase_base_ = std::move(now);

  std::uint64_t evicted = 0;
  for (NodeId id : all_ids_) {
    if (!ever_joined_.contains(id) || killed_.contains(id)) continue;
    if (leave_requested_.contains(id) || converted_.contains(id)) continue;
    if (sys_->has_node(id) && !sys_->node(id).joined()) ++evicted;
  }
  pm.correct_evicted_end = evicted;
}

ScenarioReport ScenarioDriver::run() {
  if (ran_) throw std::logic_error("ScenarioDriver::run: already ran");
  ran_ = true;

  metrics_.resize(spec_.phases.size());
  latencies_ms_.resize(spec_.phases.size());
  for (NodeId id : all_ids_) ever_joined_.insert(id);
  phase_base_ = sample_registry();
  tick_base_ = phase_base_;

  sim::Simulator& sim = sys_->simulator();
  // Bookkeeper: polls join/leave completions once per sim-second.
  sim::PeriodicTimer keeper(sim, seconds(1.0), [this] { poll_pending_ops(); });
  std::optional<sim::PeriodicTimer> sampler;
  if (spec_.metrics_interval > 0) {
    sampler.emplace(sim, spec_.metrics_interval, [this] { sample_time_series(); });
  }

  for (std::size_t i = 0; i < spec_.phases.size(); ++i) {
    const Phase& ph = spec_.phases[i];
    metrics_[i].name = ph.name;
    metrics_[i].start = sim.now();
    apply_one_shots(i);
    if (ph.stream.any()) ensure_stream(i);
    schedule_loads(i, sim.now(), sim.now() + ph.duration);
    sim.run_until(metrics_[i].start + ph.duration);
    poll_pending_ops();
    snapshot_phase(i);
  }

  // Drain: in-flight deliveries/joins complete, attributed to their phases.
  sim.run_until(sim.now() + spec_.drain);
  if (sampler) sampler->stop();
  keeper.stop();
  poll_pending_ops();

  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Samples& s = latencies_ms_[i];
    metrics_[i].latency_samples = s.count();
    if (!s.empty()) {
      metrics_[i].latency_ms_p50 = s.percentile(0.50);
      metrics_[i].latency_ms_p95 = s.percentile(0.95);
      metrics_[i].latency_ms_p99 = s.percentile(0.99);
      metrics_[i].latency_ms_max = s.max();
    }
  }

  ScenarioReport report;
  report.scenario = spec_.name;
  report.seed = spec_.seed;
  report.initial_nodes = spec_.nodes;
  report.phases = metrics_;
  report.metrics_interval = spec_.metrics_interval;
  report.time_series = series_;
  const obs::Sample end = sample_registry();
  report.sim_end = end.at;
  report.totals = read_window(deploy_base_, end);
  return report;
}

std::vector<std::string> ScenarioDriver::check(const ScenarioSpec& spec,
                                               const ScenarioReport& report) {
  std::vector<std::string> violations;
  auto add = [&](const std::string& line) { violations.push_back(line); };
  char buf[256];
  for (const Expectation& e : spec.expectations) {
    const PhaseMetrics* p = report.phase(e.phase);
    if (p == nullptr) {
      add("expectation references phase '" + e.phase + "' missing from the report");
      continue;
    }
    if (e.min_delivery_ratio >= 0.0 && p->delivery_ratio() < e.min_delivery_ratio) {
      std::snprintf(buf, sizeof buf, "phase '%s': delivery ratio %.4f < required %.4f",
                    e.phase.c_str(), p->delivery_ratio(), e.min_delivery_ratio);
      add(buf);
    }
    if (!e.at_least_phase.empty()) {
      const PhaseMetrics* q = report.phase(e.at_least_phase);
      if (q == nullptr) {
        add("expectation references phase '" + e.at_least_phase + "' missing from the report");
      } else if (p->delivery_ratio() < q->delivery_ratio() - e.tolerance) {
        std::snprintf(buf, sizeof buf,
                      "phase '%s': delivery ratio %.4f did not recover to phase '%s' level "
                      "%.4f (tolerance %.4f)",
                      e.phase.c_str(), p->delivery_ratio(), e.at_least_phase.c_str(),
                      q->delivery_ratio(), e.tolerance);
        add(buf);
      }
    }
    if (e.min_join_ratio >= 0.0 && p->join_ratio() < e.min_join_ratio) {
      std::snprintf(buf, sizeof buf, "phase '%s': join ratio %.4f < required %.4f",
                    e.phase.c_str(), p->join_ratio(), e.min_join_ratio);
      add(buf);
    }
    if (e.min_stream_ratio >= 0.0 && p->stream_ratio() < e.min_stream_ratio) {
      std::snprintf(buf, sizeof buf, "phase '%s': stream ratio %.4f < required %.4f",
                    e.phase.c_str(), p->stream_ratio(), e.min_stream_ratio);
      add(buf);
    }
    if (e.max_forced_leaves >= 0 &&
        p->leaves_forced > static_cast<std::uint64_t>(e.max_forced_leaves)) {
      std::snprintf(buf, sizeof buf,
                    "phase '%s': %" PRIu64 " forced leaves > allowed %" PRId64
                    " (leave-confirmation gap reopened)",
                    e.phase.c_str(), p->leaves_forced, e.max_forced_leaves);
      add(buf);
    }
  }
  return violations;
}

}  // namespace atum::scenario
