// Vgroup-granularity cluster simulator.
//
// The paper's growth (Fig 6) and exchange-suppression (Fig 13) experiments
// exercise thousands of concurrent joins on EC2. Running every one of those
// through per-node SMR message exchanges is infeasible on one machine, so
// this model simulates the system at the granularity the protocols operate
// on — whole vgroups — while keeping the *cost structure* of the real
// protocols:
//
//   * every join occupies its vgroup for one agreement (Dolev-Strong slot:
//     (f+2) rounds; PBFT: ~4 network RTTs) plus a state-transfer term that
//     grows with the number of cycles hc;
//   * random walks take rwl hops of one round / one RTT each;
//   * after every join the vgroup shuffles: one walk per member, and an
//     exchange that is SUPPRESSED when the selected partner is already busy
//     with another operation (the §7 flexibility/robustness tension);
//   * a vgroup above gmax splits as §3.3.2 describes, inserting the new
//     half into every H-graph cycle.
//
// The model covers growth only: it has no leave and no merge, so no vgroup
// ever shrinks or disappears. Churn runs on the node-level protocol
// implementation in core/atum.h, whose dynamics this simulator reproduces
// at scale (8k+ vgroups); the integration tests validate the two against
// each other.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "overlay/hgraph.h"
#include "sim/simulator.h"
#include "smr/smr.h"

namespace atum::group {

struct ClusterSimConfig {
  std::size_t hc = 5;        // H-graph cycles
  std::size_t rwl = 10;      // random-walk length
  std::size_t gmax = 14;     // split threshold
  smr::EngineKind kind = smr::EngineKind::kSync;
  DurationMicros round_duration = seconds(1.0);  // sync round
  DurationMicros net_rtt = millis(2);            // async cost basis
  bool shuffle_enabled = true;
  std::uint64_t seed = 0xc1a5c1a5ULL;
};

// lint: adhoc-counter-ok(vgroup-granularity model, not wired to a node-level AtumSystem registry)
struct ClusterSimStats {
  std::uint64_t joins_requested = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t exchanges_attempted = 0;
  std::uint64_t exchanges_completed = 0;
  std::uint64_t exchanges_suppressed = 0;
  std::uint64_t splits = 0;
  std::uint64_t walks = 0;
  std::uint64_t walk_hops = 0;
};

class ClusterSim {
 public:
  // Throws std::invalid_argument when hc is 0 (the H-graph needs a cycle).
  ClusterSim(sim::Simulator& sim, ClusterSimConfig config);

  // Creates the system with a single one-node vgroup (§3.3.1).
  void bootstrap(NodeId first_node);

  // Drives one join through the simulated protocol. Completion is
  // asynchronous; the completion callback is optional.
  void request_join(NodeId node, std::function<void()> done = nullptr);

  // Marks a node Byzantine for placement statistics.
  void mark_byzantine(NodeId node, bool byz = true);

  std::size_t node_count() const { return node_group_.size(); }
  std::size_t group_count() const { return groups_.size(); }
  std::optional<GroupId> group_of(NodeId n) const;
  std::vector<NodeId> members_of(GroupId g) const;

  const overlay::HGraph& graph() const { return graph_; }
  const ClusterSimStats& stats() const { return stats_; }

  // Fault-placement summary: for each group, the number of Byzantine
  // members and the fault threshold of the configured engine.
  struct GroupRobustness {
    GroupId group;
    std::size_t size;
    std::size_t byzantine;
    std::size_t threshold;
    bool robust() const { return byzantine <= threshold; }
  };
  std::vector<GroupRobustness> robustness_report() const;

  // Consistency invariants (tests): node<->group maps agree, H-graph
  // vertices match the groups, every cycle visits every vertex once.
  bool check_invariants(std::string* why = nullptr) const;

  // Protocol cost model (exposed for benches/tests).
  DurationMicros agreement_latency(std::size_t group_size) const;
  DurationMicros hop_latency() const;

 private:
  struct Group {
    std::set<NodeId> members;
    bool busy = false;
    std::deque<std::function<void()>> pending;  // ops waiting for the group
  };

  GroupId mint_group_id() { return next_group_id_++; }
  Group& group(GroupId g);
  const Group* find(GroupId g) const;

  // Occupies `g` for `duration`, then runs `body` and releases the group
  // (starting its next queued op).
  void occupy(GroupId g, DurationMicros duration, std::function<void()> body);
  // As occupy, but the group STAYS busy after `body`; the body must arrange
  // for release() (used to chain an agreement into a shuffle window).
  void occupy_held(GroupId g, DurationMicros duration, std::function<void()> body);
  // Runs `op` as soon as `g` is free.
  void when_free(GroupId g, std::function<void()> op);
  void release(GroupId g);
  void pump(GroupId g);

  // Picks the endpoint of an rwl-hop walk starting at `from` and calls
  // `done` with it after the simulated walk latency.
  void run_walk(GroupId from, std::function<void(GroupId)> done);

  void join_via_contact(NodeId node, GroupId contact, std::function<void()> done);
  void admit(NodeId node, GroupId target, std::function<void()> done);
  // Pre-condition: the caller already holds `g` busy. Releases it at once
  // (the walks run while the group works on) and calls `done` once every
  // exchange attempt has resolved.
  void shuffle_held(GroupId g, std::function<void()> done);
  void maybe_split(GroupId g, std::function<void()> done);
  void split(GroupId g, std::function<void()> done);

  sim::Simulator& sim_;
  ClusterSimConfig config_;
  Rng rng_;
  overlay::HGraph graph_;
  std::map<GroupId, Group> groups_;
  std::unordered_map<NodeId, GroupId> node_group_;
  std::set<NodeId> byzantine_;
  GroupId next_group_id_ = 0;
  ClusterSimStats stats_;
};

}  // namespace atum::group
