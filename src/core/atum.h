// Atum: the group communication middleware (§3).
//
// AtumNode is the per-node runtime: it owns the node's replica of its
// vgroup's SMR engine, the group-message endpoint (whose delivered set is
// the node's one record of delivered content), the gossip forward policy,
// and the heartbeat/eviction machinery, and it exposes the §3.3 API —
// bootstrap / join / leave / broadcast plus the deliver and forward
// callbacks.
//
// AtumSystem is the deployment context (simulator, network, key store,
// parameters) plus a harness for creating nodes and for instant deployment
// of an already-grown system ("start from checkpoint"), which is how the
// evaluation instantiates its 200-850 node systems before measuring.
//
// Protocol notes (fidelity vs the paper):
//  * join follows §3.3.2: the joiner contacts a member, the contact's
//    vgroup agrees on the request and launches a placement walk; the walk
//    hops vgroup-to-vgroup as group messages; the selected vgroup admits
//    the joiner through an SMR reconfiguration and sends it the replicated
//    state directly (the paper relays the composition through the contact
//    group; the direct reply is equivalent and saves one backward phase).
//  * walk randomness is derived deterministically from agreed group state
//    (group id, epoch, nonce); the paper's distributed bulk RNG [46] has
//    the same timing but stronger unpredictability. §5.1's key point —
//    numbers minted only once their purpose is fixed — is preserved.
//  * full-group shuffling and splits are modelled, for growth only, at
//    vgroup granularity in group::ClusterSim (see ARCHITECTURE.md); the
//    node-level runtime keeps vgroups static in size apart from
//    join/leave/eviction, and neither splits nor merges them.
//
// Payload ownership (README "Payload API"): broadcast() freezes the
// application bytes once; everything above the transport then works on
// refcounted net::Payload views — the decided op is sliced out of the SMR
// frame, delivered to DeliverFn as a view, and relayed across the overlay
// verbatim (the BroadcastOp encoding doubles as the gossip frame). A node
// materializes at most one new buffer per broadcast (its own outgoing
// group-message wire frame), however many groups and members it fans out
// to.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/params.h"
#include "crypto/keys.h"
#include "group/vgroup_state.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "overlay/gossip.h"
#include "overlay/group_message.h"
#include "overlay/random_walk.h"
#include "sim/simulator.h"
#include "smr/reconfig.h"

namespace atum::core {

class AtumNode;

// Fault behaviors used by the evaluation (§6.1.3).
enum class NodeBehavior {
  kCorrect,
  // Fully silent (Async experiments: "faulty nodes stay quiet").
  kSilent,
  // Sync experiments: keeps heartbeating so it is not evicted, otherwise
  // participates in nothing, and periodically proposes evicting correct
  // nodes from its vgroup.
  kByzantineEvictor,
};

class AtumSystem {
 public:
  AtumSystem(Params params, net::NetworkConfig net_config, std::uint64_t seed = 0xa70aULL);
  ~AtumSystem();
  AtumSystem(const AtumSystem&) = delete;
  AtumSystem& operator=(const AtumSystem&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::SimNetwork& network() { return net_; }
  crypto::KeyStore& keys() { return keys_; }
  const Params& params() const { return params_; }
  Rng& rng() { return rng_; }

  // The system-wide observability surface (ISSUE 9). The registry is
  // pre-wired at construction: network counters, simulator gauges, the
  // SHA-256 digest count, and aggregate per-node stats are registered as
  // polled probes, and every node's SMR engines share the smr.* cells.
  // The tracer is disabled by default (one branch per would-be event);
  // tracer().enable(...) turns on message-lifecycle recording.
  obs::Registry& metrics() { return registry_; }
  obs::Tracer& tracer() { return tracer_; }

  AtumNode& add_node(NodeId id, NodeBehavior behavior = NodeBehavior::kCorrect);
  AtumNode& node(NodeId id);
  bool has_node(NodeId id) const { return nodes_.contains(id); }
  std::vector<NodeId> node_ids() const;

  // Instant deployment: partitions `ids` into vgroups of size
  // ~(gmin+gmax)/2, builds the H-graph, and starts every runtime. Nodes
  // must have been added beforehand (or are added as kCorrect).
  void deploy(const std::vector<NodeId>& ids);

  // Ground truth derived from node views (verification/benching only).
  std::map<GroupId, std::vector<NodeId>> group_map() const;

  GroupId mint_group_id() { return next_group_id_++; }

 private:
  Params params_;
  sim::Simulator sim_;
  net::SimNetwork net_;
  crypto::KeyStore keys_;
  Rng rng_;
  obs::Registry registry_;
  obs::Tracer tracer_;
  std::unordered_map<NodeId, std::unique_ptr<AtumNode>> nodes_;
  GroupId next_group_id_ = 1;
};

class AtumNode {
 public:
  // deliver(message) callback (§3.3): origin identifies the broadcaster.
  // The payload is a refcounted view shared with the relay machinery (one
  // materialization per node, however large the fan-out); copy via
  // to_bytes() only if the application archives it past the callback.
  using DeliverFn = std::function<void(NodeId origin, const net::Payload& payload)>;

  AtumNode(AtumSystem& system, NodeId id, NodeBehavior behavior);
  ~AtumNode();
  AtumNode(const AtumNode&) = delete;
  AtumNode& operator=(const AtumNode&) = delete;

  NodeId id() const { return id_; }
  NodeBehavior behavior() const { return behavior_; }

  // Runtime behavior conversion (§6.1.3 applied mid-run; the scenario
  // engine's Byzantine-storm primitive). A correct node turned faulty goes
  // protocol-silent from its next action (its SMR replica flips to the
  // silent fault mode, the evictor keeps heartbeating and starts proposing
  // evictions, the silent variant stops heartbeating and will eventually
  // be evicted); a faulty node turned correct resumes full participation.
  void set_behavior(NodeBehavior behavior);

  // ----- §3.3 API -----
  // Creates a new Atum instance: a single vgroup containing only this node.
  void bootstrap();
  // Joins the system through a contact node (§3.3.2). Asynchronous: poll
  // joined() or run the simulator until it flips.
  void join(NodeId contact);
  // Announces departure; the vgroup reconfigures this node out.
  void leave();
  // Two-phase broadcast (§3.3.4): SMR broadcast in the own vgroup, then
  // gossip across the overlay.
  void broadcast(Bytes payload);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  // The currently installed deliver callback (copy). Lets a harness chain a
  // metrics tap in front of an application handler: grab the handler, then
  // set_deliver a wrapper that calls both (see scenario::ScenarioDriver).
  DeliverFn deliver_handler() const { return deliver_; }
  void set_forward(overlay::ForwardFn fn) { forward_ = std::move(fn); }

  // ----- introspection -----
  bool joined() const { return runtime_active_; }
  GroupId group_id() const { return vg_.id(); }
  const group::VGroupState& vgroup() const { return vg_; }
  // Send-coalescing stats (benchmarks: how many per-message fixed costs
  // the envelope path saved at this node).
  const overlay::SendCoalescer& coalescer() const { return coalescer_; }
  // Peers with a heartbeat time: the vgroup's members once started.
  std::size_t heartbeat_peer_count() const { return last_seen_.size(); }

  // Used by AtumSystem::deploy and by a vgroup admitting this node.
  void start_with_state(group::VGroupState state);
  void stop();

 private:
  friend class AtumSystem;

  // --- wiring ---
  void setup_runtime();
  void on_smr_decide(std::uint64_t seq, NodeId origin, const net::Payload& op);
  void on_config_change(std::uint64_t epoch, const smr::GroupConfig& config);
  void on_group_message(const overlay::GroupMessageId& id, net::Payload payload);
  void on_direct(const net::Message& msg);

  // --- protocol actions ---
  // A broadcast arrives by two paths: the own vgroup decides it, or a
  // neighbor vgroup's group message carries it. Its first sighting, by
  // either path, delivers it and then relays it (§3.2); later sightings do
  // nothing. Both paths call this only on a first sighting: the
  // group-message receiver's delivered set, which the decide path records
  // into too, is the node's one record of delivered content. `frame` is
  // the gossip wire frame the broadcast arrived as (the decided op's
  // encoding on the SMR path) — its digest prefix is the trace key joining
  // this delivery to every other hop of the same broadcast.
  void accept_broadcast(const BroadcastId& id, const net::Payload& payload,
                        const net::Payload& frame);
  // Relays `frame` (the received kGmGossip group-message body, or the
  // decided broadcast op whose encoding doubles as that frame) verbatim to
  // the chosen neighbor groups: a relaying node never re-encodes the
  // gossip frame, it only wraps it in its own group-message wire frame —
  // the node's single payload materialization.
  void relay_gossip(const BroadcastId& id, const net::Payload& payload,
                    const net::Payload& frame);
  void handle_walk(overlay::WalkState walk);
  void forward_walk(overlay::WalkState walk);
  // Encodes `payload` as a group message from the own vgroup exactly once
  // (nullopt for non-sender behaviors); callers fan the result out to one
  // or many destination groups with zero further payload copies.
  std::optional<overlay::PreparedGroupMessage> prepare_group_payload(
      const net::Payload& payload) const;
  void send_group_payload(const group::GroupView& dest, const net::Payload& payload);
  void send_neighbor_updates();
  void heartbeat_tick();
  void evaluate_suspicions();
  Bytes snapshot_state() const;  // join reply payload
  // Decodes a join snapshot; fills `epoch_out` with the config-history
  // chain position the senders were at (threaded into the joiner's
  // ReconfigurableSmr so its instance tag matches the incumbents').
  static group::VGroupState decode_state(const Bytes& wire, std::size_t cycles,
                                         smr::EpochState& epoch_out);

  bool is_sender_behavior() const { return behavior_ == NodeBehavior::kCorrect; }

  AtumSystem& sys_;
  NodeId id_;
  NodeBehavior behavior_;
  net::Transport transport_;
  Rng rng_;
  // All group-message fan-outs route through here: frames bound for the
  // same physical destination within one tick leave as one envelope.
  overlay::SendCoalescer coalescer_;

  group::VGroupState vg_;
  std::unique_ptr<smr::ReconfigurableSmr> smr_;
  std::unique_ptr<overlay::GroupMessageReceiver> gm_rx_;
  std::unique_ptr<sim::PeriodicTimer> heartbeat_timer_;
  // The §3.3.4 forward callback; relays also always take the cycle-0
  // successor link (overlay::choose_relays).
  overlay::ForwardFn forward_ = overlay::forward_flood();
  DeliverFn deliver_;

  bool runtime_active_ = false;
  // Set from an accepted join snapshot, consumed by the next setup_runtime:
  // the fresh ReconfigurableSmr resumes the config-history hash chain at
  // the group's position instead of re-deriving genesis.
  std::optional<smr::EpochState> resume_epoch_;
  std::uint64_t bcast_seq_ = 0;
  std::uint64_t walk_nonce_ = 0;

  // Join handshake state (as the joiner).
  struct JoinWait {
    smr::VoteRecord votes;  // each member's latest snapshot digest
    bool active = false;
  } join_wait_;

  // Walk nonces already launched (dedup across members' duplicate ops).
  std::set<std::uint64_t> walks_started_;
  // Heartbeat bookkeeping: when each member, and no one else, was last
  // heard from. Iterated only to erase departed members.
  FlatMap<NodeId, TimeMicros> last_seen_;
  // suspect -> accusers whose SuspectOp was decided.
  std::map<NodeId, std::set<NodeId>> accusations_;
};

}  // namespace atum::core
