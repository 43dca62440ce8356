#include "core/atum.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "overlay/hgraph.h"

namespace atum::core {

namespace {

// Group-message payload envelope kinds.
constexpr std::uint8_t kGmGossip = 1;
constexpr std::uint8_t kGmWalk = 2;
constexpr std::uint8_t kGmNeighborUpdate = 3;

// The decided BroadcastOp encoding (tag, origin, seq, payload) is byte-
// identical to the kGmGossip frame, so a broadcast is relayed across the
// overlay verbatim — no relaying node ever re-encodes the gossip frame.
static_assert(kGmGossip == static_cast<std::uint8_t>(group::OpKind::kBroadcast),
              "gossip frame must alias the broadcast op encoding");

// Direct-message phases.
constexpr std::uint8_t kJoinPhaseContact = 1;  // joiner -> contact node
constexpr std::uint8_t kJoinPhaseAddMe = 2;    // joiner -> contact vgroup
constexpr std::uint8_t kReplyPhaseContact = 1; // contact -> joiner (group view)
constexpr std::uint8_t kReplyPhaseState = 2;   // admitting group -> joiner

// Heartbeat periods of silence before a member suspects a peer.
constexpr int kHeartbeatMissLimit = 3;

std::uint64_t join_nonce(NodeId joiner, std::uint64_t attempt) {
  ByteWriter w;
  w.str("atum-join");
  w.u64(joiner);
  w.u64(attempt);
  return crypto::digest_prefix64(crypto::sha256(w.data()));
}

}  // namespace

// ===========================================================================
// AtumSystem
// ===========================================================================

AtumSystem::AtumSystem(Params params, net::NetworkConfig net_config, std::uint64_t seed)
    : params_(params), net_(sim_, std::move(net_config), seed ^ 0x5a5aULL), keys_(seed),
      rng_(seed) {
  params_.validate();
  // One observability surface for the whole deployment (ISSUE 9): the
  // pre-existing ad-hoc counters stay on their hot paths and the registry
  // polls them as probes at sample() time. Sums over nodes_ are
  // order-independent, so the unordered map is safe to fold here.
  net_.bind_metrics(registry_);
  registry_.probe("sim.live_events", {}, [this] { return sim_.live_events(); });
  registry_.probe("sim.slot_count", {},
                  [this] { return static_cast<std::uint64_t>(sim_.slot_count()); });
  registry_.probe("sim.executed_events", {}, [this] { return sim_.executed_events(); });
  registry_.probe("crypto.sha256_digests", {}, [] { return crypto::sha256_digest_count(); });
  registry_.probe("atum.coalescer.frames_enqueued", {}, [this] {
    std::uint64_t n = 0;
    // lint: unordered-iter-ok(sum; order-independent)
    for (const auto& [id, node] : nodes_) n += node->coalescer().frames_enqueued();
    return n;
  });
  registry_.probe("atum.coalescer.messages_sent", {}, [this] {
    std::uint64_t n = 0;
    // lint: unordered-iter-ok(sum; order-independent)
    for (const auto& [id, node] : nodes_) n += node->coalescer().messages_sent();
    return n;
  });
  registry_.probe("atum.groups", {},
                  [this] { return static_cast<std::uint64_t>(group_map().size()); });
}

AtumSystem::~AtumSystem() {
  // lint: unordered-iter-ok(teardown; stop() order is unobservable)
  for (auto& [id, node] : nodes_) node->stop();
}

AtumNode& AtumSystem::add_node(NodeId id, NodeBehavior behavior) {
  auto [it, inserted] = nodes_.try_emplace(id, nullptr);
  if (inserted) {
    it->second = std::make_unique<AtumNode>(*this, id, behavior);
  }
  return *it->second;
}

AtumNode& AtumSystem::node(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::invalid_argument("AtumSystem: unknown node");
  return *it->second;
}

std::vector<NodeId> AtumSystem::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  // lint: unordered-iter-ok(output is sorted below)
  for (const auto& [id, _] : nodes_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void AtumSystem::deploy(const std::vector<NodeId>& ids) {
  if (ids.empty()) throw std::invalid_argument("AtumSystem::deploy: no nodes");
  std::size_t target = std::clamp<std::size_t>((params_.gmin + params_.gmax) / 2,
                                               std::size_t{1}, params_.gmax);
  // Partition into vgroups.
  std::vector<std::vector<NodeId>> groups;
  for (std::size_t i = 0; i < ids.size(); i += target) {
    std::size_t end = std::min(i + target, ids.size());
    groups.emplace_back(ids.begin() + static_cast<long>(i), ids.begin() + static_cast<long>(end));
  }
  // A too-small trailing group is folded into the previous one (deploy must
  // respect gmin just as the merge rule would).
  if (groups.size() > 1 && groups.back().size() < params_.gmin) {
    auto tail = std::move(groups.back());
    groups.pop_back();
    groups.back().insert(groups.back().end(), tail.begin(), tail.end());
  }

  std::vector<GroupId> gids;
  overlay::HGraph graph(params_.hc);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    GroupId g = mint_group_id();
    gids.push_back(g);
    if (i == 0) {
      graph.add_first(g);
    } else {
      graph.insert_random(g, rng_);
    }
  }

  auto view_of = [&](GroupId g) {
    auto it = std::find(gids.begin(), gids.end(), g);
    std::size_t idx = static_cast<std::size_t>(it - gids.begin());
    group::GroupView v;
    v.id = g;
    v.members = groups[idx];
    std::sort(v.members.begin(), v.members.end());
    return v;
  };

  for (std::size_t i = 0; i < groups.size(); ++i) {
    group::VGroupState state(gids[i], groups[i], params_.hc);
    for (std::size_t c = 0; c < params_.hc; ++c) {
      state.set_successor(c, view_of(graph.successor(c, gids[i])));
      state.set_predecessor(c, view_of(graph.predecessor(c, gids[i])));
    }
    for (NodeId n : groups[i]) {
      add_node(n);  // no-op when the caller pre-registered behaviors
      node(n).start_with_state(state);
    }
  }
}

std::map<GroupId, std::vector<NodeId>> AtumSystem::group_map() const {
  std::map<GroupId, std::vector<NodeId>> out;
  // lint: unordered-iter-ok(keys land in a sorted map, members sorted below)
  for (const auto& [id, node] : nodes_) {
    if (node->joined()) out[node->group_id()].push_back(id);
  }
  for (auto& [g, members] : out) std::sort(members.begin(), members.end());
  return out;
}

// ===========================================================================
// AtumNode: lifecycle
// ===========================================================================

AtumNode::AtumNode(AtumSystem& system, NodeId id, NodeBehavior behavior)
    : sys_(system),
      id_(id),
      behavior_(behavior),
      transport_(system.network(), id),
      rng_(system.rng().next_u64() ^ id),
      coalescer_(transport_, rng_) {
  coalescer_.set_tracer(&system.tracer());
  transport_.listen({net::MsgType::kJoinRequest, net::MsgType::kJoinReply,
                     net::MsgType::kHeartbeat},
                    [this](const net::Message& m) { on_direct(m); });
}

AtumNode::~AtumNode() { stop(); }

void AtumNode::stop() {
  coalescer_.discard();
  heartbeat_timer_.reset();
  if (smr_) smr_->stop();
  smr_.reset();
  gm_rx_.reset();
  transport_.close();
  runtime_active_ = false;
}

void AtumNode::bootstrap() {
  group::VGroupState state(sys_.mint_group_id(), {id_}, sys_.params().hc);
  // The single vgroup is its own neighbor on every cycle (§3.3.1).
  group::GroupView self_view{state.id(), {id_}};
  for (std::size_t c = 0; c < sys_.params().hc; ++c) {
    state.set_successor(c, self_view);
    state.set_predecessor(c, self_view);
  }
  start_with_state(std::move(state));
}

void AtumNode::start_with_state(group::VGroupState state) {
  vg_ = std::move(state);
  join_wait_ = JoinWait{};
  setup_runtime();
}

void AtumNode::setup_runtime() {
  heartbeat_timer_.reset();
  if (smr_) smr_->stop();

  smr::EngineOptions opt;
  opt.kind = sys_.params().engine;
  opt.ds.round_duration = sys_.params().round_duration;
  opt.ds.verify_signatures = sys_.params().verify_signatures;
  opt.pbft.view_change_timeout = sys_.params().view_change_timeout;
  opt.pbft.verify_signatures = sys_.params().verify_signatures;
  opt.pbft.checkpoint_interval = sys_.params().checkpoint_interval;
  opt.pbft.metrics = &sys_.metrics();
  opt.pbft.tracer = &sys_.tracer();
  // §6.1.3: faulty nodes do not participate in any protocol (the evictor
  // keeps heartbeating so it is not removed).
  opt.silent = behavior_ != NodeBehavior::kCorrect;

  smr::GroupConfig cfg;
  cfg.members = vg_.members();
  // One-shot: a join snapshot's chain position applies to exactly the
  // runtime it admitted; bootstrap/deploy paths derive genesis instead.
  std::optional<smr::EpochState> resume = resume_epoch_;
  resume_epoch_.reset();
  smr_ = std::make_unique<smr::ReconfigurableSmr>(sys_.network(), id_, cfg, sys_.keys(), opt,
                                                  resume);
  smr_->set_decide_handler([this](std::uint64_t seq, NodeId origin, const net::Payload& op) {
    on_smr_decide(seq, origin, op);
  });
  smr_->set_config_handler([this](std::uint64_t epoch, const smr::GroupConfig& config) {
    on_config_change(epoch, config);
  });

  gm_rx_ = std::make_unique<overlay::GroupMessageReceiver>(
      net::Transport(sys_.network(), id_),
      [this](GroupId g) -> const std::vector<NodeId>* {
        const group::GroupView* v = vg_.find_group(g);
        return v == nullptr ? nullptr : &v->members;
      },
      [this](const overlay::GroupMessageId& id, net::Payload payload) {
        on_group_message(id, std::move(payload));
      });
  gm_rx_->set_tracer(&sys_.tracer());

  if (behavior_ != NodeBehavior::kSilent) {
    heartbeat_timer_ = std::make_unique<sim::PeriodicTimer>(
        sys_.simulator(), sys_.params().heartbeat_period, [this] { heartbeat_tick(); });
  }
  last_seen_.clear();
  for (NodeId peer : vg_.members()) last_seen_[peer] = sys_.simulator().now();
  accusations_.clear();
  runtime_active_ = true;
}

// ===========================================================================
// §3.3 API
// ===========================================================================

void AtumNode::set_behavior(NodeBehavior behavior) {
  if (behavior == behavior_) return;
  behavior_ = behavior;
  if (!runtime_active_) return;
  if (smr_) smr_->set_silent(behavior_ != NodeBehavior::kCorrect);
  // Heartbeating follows the behavior: silent nodes fall quiet (and get
  // evicted), every other behavior keeps the timer (the evictor depends on
  // it to avoid eviction).
  if (behavior_ == NodeBehavior::kSilent) {
    heartbeat_timer_.reset();
  } else if (!heartbeat_timer_) {
    heartbeat_timer_ = std::make_unique<sim::PeriodicTimer>(
        sys_.simulator(), sys_.params().heartbeat_period, [this] { heartbeat_tick(); });
  }
}

void AtumNode::join(NodeId contact) {
  if (runtime_active_) throw std::logic_error("AtumNode::join: already joined");
  ByteWriter w;
  w.u8(kJoinPhaseContact);
  w.u64(id_);
  w.u64(++walk_nonce_);  // join attempt number
  transport_.send(contact, net::MsgType::kJoinRequest, w.take());
}

void AtumNode::leave() {
  if (!runtime_active_) return;
  std::vector<NodeId> rest;
  for (NodeId n : vg_.members()) {
    if (n != id_) rest.push_back(n);
  }
  if (rest.empty()) {
    stop();  // last node of the system simply shuts down
    return;
  }
  smr::GroupConfig cfg;
  cfg.members = rest;
  smr_->propose_reconfig(cfg);
}

void AtumNode::broadcast(Bytes payload) {
  if (!runtime_active_) throw std::logic_error("AtumNode::broadcast: not joined");
  group::BroadcastOp op;
  op.bcast = BroadcastId{id_, ++bcast_seq_};
  op.payload = std::move(payload);
  Bytes wire = op.encode();
  obs::Tracer& tr = sys_.tracer();
  if (tr.enabled()) {
    // The op encoding IS the gossip frame (static_assert above), so this
    // digest prefix is the key every later hop of the broadcast records.
    tr.record(sys_.simulator().now(), id_, obs::TracePoint::kSend,
              crypto::digest_prefix64(crypto::sha256(wire)), op.bcast.seq);
  }
  smr_->propose(std::move(wire));
}

// ===========================================================================
// SMR plumbing
// ===========================================================================

void AtumNode::on_smr_decide(std::uint64_t, NodeId origin, const net::Payload& wire) {
  group::DecodedOp op;
  try {
    op = group::decode_op(wire);
  } catch (const SerdeError&) {
    return;  // faulty origin proposed garbage
  }
  switch (op.kind) {
    case group::OpKind::kBroadcast: {
      if (op.broadcast.bcast.origin != origin) return;  // forged origin
      // The decided op IS the gossip frame (see static_assert above), so
      // its digest prefix is the seq every group message carrying it uses:
      // record it in the receiver's delivered set, and do nothing if a
      // group message delivered it first. Relay the buffer we already hold
      // instead of re-encoding it.
      if (!gm_rx_->note_delivered(crypto::digest_prefix64(wire.digest()))) return;
      accept_broadcast(op.broadcast.bcast, op.broadcast.payload, wire);
      break;
    }
    case group::OpKind::kSuspect: {
      if (!vg_.has_member(origin) || !vg_.has_member(op.suspect.suspect)) return;
      if (op.suspect.suspect == origin) return;
      accusations_[op.suspect.suspect].insert(origin);
      evaluate_suspicions();
      break;
    }
    case group::OpKind::kStartWalk: {
      if (!walks_started_.insert(op.walk.nonce).second) return;  // dedup
      // Deterministic bulk RNG (§5.1): minted now, seeded by agreed state.
      ByteWriter seed_w;
      seed_w.str("atum-walk-rng");
      seed_w.u64(vg_.id());
      seed_w.u64(smr_ ? smr_->epoch() : 0);
      seed_w.u64(op.walk.nonce);
      Rng walk_rng(crypto::digest_prefix64(crypto::sha256(seed_w.data())));
      auto walk = overlay::WalkState::start(
          overlay::WalkId{vg_.id(), op.walk.nonce},
          static_cast<overlay::WalkPurpose>(op.walk.purpose),
          static_cast<std::uint32_t>(sys_.params().rwl), op.walk.payload, walk_rng);
      forward_walk(std::move(walk));
      break;
    }
  }
}

void AtumNode::on_config_change(std::uint64_t, const smr::GroupConfig& config) {
  if (!config.contains(id_)) {
    // Reconfigured out: leave/eviction completed for this node.
    stop();
    return;
  }
  std::vector<NodeId> old_members = vg_.members();
  vg_.set_members(config.members);

  // Membership bookkeeping.
  for (auto it = accusations_.begin(); it != accusations_.end();) {
    if (!vg_.has_member(it->first)) {
      it = accusations_.erase(it);
    } else {
      std::erase_if(it->second, [&](NodeId a) { return !vg_.has_member(a); });
      ++it;
    }
  }
  // lint: unordered-iter-ok(erase predicate is per-entry, order-free)
  last_seen_.erase_if([this](const auto& entry) { return !vg_.has_member(entry.first); });
  for (NodeId n : vg_.members()) {
    if (!last_seen_.contains(n)) last_seen_[n] = sys_.simulator().now();
  }

  // Tell neighbors about the new composition (§3.2).
  send_neighbor_updates();

  // Send the replicated state to newly admitted members (§3.3.2: "j
  // synchronizes its state with D").
  if (is_sender_behavior()) {
    // Snapshot and freeze once; every newly admitted member shares it.
    net::Payload reply;
    for (NodeId n : vg_.members()) {
      if (std::find(old_members.begin(), old_members.end(), n) != old_members.end()) continue;
      if (n == id_) continue;
      if (reply.empty()) {
        ByteWriter w;
        w.u8(kReplyPhaseState);
        w.bytes(snapshot_state());
        reply = net::Payload(w.take());
      }
      transport_.send(n, net::MsgType::kJoinReply, reply);
    }
  }
}

void AtumNode::evaluate_suspicions() {
  const std::size_t f = smr::max_faults(sys_.params().engine, vg_.size());
  for (const auto& [suspect, accusers] : accusations_) {
    if (accusers.size() < f + 1) continue;
    std::vector<NodeId> rest;
    for (NodeId n : vg_.members()) {
      if (n != suspect) rest.push_back(n);
    }
    if (rest.empty() || !smr_) continue;
    smr::GroupConfig cfg;
    cfg.members = rest;
    smr_->propose_reconfig(cfg);
  }
}

// ===========================================================================
// Group messages & gossip
// ===========================================================================

std::optional<overlay::PreparedGroupMessage> AtumNode::prepare_group_payload(
    const net::Payload& payload) const {
  if (!is_sender_behavior()) return std::nullopt;  // Byzantine members do not contribute
  return overlay::PreparedGroupMessage(vg_.members(), id_, vg_.id(), payload);
}

void AtumNode::send_group_payload(const group::GroupView& dest, const net::Payload& payload) {
  auto msg = prepare_group_payload(payload);
  if (msg) msg->send_to(coalescer_, dest.members);
}

void AtumNode::send_neighbor_updates() {
  ByteWriter w;
  w.u8(kGmNeighborUpdate);
  group::GroupView self{vg_.id(), vg_.members()};
  self.encode(w);
  // Encode + freeze once; every neighbor group shares the same frame.
  auto msg = prepare_group_payload(w.take());
  if (!msg) return;
  for (const group::GroupView& g : vg_.known_groups()) {
    if (g.id == vg_.id()) continue;
    msg->send_to(coalescer_, g.members);
  }
}

void AtumNode::on_group_message(const overlay::GroupMessageId& gm_id, net::Payload payload) {
  if (behavior_ == NodeBehavior::kSilent) return;
  try {
    ByteReader r(payload);
    std::uint8_t kind = r.u8();
    switch (kind) {
      case kGmGossip: {
        BroadcastId id{r.u64(), r.u64()};
        // The broadcast body is a slice of the received frame; the frame
        // itself is relayed verbatim. Neither is ever copied.
        net::Payload body = payload.slice(r.bytes_view());
        accept_broadcast(id, body, payload);
        break;
      }
      case kGmWalk: {
        handle_walk(overlay::WalkState::decode(r.bytes()));
        break;
      }
      case kGmNeighborUpdate: {
        group::GroupView v = group::GroupView::decode(r);
        if (v.id == gm_id.from_group) {
          vg_.refresh_neighbor(v);
          if (gm_rx_) gm_rx_->reevaluate();
        }
        break;
      }
      default:
        break;
    }
  } catch (const SerdeError&) {
    // A majority of a robust vgroup never produces garbage; ignore.
  }
}

void AtumNode::accept_broadcast(const BroadcastId& id, const net::Payload& payload,
                                const net::Payload& frame) {
  obs::Tracer& tr = sys_.tracer();
  if (tr.enabled()) {
    // frame.digest() is memoized and shared with the vouch/relay paths.
    tr.record(sys_.simulator().now(), id_, obs::TracePoint::kDeliver,
              crypto::digest_prefix64(frame.digest()), id.origin);
  }
  if (behavior_ == NodeBehavior::kCorrect && deliver_) deliver_(id.origin, payload);
  relay_gossip(id, payload, frame);
}

void AtumNode::relay_gossip(const BroadcastId& id, const net::Payload& payload,
                            const net::Payload& frame) {
  if (!is_sender_behavior()) return;
  const overlay::NeighborRefs relays =
      overlay::choose_relays(forward_, id, payload, vg_.neighbor_refs());
  if (relays.empty()) return;
  // One wire frame (wrapping the received gossip frame verbatim) + one
  // digest for the whole relay fan-out; every neighbor group and every
  // member within it shares the same frozen buffer.
  auto msg = prepare_group_payload(frame);
  if (!msg) return;
  // Overlapping neighbor member sets (several neighbor groups can contain
  // the same physical node) and multiple broadcasts decided in one tick
  // all coalesce per destination here. The coalescer makes room for the
  // whole fan-out at once.
  std::array<const group::GroupView*, overlay::NeighborRefs::kCapacity> views{};
  std::size_t fanned = 0;
  for (std::size_t i = 0; i < relays.size(); ++i) {
    views[i] = vg_.find_group(relays[i].group);
    if (views[i] != nullptr) fanned += views[i]->members.size();
  }
  coalescer_.reserve(fanned);
  for (std::size_t i = 0; i < relays.size(); ++i) {
    if (views[i] != nullptr) msg->send_to(coalescer_, views[i]->members);
  }
  obs::Tracer& tr = sys_.tracer();
  if (tr.enabled() && fanned > 0) {
    tr.record(sys_.simulator().now(), id_, obs::TracePoint::kRelay,
              crypto::digest_prefix64(frame.digest()), fanned, relays.size());
  }
}

// ===========================================================================
// Walks
// ===========================================================================

void AtumNode::forward_walk(overlay::WalkState walk) {
  auto refs = vg_.neighbor_refs();
  if (refs.empty()) {
    // Degenerate overlay (single vgroup): the walk terminates here.
    walk.step = walk.rwl;
    handle_walk(std::move(walk));
    return;
  }
  if (walk.done()) {
    handle_walk(std::move(walk));
    return;
  }
  std::size_t idx = walk.pick_link(refs.size());
  const group::GroupView* view = vg_.find_group(refs[idx].group);
  if (view == nullptr) return;
  walk.step += 1;
  walk.path.push_back(vg_.id());

  ByteWriter w;
  w.u8(kGmWalk);
  w.bytes(walk.encode());
  send_group_payload(*view, w.take());
}

void AtumNode::handle_walk(overlay::WalkState walk) {
  if (!walk.done()) {
    forward_walk(std::move(walk));
    return;
  }
  switch (walk.purpose) {
    case overlay::WalkPurpose::kJoinPlacement: {
      ByteReader r(walk.payload);
      NodeId joiner = r.u64();
      if (vg_.has_member(joiner) || !smr_) return;
      std::vector<NodeId> next = vg_.members();
      next.push_back(joiner);
      smr::GroupConfig cfg;
      cfg.members = next;
      smr_->propose_reconfig(cfg);
      break;
    }
    default:
      break;  // sampling walks terminate here; purpose handled by callers
  }
}

// ===========================================================================
// Direct messages: join handshake & heartbeats
// ===========================================================================

Bytes AtumNode::snapshot_state() const {
  ByteWriter w;
  w.u64(vg_.id());
  w.vec(vg_.members(), [](ByteWriter& bw, NodeId n) { bw.u64(n); });
  w.varint(vg_.cycle_count());
  for (std::size_t c = 0; c < vg_.cycle_count(); ++c) {
    vg_.cycle(c).successor.encode(w);
    vg_.cycle(c).predecessor.encode(w);
  }
  // Config-history chain position: the snapshot is sent right after the
  // epoch that admitted the joiner switched in, so the joiner's engine tag
  // matches the incumbents' current instance.
  smr::EpochState es;
  if (smr_) {
    es.epoch = smr_->epoch();
    es.hash = smr_->epoch_hash();
  }
  w.u64(es.epoch);
  w.raw(es.hash.data(), es.hash.size());
  return w.take();
}

group::VGroupState AtumNode::decode_state(const Bytes& wire, std::size_t cycles,
                                          smr::EpochState& epoch_out) {
  ByteReader r(wire);
  GroupId id = r.u64();
  auto members = r.vec<NodeId>([](ByteReader& br) { return br.u64(); });
  std::uint64_t hc = r.varint();
  if (hc != cycles) throw SerdeError("snapshot cycle count mismatch");
  group::VGroupState state(id, members, cycles);
  for (std::size_t c = 0; c < cycles; ++c) {
    state.set_successor(c, group::GroupView::decode(r));
    state.set_predecessor(c, group::GroupView::decode(r));
  }
  epoch_out.epoch = r.u64();
  r.raw(epoch_out.hash.data(), epoch_out.hash.size());
  r.expect_done();
  return state;
}

void AtumNode::on_direct(const net::Message& msg) {
  if (behavior_ == NodeBehavior::kSilent) return;
  try {
    switch (msg.type) {
      case net::MsgType::kHeartbeat: {
        // Only members are watched (heartbeat_tick), so only they are kept.
        if (TimeMicros* seen = last_seen_.find(msg.from)) *seen = sys_.simulator().now();
        break;
      }
      case net::MsgType::kJoinRequest: {
        ByteReader r(msg.payload);
        std::uint8_t phase = r.u8();
        NodeId joiner = r.u64();
        std::uint64_t attempt = r.u64();
        if (joiner != msg.from || !runtime_active_) return;
        if (phase == kJoinPhaseContact) {
          // §3.3.2: the contact replies with the composition of its vgroup
          // (the only step where the joiner must trust a single node).
          if (behavior_ != NodeBehavior::kCorrect) return;
          ByteWriter w;
          w.u8(kReplyPhaseContact);
          group::GroupView view{vg_.id(), vg_.members()};
          view.encode(w);
          transport_.send(joiner, net::MsgType::kJoinReply, w.take());
        } else if (phase == kJoinPhaseAddMe) {
          // Every member proposes the walk launch; SMR dedups via nonce.
          if (!smr_ || vg_.has_member(joiner)) return;
          group::StartWalkOp op;
          op.purpose = static_cast<std::uint8_t>(overlay::WalkPurpose::kJoinPlacement);
          op.nonce = join_nonce(joiner, attempt);
          ByteWriter pw;
          pw.u64(joiner);
          op.payload = pw.take();
          smr_->propose(op.encode());
        }
        break;
      }
      case net::MsgType::kJoinReply: {
        ByteReader r(msg.payload);
        std::uint8_t phase = r.u8();
        if (phase == kReplyPhaseContact) {
          if (runtime_active_) return;
          group::GroupView view = group::GroupView::decode(r);
          // Ask every member of the contact vgroup to add us (§3.3.2).
          join_wait_.active = true;
          ByteWriter w;
          w.u8(kJoinPhaseAddMe);
          w.u64(id_);
          w.u64(walk_nonce_);
          net::Payload req(w.take());  // one buffer for the whole vgroup
          for (NodeId n : view.members) {
            transport_.send(n, net::MsgType::kJoinRequest, req);
          }
        } else if (phase == kReplyPhaseState) {
          if (runtime_active_ || !join_wait_.active) return;
          Bytes snapshot = r.bytes();
          smr::EpochState epoch;
          group::VGroupState state = decode_state(snapshot, sys_.params().hc, epoch);
          if (!state.has_member(id_) || !state.has_member(msg.from)) return;
          crypto::Digest d = crypto::sha256(snapshot);
          join_wait_.votes.add(msg.from, d, state.size());
          // Accept once a majority of the PREVIOUS composition (everyone in
          // the view except ourselves) vouches for the identical state.
          std::size_t senders = state.size() > 1 ? state.size() - 1 : 1;
          std::size_t majority = senders / 2 + 1;
          if (join_wait_.votes.reaches(d, majority)) {
            // The vouched snapshot carries the group's chain position; the
            // runtime below resumes the epoch chain there.
            resume_epoch_ = epoch;
            start_with_state(std::move(state));
          }
        }
        break;
      }
      default:
        break;
    }
  } catch (const SerdeError&) {
    // Malformed direct message: sender is faulty.
  }
}

void AtumNode::heartbeat_tick() {
  if (!runtime_active_) return;
  for (NodeId peer : vg_.members()) {
    if (peer == id_) continue;
    transport_.send(peer, net::MsgType::kHeartbeat, {});
  }
  if (behavior_ == NodeBehavior::kByzantineEvictor) {
    // §6.1.3: pretend not to receive heartbeats and periodically propose to
    // evict correct nodes. (The silent engine drops the proposal, and even
    // a delivered accusation never reaches the f+1 quorum.)
    for (NodeId peer : vg_.members()) {
      if (peer == id_ || !smr_) continue;
      group::SuspectOp op;
      op.suspect = peer;
      smr_->propose(op.encode());
    }
    return;
  }
  if (behavior_ != NodeBehavior::kCorrect) return;

  const DurationMicros deadline = kHeartbeatMissLimit * sys_.params().heartbeat_period;
  for (NodeId peer : vg_.members()) {
    if (peer == id_) continue;
    const TimeMicros* last = last_seen_.find(peer);
    TimeMicros seen = last == nullptr ? 0 : *last;
    if (sys_.simulator().now() - seen > deadline && smr_) {
      group::SuspectOp op;
      op.suspect = peer;
      smr_->propose(op.encode());
    }
  }
}

}  // namespace atum::core
