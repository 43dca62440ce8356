#include "apps/astream/astream.h"

#include <algorithm>

namespace atum::astream {

namespace {

// Tier-1 broadcast tag.
constexpr std::uint8_t kMsgDigest = 0x51;

// Tier-2 wire tags (kStreamPush payload).
constexpr std::uint8_t kAdopt = 1;  // child -> parent registration

// Pull retry deadline before failing over to the next parent.
constexpr DurationMicros kPullTimeout = seconds(1.0);

std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

AStreamNode::AStreamNode(core::AtumSystem& system, NodeId id, StreamConfig config)
    : sys_(system),
      id_(id),
      atum_(system.node(id)),
      transport_(system.network(), id),
      rng_(system.rng().next_u64() ^ (id * 77)),
      config_(config) {
  atum_.set_deliver(
      [this](NodeId origin, const net::Payload& payload) { on_deliver(origin, payload); });
  transport_.listen({net::MsgType::kStreamPush, net::MsgType::kStreamPull,
                     net::MsgType::kStreamChunk},
                    [this](const net::Message& m) { on_stream_message(m); });
}

AStreamNode::~AStreamNode() {
  sys_.simulator().cancel(pull_timer_);
  transport_.close();
}

// ---------------------------------------------------------------------------
// Forest construction (§4.3)
// ---------------------------------------------------------------------------

void AStreamNode::join_stream(NodeId source) {
  source_ = source;
  parents_.clear();
  if (id_ == source) return;  // the root has no parents

  const auto& vg = atum_.vgroup();
  // Deterministic cycle + direction that every node derives identically.
  std::size_t w = static_cast<std::size_t>(mix64(config_.stream_id) % vg.cycle_count());
  int d = static_cast<int>(mix64(config_.stream_id ^ 0xd1d1) % 2);

  // f+1 parents guarantee one correct parent when the vgroup is robust.
  const std::size_t f = smr::max_faults(sys_.params().engine, vg.size());

  const group::GroupView& tree_group =
      d == 0 ? vg.cycle(w).predecessor : vg.cycle(w).successor;
  // "The nodes which are neighbors with the source choose the source as
  // their single parent": both the source's own vgroup and the vgroup
  // adjacent to it on the chosen cycle connect directly to the root.
  if (vg.has_member(source) || tree_group.has_member(source)) {
    // Adjacent to the root: the source is the single parent (§4.3).
    parents_.push_back(source);
  } else {
    if (tree_group.known() && !tree_group.members.empty()) {
      std::vector<NodeId> pool = tree_group.members;
      rng_.shuffle(pool);
      for (std::size_t i = 0; i < pool.size() && parents_.size() < f + 1; ++i) {
        if (pool[i] != id_) parents_.push_back(pool[i]);
      }
    }
    // Shortcut parents from the other neighboring vgroups (§4.3), used when
    // the node is far from the source along the chosen cycle.
    for (const auto& ref : vg.neighbor_refs()) {
      if (ref.cycle == w) continue;
      const group::GroupView* view = vg.find_group(ref.group);
      if (view == nullptr || view->members.empty()) continue;
      NodeId pick = view->members[static_cast<std::size_t>(
          rng_.next_below(view->members.size()))];
      if (pick != id_ && pick != source &&
          std::find(parents_.begin(), parents_.end(), pick) == parents_.end()) {
        parents_.push_back(pick);
      }
    }
  }
  if (parents_.empty() && vg.size() > 1) {
    // Degenerate single-group overlay: any peer can serve as parent.
    for (NodeId n : vg.members()) {
      if (n != id_ && parents_.size() < f + 1) parents_.push_back(n);
    }
  }

  // Register with every parent so push can find us.
  ByteWriter w2;
  w2.u8(kAdopt);
  w2.u64(config_.stream_id);
  net::Payload adopt(w2.take());  // one buffer for all parents
  for (NodeId p : parents_) {
    transport_.send(p, net::MsgType::kStreamPush, adopt);
  }
}

// ---------------------------------------------------------------------------
// Source side
// ---------------------------------------------------------------------------

void AStreamNode::stream_chunk(Bytes data) {
  std::uint64_t seq = ++source_seq_;
  net::Payload chunk(std::move(data));  // frozen once, shared from here on
  crypto::Digest d = chunk.digest();    // memoized on the chunk's buffer
  digests_[seq] = d;
  verified_[seq] = std::move(chunk);
  delivered_up_to_ = seq;
  if (on_chunk_) on_chunk_(seq, verified_[seq]);  // the source delivers locally too

  // Tier 1: reliable digest dissemination through Atum.
  ByteWriter w;
  w.u8(kMsgDigest);
  w.u64(config_.stream_id);
  w.u64(seq);
  w.raw(d.data(), d.size());
  atum_.broadcast(w.take());

  // Tier 2: push the chunk down the tree; children pull what follows.
  fan_out_chunk(seq, /*include_children=*/true);
  maybe_evict_store();
}

net::Payload AStreamNode::outgoing_chunk(std::uint64_t seq) const {
  auto it = verified_.find(seq);
  if (it == verified_.end()) return {};
  if (corrupt_chunks_ && !it->second.empty()) {
    Bytes data = it->second.to_bytes();  // a corrupted copy, never the store
    data[0] ^= 0xFF;
    return net::Payload(std::move(data));
  }
  return it->second;  // share the stored chunk
}

Bytes AStreamNode::encode_chunk_frame(std::uint64_t seq) const {
  ByteWriter w;
  w.u64(config_.stream_id);
  w.u64(seq);
  net::Payload chunk = outgoing_chunk(seq);
  w.bytes(chunk.data(), chunk.size());
  return w.take();
}

void AStreamNode::fan_out_chunk(std::uint64_t seq, bool include_children) {
  auto it = pending_pulls_.find(seq);
  bool push = include_children && !children_.empty();
  if (!push && it == pending_pulls_.end()) return;
  // Encode + freeze the chunk frame once; the whole subtree fan-out (the
  // dissemination tree's hot path) shares one buffer.
  net::Payload frame(encode_chunk_frame(seq));
  if (push) {
    furthest_child_pull_ = std::max(furthest_child_pull_, seq);
    for (NodeId child : children_) {
      transport_.send(child, net::MsgType::kStreamChunk, frame);
    }
  }
  if (it != pending_pulls_.end()) {
    for (NodeId child : it->second) {
      transport_.send(child, net::MsgType::kStreamChunk, frame);
    }
    pending_pulls_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Tier 1: digests via Atum
// ---------------------------------------------------------------------------

void AStreamNode::on_deliver(NodeId, const net::Payload& payload) {
  try {
    ByteReader r(payload);
    if (r.u8() != kMsgDigest) return;
    std::uint64_t stream = r.u64();
    std::uint64_t seq = r.u64();
    crypto::Digest d;
    r.raw(d.data(), d.size());
    if (stream != config_.stream_id) return;
    digests_[seq] = d;
    if (on_digest_) on_digest_(seq);
    try_verify_buffered();
    // Knowing a chunk exists lets us pull it (§4.3: a node that fails to
    // obtain chunks after receiving the digests tries its parents).
    pull_next();
  } catch (const SerdeError&) {
  }
}

// ---------------------------------------------------------------------------
// Tier 2: push-pull data plane
// ---------------------------------------------------------------------------

void AStreamNode::on_stream_message(const net::Message& msg) {
  try {
    switch (msg.type) {
      case net::MsgType::kStreamPush: {  // adoption
        ByteReader r(msg.payload);
        if (r.u8() != kAdopt) return;
        if (r.u64() != config_.stream_id) return;
        children_.insert(msg.from);
        break;
      }
      case net::MsgType::kStreamPull: {
        ByteReader r(msg.payload);
        std::uint64_t stream = r.u64();
        std::uint64_t seq = r.u64();
        if (stream != config_.stream_id) return;
        // The pull horizon feeds store eviction, so it only advances as far
        // as this node can corroborate the stream has reached (its own
        // horizon, the source counter, the furthest tier-1 digest): a
        // Byzantine child pulling seq 2^60 must not evict the whole store.
        std::uint64_t known_head = std::max(delivered_up_to_, source_seq_);
        if (!digests_.empty()) known_head = std::max(known_head, digests_.rbegin()->first);
        furthest_child_pull_ = std::max(furthest_child_pull_, std::min(seq, known_head));
        // An evicted chunk is gone for good here: stay silent and let the
        // child's pull timeout fail it over to another parent (§4.3).
        if (config_.store_window > 0 && seq <= eviction_floor_) return;
        if (verified_.contains(seq)) {
          ByteWriter w;
          w.u64(config_.stream_id);
          w.u64(seq);
          net::Payload chunk = outgoing_chunk(seq);
          w.bytes(chunk.data(), chunk.size());
          transport_.send(msg.from, net::MsgType::kStreamChunk, w.take());
        } else {
          pending_pulls_[seq].push_back(msg.from);  // reply once it arrives
        }
        break;
      }
      case net::MsgType::kStreamChunk: {
        ByteReader r(msg.payload);
        std::uint64_t stream = r.u64();
        std::uint64_t seq = r.u64();
        // Zero-copy: the chunk stays a slice of the arriving frame.
        net::Payload data = msg.payload.slice(r.bytes_view());
        if (stream != config_.stream_id) return;
        accept_chunk(seq, std::move(data), msg.from);
        break;
      }
      default:
        break;
    }
  } catch (const SerdeError&) {
  }
}

void AStreamNode::accept_chunk(std::uint64_t seq, net::Payload data, NodeId from) {
  if (verified_.contains(seq)) return;
  unverified_[seq] = {std::move(data), from};
  try_verify_buffered();
}

void AStreamNode::try_verify_buffered() {
  bool progressed = false;
  for (auto it = unverified_.begin(); it != unverified_.end();) {
    auto dit = digests_.find(it->first);
    if (dit == digests_.end()) {
      ++it;
      continue;  // digest not yet delivered by tier 1
    }
    auto& [data, from] = it->second;
    // digest() is memoized on the arrival frame: when a parent pushed one
    // frozen frame to several children, the first child to verify pays the
    // hash and the rest reuse it.
    if (data.digest() != dit->second) {
      // Corrupt chunk: the §4.3 fail-over — demote this parent and re-pull.
      auto pit = std::find(parents_.begin(), parents_.end(), from);
      if (pit != parents_.end() && parents_.size() > 1) {
        preferred_parent_ = (static_cast<std::size_t>(pit - parents_.begin()) + 1)
                            % parents_.size();
      }
      std::uint64_t seq = it->first;
      it = unverified_.erase(it);
      if (!parents_.empty()) {
        ByteWriter w;
        w.u64(config_.stream_id);
        w.u64(seq);
        transport_.send(parents_[preferred_parent_], net::MsgType::kStreamPull, w.take());
      }
      continue;
    }
    // Verified: store, deliver in order, serve pending pulls, push chunk 1
    // (the push phase applies only to the first chunk of the stream).
    std::uint64_t seq = it->first;
    verified_[seq] = std::move(data);
    it = unverified_.erase(it);
    fan_out_chunk(seq, /*include_children=*/seq == 1);
    progressed = true;
  }
  while (verified_.contains(delivered_up_to_ + 1)) {
    ++delivered_up_to_;
    if (on_chunk_) on_chunk_(delivered_up_to_, verified_[delivered_up_to_]);
  }
  maybe_evict_store();
  if (progressed) pull_next();
}

void AStreamNode::maybe_evict_store() {
  if (config_.store_window == 0) return;
  const std::uint64_t head = std::max(delivered_up_to_, furthest_child_pull_);
  if (head <= config_.store_window) return;
  // Never evict past the node's own in-order delivery horizon: a fast
  // child's pulls must not discard chunks this node has yet to deliver
  // (and whose digests pull_next still needs).
  const std::uint64_t floor = std::min(head - config_.store_window, delivered_up_to_);
  if (floor <= eviction_floor_) return;
  eviction_floor_ = floor;
  auto sweep = [floor](auto& m) { m.erase(m.begin(), m.upper_bound(floor)); };
  sweep(verified_);
  sweep(digests_);
  sweep(unverified_);
  sweep(pending_pulls_);
}

void AStreamNode::pull_next() {
  if (id_ == source_ || parents_.empty()) return;
  std::uint64_t want = delivered_up_to_ + 1;
  if (!digests_.contains(want)) return;      // nothing announced yet
  if (verified_.contains(want) || unverified_.contains(want)) return;
  ByteWriter w;
  w.u64(config_.stream_id);
  w.u64(want);
  transport_.send(parents_[preferred_parent_], net::MsgType::kStreamPull, w.take());
  arm_pull_timer(want);
}

void AStreamNode::arm_pull_timer(std::uint64_t seq) {
  sys_.simulator().cancel(pull_timer_);
  pull_timer_ = sys_.simulator().schedule_after(kPullTimeout, [this, seq] {
    if (delivered_up_to_ >= seq) return;  // arrived in time
    // Fail over to the next parent and retry (§4.3).
    if (!parents_.empty()) {
      preferred_parent_ = (preferred_parent_ + 1) % parents_.size();
    }
    unverified_.erase(seq);
    pull_next();
  });
}

}  // namespace atum::astream
