#include "overlay/group_message.h"

#include <algorithm>

#include "obs/trace.h"
#include "overlay/gossip.h"

namespace atum::overlay {

namespace {

Bytes encode_full(GroupMessageId id, const net::Payload& payload) {
  ByteWriter w;
  w.u64(id.from_group);
  w.u64(id.seq);
  w.bytes(payload.data(), payload.size());
  return w.take();
}

Bytes encode_digest(GroupMessageId id, const crypto::Digest& d) {
  ByteWriter w;
  w.u64(id.from_group);
  w.u64(id.seq);
  w.raw(d.data(), d.size());
  return w.take();
}

}  // namespace

PreparedGroupMessage::PreparedGroupMessage(const std::vector<NodeId>& senders, NodeId self,
                                           GroupMessageId id, const net::Payload& payload) {
  // Rank of the local node among the (sorted) senders decides full vs digest.
  auto it = std::find(senders.begin(), senders.end(), self);
  std::size_t rank = static_cast<std::size_t>(it - senders.begin());
  std::size_t full_count = senders.size() / 2 + 1;  // any majority has a correct node
  bool send_full = rank < full_count;

  // Freeze the encoded frame once; every recipient shares the same buffer.
  // payload.digest() memoizes on the payload's control block: a gossip
  // relay hashing the frame it just received (and whose receiver already
  // hashed it to vouch) reuses that digest instead of recomputing.
  wire_ = net::Payload(send_full ? encode_full(id, payload)
                                 : encode_digest(id, payload.digest()));
  type_ = send_full ? net::MsgType::kGroupMsgFull : net::MsgType::kGroupMsgDigest;
}

void PreparedGroupMessage::send_to(net::Transport& transport,
                                   const std::vector<NodeId>& destination, Rng& rng) const {
  std::vector<NodeId> order = destination;
  rng.shuffle(order);
  for (NodeId d : order) {
    transport.send(d, type_, wire_);
  }
}

void PreparedGroupMessage::send_to(SendCoalescer& coalescer,
                                   const std::vector<NodeId>& destination) const {
  for (NodeId d : destination) {
    coalescer.enqueue(d, type_, wire_);
  }
}

void send_group_message(net::Transport& transport, const std::vector<NodeId>& senders,
                        GroupMessageId id, const std::vector<NodeId>& destination,
                        const net::Payload& payload, Rng& rng) {
  PreparedGroupMessage(senders, transport.self(), id, payload).send_to(transport, destination, rng);
}

GroupMessageReceiver::GroupMessageReceiver(net::Transport transport, DeliverFn deliver)
    : transport_(std::move(transport)), deliver_(std::move(deliver)) {
  transport_.listen({net::MsgType::kGroupMsgFull, net::MsgType::kGroupMsgDigest,
                     net::MsgType::kGroupMsgEnvelope},
                    [this](const net::Message& m) { on_message(m); });
}

GroupMessageReceiver::~GroupMessageReceiver() { transport_.close(); }

void GroupMessageReceiver::gc_tombstones() {
  const TimeMicros now = transport_.simulator().now();
  while (!gc_queue_.empty() && gc_queue_.front().first <= now) {
    auto it = entries_.find(gc_queue_.front().second);
    // The entry's own deadline is authoritative: delivery pushes it past
    // the creation-time queue entry, so a freshly delivered tombstone is
    // skipped here and collected by its second queue entry.
    if (it != entries_.end() && it->second.expires_at <= now) entries_.erase(it);
    gc_queue_.pop_front();
  }
}

void GroupMessageReceiver::on_message(const net::Message& msg) {
  gc_tombstones();
  delivered_.rotate(transport_.simulator().now(), kDedupWindowTtls * tombstone_ttl_);

  if (msg.type == net::MsgType::kGroupMsgEnvelope) {
    // Coalesced envelope: decode it fully before processing any inner
    // frame — a malformed tail means the sender is faulty and the whole
    // envelope is suspect. Inner frames are zero-copy slices of the
    // envelope payload; only full and digest frames may nest (envelopes
    // do not recurse).
    std::vector<std::pair<bool, net::Payload>> frames;
    try {
      ByteReader r(msg.payload);
      std::uint64_t count = r.varint();
      if (count == 0 || count > SendCoalescer::kMaxFramesPerEnvelope) return;
      frames.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        auto inner = static_cast<net::MsgType>(r.u16());
        if (inner != net::MsgType::kGroupMsgFull && inner != net::MsgType::kGroupMsgDigest) {
          return;
        }
        frames.emplace_back(inner == net::MsgType::kGroupMsgFull,
                            msg.payload.slice(r.bytes_view()));
      }
      r.expect_done();
    } catch (const SerdeError&) {
      return;  // malformed: faulty sender
    }
    for (const auto& [is_full, frame] : frames) on_frame(msg.from, is_full, frame);
    return;
  }

  on_frame(msg.from, msg.type == net::MsgType::kGroupMsgFull, msg.payload);
}

void GroupMessageReceiver::on_frame(NodeId from, bool is_full, const net::Payload& wire) {
  GroupMessageId id;
  crypto::Digest digest;
  net::Payload payload;
  try {
    ByteReader r(wire);
    id.from_group = r.u64();
    id.seq = r.u64();
    if (is_full) {
      // Zero-copy: the body is a refcounted slice of the arriving frame.
      // The vouch digest is memoized on that frame's control block, so a
      // frame fanned out to many receivers is hashed once system-wide and
      // a node relaying it onward reuses the digest too.
      payload = wire.slice(r.bytes_view());
      digest = payload.digest();
    } else {
      r.raw(digest.data(), digest.size());
    }
    r.expect_done();
  } catch (const SerdeError&) {
    return;  // malformed: faulty sender
  }

  if (membership_ && !membership_(id.from_group, from)) return;
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    // Post-TTL duplicate: the tombstone is gone but the rolling delivered-id
    // set still remembers the delivery — drop it before it can mint a fresh
    // entry and re-deliver.
    if (delivered_.contains(id)) return;
    // New entry: even if it never delivers (digest-only flood, content
    // short of majority, unknown sender group) it expires after an epoch.
    it = entries_.try_emplace(id).first;
    it->second.expires_at = transport_.simulator().now() + tombstone_ttl_;
    gc_queue_.emplace_back(it->second.expires_at, id);
  }
  Pending& p = it->second;
  if (p.delivered) return;

  auto& vouchers = p.vouches[digest];
  if (std::find(vouchers.begin(), vouchers.end(), from) == vouchers.end()) {
    vouchers.push_back(from);
  }
  if (is_full && !p.payloads.contains(digest)) {
    p.payloads[digest] = {std::move(payload), from};
  }
  try_deliver(id, p);
}

void GroupMessageReceiver::try_deliver(const GroupMessageId& id, Pending& p) {
  if (p.delivered) return;
  std::optional<std::size_t> size;
  if (group_size_) size = group_size_(id.from_group);
  if (!size) return;  // unknown sender group: keep buffering
  std::size_t majority = *size / 2 + 1;

  for (const auto& [digest, vouchers] : p.vouches) {
    if (vouchers.size() < majority) continue;
    auto pit = p.payloads.find(digest);
    if (pit == p.payloads.end()) continue;  // majority but no full copy yet
    p.delivered = true;
    // Keep the tombstone (for a full epoch from now) so duplicates are not
    // re-delivered; drop the buffered data now.
    net::Payload payload = std::move(pit->second.first);
    NodeId relay = pit->second.second;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->record(transport_.simulator().now(), transport_.self(), obs::TracePoint::kVouch,
                      id.seq, vouchers.size(), id.from_group);
    }
    p.vouches.clear();
    p.payloads.clear();
    p.expires_at = transport_.simulator().now() + tombstone_ttl_;
    gc_queue_.emplace_back(p.expires_at, id);
    delivered_.insert(id);  // outlives the tombstone (rolling dedup)
    deliver_(id, relay, std::move(payload));
    return;
  }
}

void GroupMessageReceiver::reevaluate() {
  // Deliver in id order, not hash order: each delivery runs the node's
  // accept path, and the RNG draws and sends it makes depend on the order.
  std::vector<GroupMessageId> ids;
  // lint: unordered-iter-ok(the snapshot is sorted before anything is delivered)
  for (const auto& [id, p] : entries_) {
    if (!p.delivered) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  // A delivery may re-enter reevaluate() (a neighbor update) and deliver
  // later ids first; try_deliver skips those.
  for (const GroupMessageId& id : ids) {
    auto it = entries_.find(id);
    if (it != entries_.end()) try_deliver(id, it->second);
  }
}

}  // namespace atum::overlay
