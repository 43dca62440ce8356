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
                                           GroupId from_group, const net::Payload& payload) {
  // Rank of the local node among the (sorted) senders decides full vs digest.
  auto it = std::find(senders.begin(), senders.end(), self);
  std::size_t rank = static_cast<std::size_t>(it - senders.begin());
  std::size_t full_count = senders.size() / 2 + 1;  // any majority has a correct node
  bool send_full = rank < full_count;

  // Freeze the encoded frame once; every recipient shares the same buffer.
  // payload.digest() memoizes on the payload's control block: a gossip
  // relay hashing the frame it just received (and whose receiver already
  // hashed it to vouch) reuses that digest instead of recomputing.
  const crypto::Digest digest = payload.digest();
  const GroupMessageId id{from_group, crypto::digest_prefix64(digest)};
  wire_ = net::Payload(send_full ? encode_full(id, payload) : encode_digest(id, digest));
  type_ = send_full ? net::MsgType::kGroupMsgFull : net::MsgType::kGroupMsgDigest;
}

void PreparedGroupMessage::send_to(SendCoalescer& coalescer,
                                   const std::vector<NodeId>& destination) const {
  for (NodeId d : destination) {
    coalescer.enqueue(d, type_, wire_);
  }
}

GroupMessageReceiver::GroupMessageReceiver(net::Transport transport, MembersFn members,
                                           DeliverFn deliver)
    : transport_(std::move(transport)), members_(std::move(members)), deliver_(std::move(deliver)) {
  transport_.listen({net::MsgType::kGroupMsgFull, net::MsgType::kGroupMsgDigest,
                     net::MsgType::kGroupMsgEnvelope},
                    [this](const net::Message& m) { on_message(m); });
}

GroupMessageReceiver::~GroupMessageReceiver() { transport_.close(); }

void GroupMessageReceiver::gc_expired() {
  const TimeMicros now = transport_.simulator().now();
  while (!gc_queue_.empty() && gc_queue_.front().first <= now) {
    entries_.erase(gc_queue_.front().second);
    gc_queue_.pop_front();
  }
}

void GroupMessageReceiver::on_message(const net::Message& msg) {
  gc_expired();
  delivered_.rotate(transport_.simulator().now(), kDedupWindowTtls * ttl_);

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
  // The id must name the content it carries (see GroupMessageId).
  if (id.seq != crypto::digest_prefix64(digest)) return;

  const std::vector<NodeId>* members = members_(id.from_group);
  if (members == nullptr || std::find(members->begin(), members->end(), from) == members->end()) {
    return;
  }
  Pending* pending = entries_.find(id);
  if (pending == nullptr) {
    // No entry: the id is new, or its content was delivered (from this or
    // any other vgroup, or by the decide path) and the set drops it.
    if (delivered_.contains(id.seq)) return;
    // New entry: even if it never delivers (digest-only flood, content
    // short of majority) it expires after one TTL.
    pending = &entries_[id];
    gc_queue_.emplace_back(transport_.simulator().now() + ttl_, id);
  }
  auto c = std::lower_bound(pending->begin(), pending->end(), digest,
                            [](const Candidate& a, const crypto::Digest& d) { return a.digest < d; });
  if (c == pending->end() || c->digest != digest) {
    c = pending->insert(c, Candidate{digest, {}, std::nullopt});
    c->voters.reserve(members->size());
  }
  if (std::find(c->voters.begin(), c->voters.end(), from) == c->voters.end()) {
    c->voters.push_back(from);
  }
  if (is_full && !c->payload) c->payload = std::move(payload);
  try_deliver(id, *pending, members->size() / 2 + 1);
}

void GroupMessageReceiver::try_deliver(GroupMessageId id, Pending& pending, std::size_t majority) {
  for (Candidate& c : pending) {
    if (c.voters.size() < majority) continue;
    if (!c.payload) continue;  // majority but no full copy yet
    const std::size_t voters = c.voters.size();
    net::Payload payload = std::move(*c.payload);
    entries_.erase(id);  // `pending` and `c` dangle from here on
    // Content another path delivered first completes without delivering.
    if (!delivered_.insert(id.seq)) return;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->record(transport_.simulator().now(), transport_.self(), obs::TracePoint::kVouch,
                      id.seq, voters, id.from_group);
    }
    deliver_(id, std::move(payload));
    return;
  }
}

bool GroupMessageReceiver::note_delivered(std::uint64_t seq) {
  delivered_.rotate(transport_.simulator().now(), kDedupWindowTtls * ttl_);
  return delivered_.insert(seq);
}

void GroupMessageReceiver::reevaluate() {
  // Deliver in id order, not hash order: each delivery runs the node's
  // accept path, and the RNG draws and sends it makes depend on the order.
  std::vector<GroupMessageId> ids;
  ids.reserve(entries_.size());
  // lint: unordered-iter-ok(the snapshot is sorted before anything is delivered)
  for (const auto& [id, p] : entries_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  // A delivery may re-enter reevaluate() (a neighbor update) and deliver
  // later ids first; their entries are gone by then.
  for (const GroupMessageId& id : ids) {
    const std::vector<NodeId>* members = members_(id.from_group);
    Pending* pending = entries_.find(id);
    if (members != nullptr && pending != nullptr) try_deliver(id, *pending, members->size() / 2 + 1);
  }
}

}  // namespace atum::overlay
