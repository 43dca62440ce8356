#include "overlay/group_message.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "obs/trace.h"
#include "overlay/gossip.h"

namespace atum::overlay {

namespace {

Bytes encode_full(GroupMessageId id, const net::Payload& payload) {
  ByteWriter w(8 + 8 + ByteWriter::varint_size(payload.size()) + payload.size());
  w.u64(id.from_group);
  w.u64(id.seq);
  w.bytes(payload.data(), payload.size());
  return w.take();
}

Bytes encode_digest(GroupMessageId id, const crypto::Digest& d) {
  ByteWriter w(8 + 8 + d.size());
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

void GroupMessageReceiver::Voters::add(NodeId n) {
  const auto inline_end = inline_.begin() + static_cast<std::ptrdiff_t>(inline_size_);
  if (std::find(inline_.begin(), inline_end, n) != inline_end) return;
  if (std::find(more_.begin(), more_.end(), n) != more_.end()) return;
  if (inline_size_ < kInline) {
    inline_[inline_size_++] = n;
  } else {
    more_.push_back(n);
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

void GroupMessageReceiver::set_ttl(DurationMicros ttl) {
  if (ttl <= 0) throw std::invalid_argument("GroupMessageReceiver: TTL must be positive");
  ttl_ = ttl;
}

bool GroupMessageReceiver::walk_envelope(const net::Message& envelope, bool deliver) {
  try {
    ByteReader r(envelope.payload);
    const std::uint64_t count = r.varint();
    if (count == 0 || count > SendCoalescer::kMaxFramesPerEnvelope) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto inner = static_cast<net::MsgType>(r.u16());
      if (inner != net::MsgType::kGroupMsgFull && inner != net::MsgType::kGroupMsgDigest) {
        return false;
      }
      const std::span<const std::uint8_t> frame = r.bytes_view();
      if (deliver) {
        on_frame(envelope.from, inner == net::MsgType::kGroupMsgFull,
                 envelope.payload.slice(frame));
      }
    }
    r.expect_done();
  } catch (const SerdeError&) {
    return false;  // malformed: faulty sender
  }
  return true;
}

void GroupMessageReceiver::on_message(const net::Message& msg) {
  if (msg.type == net::MsgType::kGroupMsgEnvelope) {
    // Coalesced envelope: validate all of it before processing any inner
    // frame — a malformed tail means the sender is faulty and the whole
    // envelope is suspect — then walk it again. Inner frames are
    // zero-copy slices of the envelope payload; only full and digest
    // frames may nest (envelopes do not recurse).
    if (walk_envelope(msg, false)) walk_envelope(msg, true);
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

  // An entry past its TTL counts as absent, as if swept the moment it
  // expired.
  const TimeMicros now = transport_.simulator().now();
  Pending* pending = entries_.find(id);
  const bool live = pending != nullptr && now < pending->expires_at;
  // No entry: the id is new, or its content was delivered (from this or
  // any other vgroup, or by the decide path) and the set drops it. Most
  // frames end here, before the membership lookup, whose answer could not
  // change that.
  if (!live && delivered_.contains(id.seq)) return;

  const std::vector<NodeId>* members = members_(id.from_group);
  if (members == nullptr || std::find(members->begin(), members->end(), from) == members->end()) {
    return;
  }
  if (!live) {
    // The table grows only here, so expired entries are swept only here,
    // at most once per half TTL (see set_ttl), this id's own included.
    if (now - swept_at_ >= ttl_ / 2) {
      // lint: unordered-iter-ok(erase predicate is per-entry, order-free)
      entries_.erase_if([now](const auto& entry) { return entry.second.expires_at <= now; });
      swept_at_ = now;
    }
    // A new entry, or an expired one starting afresh in place: even if it
    // never delivers (digest-only flood, content short of majority) it
    // expires one TTL after this frame.
    pending = &entries_[id];
    pending->candidates.clear();
    pending->expires_at = now + ttl_;
  }
  std::vector<Candidate>& candidates = pending->candidates;
  auto c = std::lower_bound(candidates.begin(), candidates.end(), digest,
                            [](const Candidate& a, const crypto::Digest& d) { return a.digest < d; });
  if (c == candidates.end() || c->digest != digest) {
    c = candidates.insert(c, Candidate{digest, {}, std::nullopt});
  }
  c->voters.add(from);
  if (is_full && !c->payload) c->payload = std::move(payload);
  try_deliver(id, *pending, members->size() / 2 + 1);
}

void GroupMessageReceiver::try_deliver(GroupMessageId id, Pending& pending, std::size_t majority) {
  for (Candidate& c : pending.candidates) {
    if (c.voters.size() < majority) continue;
    if (!c.payload) continue;  // majority but no full copy yet
    const std::size_t voters = c.voters.size();
    net::Payload payload = std::move(*c.payload);
    entries_.erase(id);  // `pending` and `c` dangle from here on
    // Content another path delivered first completes without delivering.
    if (!remember_delivered(id.seq)) return;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->record(transport_.simulator().now(), transport_.self(), obs::TracePoint::kVouch,
                      id.seq, voters, id.from_group);
    }
    deliver_(id, std::move(payload));
    return;
  }
}

bool GroupMessageReceiver::note_delivered(std::uint64_t seq) { return remember_delivered(seq); }

bool GroupMessageReceiver::remember_delivered(std::uint64_t seq) {
  delivered_.rotate(transport_.simulator().now(), kDedupWindowTtls * ttl_);
  return delivered_.insert(seq);
}

void GroupMessageReceiver::reevaluate() {
  // Deliver in id order, not hash order: each delivery runs the node's
  // accept path, and the RNG draws and sends it makes depend on the order.
  // An expired entry counts as absent here too.
  const TimeMicros now = transport_.simulator().now();
  std::vector<GroupMessageId> ids;
  ids.reserve(entries_.size());
  // lint: unordered-iter-ok(the snapshot is sorted before anything is delivered)
  for (const auto& [id, p] : entries_) {
    if (now < p.expires_at) ids.push_back(id);
  }
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
