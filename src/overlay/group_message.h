// Group messages (§3.1, Figure 3): the reliable communication primitive for
// pairs of vgroups. A group message from vgroup A to vgroup B is sent by
// every correct node of A to every node of B; a node of B accepts it once a
// majority of A's members vouch for the same content, which makes the
// primitive correct whenever A is robust.
//
// Two practical mechanisms from §5.1 are implemented:
//  * digest optimization — only a majority of A's members transmit the full
//    payload, the rest send its SHA-256 digest; any majority contains a
//    correct node, so at least one full copy always arrives;
//  * randomized send order — each sender's SendCoalescer shuffles the
//    order of its destinations at every flush, to avoid the synchronized
//    bursts that cause incast throughput collapse.
//
// Payload ownership (zero-copy path): the sender encodes + freezes the wire
// frame exactly once per node (PreparedGroupMessage) and every destination
// member shares that buffer. The receiver decodes the body as a refcounted
// slice of the arriving frame (net::Payload::slice) — it is buffered in
// its Candidate and handed to DeliverFn without ever being copied, so a node
// materializes no bytes on the receive path at all.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/flat_table.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "overlay/two_generation_set.h"

namespace atum::obs {
class Tracer;
}  // namespace atum::obs

namespace atum::overlay {

class SendCoalescer;  // gossip.h

// A group message's id names its content: `seq` is the digest prefix of the
// payload (crypto::digest_prefix64), so the same content carries the same
// seq whichever vgroup sends it. PreparedGroupMessage builds every id that
// way, and the receiver drops a frame whose seq does not match its content.
struct GroupMessageId {
  GroupId from_group = kInvalidGroup;
  std::uint64_t seq = 0;
  friend auto operator<=>(const GroupMessageId&, const GroupMessageId&) = default;
};

// One group message encoded on behalf of the local node, ready to fan out.
// `senders` is the sorted membership of the local vgroup `from_group` (must
// include `self`); the first floor(g/2)+1 ranks transmit the full payload,
// the rest its digest. The id is {from_group, digest prefix of payload}.
// The wire frame is encoded and frozen exactly once — sending it to any
// number of destination groups and members shares one buffer (gossip
// relays the same broadcast to several neighbor vgroups).
class PreparedGroupMessage {
 public:
  PreparedGroupMessage(const std::vector<NodeId>& senders, NodeId self, GroupId from_group,
                       const net::Payload& payload);

  // Sends to every member of `destination` through the per-node
  // SendCoalescer: this frame and every other frame bound for the same
  // destination in the current tick leave as one envelope. No per-member
  // shuffle here — coalescing caps the sender at one message per
  // (destination, tick) and the coalescer randomizes the destination order
  // at flush (§5.1: avoid the synchronized bursts that cause incast
  // throughput collapse).
  void send_to(SendCoalescer& coalescer, const std::vector<NodeId>& destination) const;

 private:
  net::Payload wire_;
  net::MsgType type_;
};

// Per-node acceptance logic. Collects vouches until a majority of the
// sending group agrees on one digest and a full payload with that digest
// has arrived, then delivers that content once per node, whichever vgroup
// sends it.
class GroupMessageReceiver {
 public:
  // The delivered payload is a refcounted slice of the first full copy's
  // wire frame (zero-copy); keep it as a Payload or slice it further,
  // don't copy.
  using DeliverFn = std::function<void(const GroupMessageId& id, net::Payload payload)>;
  // The sending vgroup's members as this node knows them, or null for an
  // unknown group. One lookup serves both acceptance checks: a frame from
  // a non-member or an unknown group is dropped, and the majority is
  // counted against the true size, not a size claimed on the wire by a
  // possibly-Byzantine sender. Only a frame that adds a vote or opens an
  // entry looks it up: a frame whose content was delivered and whose id
  // has no entry is dropped before. The vector must stay valid until the
  // receiver's call returns.
  using MembersFn = std::function<const std::vector<NodeId>*(GroupId)>;

  GroupMessageReceiver(net::Transport transport, MembersFn members, DeliverFn deliver);
  ~GroupMessageReceiver();
  GroupMessageReceiver(const GroupMessageReceiver&) = delete;
  GroupMessageReceiver& operator=(const GroupMessageReceiver&) = delete;

  // Message-lifecycle tracing: a kVouch event is recorded once per
  // delivery (key = id.seq = the broadcast digest prefix, a = voucher
  // count) at the instant majority vouching completes on content not yet
  // delivered.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // An id is buffered from its first frame until its majority completes or
  // one TTL of simulated time has passed, whichever comes first: a frame
  // that arrives later finds no entry, so no vote cast before the TTL
  // counts after it.
  // Undelivered buffering (digest-only floods from a Byzantine member,
  // below-majority content) must expire: without an expiry one faulty node
  // minting fresh ids grows the table without bound. Opening an entry
  // sweeps the expired ones once half a TTL has passed since the last
  // sweep, so the table holds at most the entries opened within 1.5 TTLs
  // and each entry is scanned at most three times, O(1) amortized.
  // A completed id keeps no entry. The rolling delivered set (two
  // generations, rotated at an insert every kDedupWindowTtls TTLs or
  // later) is the node's one record of delivered content, keyed by seq
  // alone: it drops every later frame carrying that content, from any
  // vgroup, for at least one rotation; such a frame would otherwise
  // re-deliver and re-gossip. It holds 8-byte digest prefixes, two
  // rotations' worth at most.
  // `ttl` must be positive.
  void set_ttl(DurationMicros ttl);

  // Records content the node delivered by another path (its own vgroup's
  // SMR decision) under `seq`, its digest prefix. Returns whether the
  // content was new; a later group message carrying it delivers nothing.
  bool note_delivered(std::uint64_t seq);

  // Re-evaluates buffered messages against the current group sizes (e.g.
  // after a neighbor update shrinks a group), skipping expired entries.
  // Deliveries come in GroupMessageId order, whatever order the entries
  // are stored in.
  void reevaluate();

  // Buffered undelivered ids, counting expired entries until a sweep (see
  // set_ttl) erases them.
  std::size_t pending_count() const { return entries_.size(); }
  // Delivered contents currently remembered by the rolling set (both
  // generations); tests pin its bound under sustained delivery.
  std::size_t delivered_dedup_count() const { return delivered_.size(); }

 private:
  // A candidate's distinct vouching senders. The first kInline stay in
  // the candidate itself (vgroups of up to gmax = 14 in every preset), so
  // a vote allocates nothing; a larger sending vgroup's other voters go
  // to `more_`.
  class Voters {
   public:
    // Adds `n` unless it already voted.
    void add(NodeId n);
    std::size_t size() const { return inline_size_ + more_.size(); }

   private:
    static constexpr std::size_t kInline = 14;
    std::array<NodeId, kInline> inline_{};
    std::size_t inline_size_ = 0;
    std::vector<NodeId> more_;
  };
  // Everything one undelivered id has received for one digest.
  struct Candidate {
    crypto::Digest digest;
    Voters voters;
    std::optional<net::Payload> payload;  // the first full copy, once one arrives
  };
  // An undelivered id: its candidates, sorted by digest, and the instant
  // it expires. Every candidate's digest shares the id's prefix, and only
  // the content's true digest can get a full copy. The vector still holds
  // several: a Byzantine member's digest-only frame may carry a crafted
  // digest with the same prefix, and an entry that kept one digest would
  // let it block the real one.
  struct Pending {
    std::vector<Candidate> candidates;
    TimeMicros expires_at = 0;  // one TTL after the frame that opened it
  };

  void on_message(const net::Message& msg);
  // Walks a coalesced envelope's inner frames, handing each to on_frame
  // when `deliver` is set. Returns whether the whole envelope is well
  // formed; on_message walks it once without delivering to find out, so a
  // malformed envelope delivers none of its frames.
  bool walk_envelope(const net::Message& envelope, bool deliver);
  // One group-message frame: either a whole kGroupMsgFull/kGroupMsgDigest
  // message body or one inner frame of a coalesced envelope (`wire` is a
  // zero-copy slice of the envelope in that case). The checks run in this
  // order: parse and the seq check, the entry lookup, the delivered set
  // for an id with no live entry, and only then the sending vgroup's
  // membership, for a frame that adds a vote or opens an entry.
  void on_frame(NodeId from, bool is_full, const net::Payload& wire);
  // Completes `pending`'s first candidate with `majority` voters and a
  // full copy: erases `id`'s entry, then delivers if the content is new.
  // `id` is a copy: the entry goes.
  void try_deliver(GroupMessageId id, Pending& pending, std::size_t majority);
  // Rotates the delivered set, where it grows, then inserts `seq`; returns
  // whether the content was new.
  bool remember_delivered(std::uint64_t seq);

  net::Transport transport_;
  MembersFn members_;
  DeliverFn deliver_;
  obs::Tracer* tracer_ = nullptr;
  // Undelivered ids. Hashed: every arriving frame looks its id up here
  // first. Only reevaluate() and the sweep iterate it; reevaluate() sorts
  // the ids before delivering any. It may hold expired entries not yet
  // swept; every lookup treats those as absent.
  FlatMap<GroupMessageId, Pending> entries_;
  DurationMicros ttl_ = kGroupMessageTtl;
  // When opening an entry last swept the expired ones (see set_ttl).
  TimeMicros swept_at_ = 0;
  // The node's one record of delivered content (see set_ttl), keyed by
  // digest prefix; only remember_delivered inserts or rotates it.
  // Consulted for ids without an entry and when an entry completes.
  TwoGenerationSet<std::uint64_t> delivered_;
};

}  // namespace atum::overlay
