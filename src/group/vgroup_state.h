// The replicated state of one volatile group, as held by each member.
//
// Everything in here is deterministic state updated by SMR-ordered
// operations or by accepted group messages, so all correct members of a
// vgroup hold identical copies (§3.3.2: "The state replicated at each node
// includes information needed to participate in all protocols, e.g.,
// neighboring vgroup compositions, state of ongoing random walks, or
// pending join or leave operations.").
#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "common/types.h"
#include "net/message.h"
#include "overlay/gossip.h"

namespace atum::group {

// A vgroup and its composition, as known to a peer.
struct GroupView {
  GroupId id = kInvalidGroup;
  std::vector<NodeId> members;

  bool known() const { return id != kInvalidGroup; }
  bool has_member(NodeId n) const;
  void encode(ByteWriter& w) const;
  static GroupView decode(ByteReader& r);
};

// Successor and predecessor views on one H-graph cycle.
struct CycleNeighbors {
  GroupView successor;
  GroupView predecessor;
};

class VGroupState {
 public:
  VGroupState() = default;
  // Throws std::invalid_argument for more than overlay::kMaxCycles cycles.
  VGroupState(GroupId id, std::vector<NodeId> members, std::size_t cycles);

  GroupId id() const { return self_.id; }
  const std::vector<NodeId>& members() const { return self_.members; }
  std::size_t size() const { return self_.members.size(); }
  std::size_t cycle_count() const { return neighbors_.size(); }
  bool has_member(NodeId n) const;

  void set_members(std::vector<NodeId> members);

  const CycleNeighbors& cycle(std::size_t c) const { return neighbors_.at(c); }
  void set_successor(std::size_t c, GroupView v) { neighbors_.at(c).successor = std::move(v); }
  void set_predecessor(std::size_t c, GroupView v) { neighbors_.at(c).predecessor = std::move(v); }

  // Updates whichever neighbor slots currently point at `view.id`
  // (composition refresh after the neighbor reconfigures).
  void refresh_neighbor(const GroupView& view);

  // The distinct neighbor references used by the gossip relay decision,
  // held inline (no allocation).
  overlay::NeighborRefs neighbor_refs() const;

  // Looks up a neighboring group's composition (for group-message
  // acceptance); also matches this group itself. Null for an unknown
  // group. The view is not a copy: it stays valid only until the next
  // mutation of this state (set_members, set_successor, set_predecessor,
  // refresh_neighbor or assignment).
  const GroupView* find_group(GroupId g) const;

  // All distinct groups this member must keep track of (self + neighbors).
  std::vector<GroupView> known_groups() const;

 private:
  // This vgroup's own id and sorted members.
  GroupView self_;
  std::vector<CycleNeighbors> neighbors_;
};

// ---------------------------------------------------------------------------
// SMR-ordered vgroup operations (the "app ops" of the vgroup's engine)
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t {
  kBroadcast = 1,   // phase-1 Byzantine broadcast of an application message
  kSuspect = 2,     // heartbeat-based eviction vote (§5.1)
  kStartWalk = 3,   // group agreed to launch a random walk
};

// NOTE: the kBroadcast encoding (tag, origin, seq, length-prefixed payload)
// is byte-identical to the core layer's kGmGossip group-message frame by
// design: a decided broadcast op is relayed across the overlay verbatim,
// without re-encoding. atum.cpp static_asserts the tag equality and
// test_group pins the layout.
struct BroadcastOp {
  BroadcastId bcast;
  net::Payload payload;
  Bytes encode() const;
};

struct SuspectOp {
  NodeId suspect = kInvalidNode;
  Bytes encode() const;
};

struct StartWalkOp {
  std::uint8_t purpose = 0;
  std::uint64_t nonce = 0;
  Bytes payload;
  Bytes encode() const;
};

struct DecodedOp {
  OpKind kind;
  BroadcastOp broadcast;   // valid when kind == kBroadcast
  SuspectOp suspect;       // valid when kind == kSuspect
  StartWalkOp walk;        // valid when kind == kStartWalk
};

// Throws SerdeError on malformed input (treat origin as faulty). A decoded
// broadcast's payload is a refcounted slice of `wire` (no copy).
DecodedOp decode_op(const net::Payload& wire);

}  // namespace atum::group
