#include "group/vgroup_state.h"

#include <algorithm>
#include <stdexcept>

namespace atum::group {

bool GroupView::has_member(NodeId n) const {
  return std::find(members.begin(), members.end(), n) != members.end();
}

void GroupView::encode(ByteWriter& w) const {
  w.u64(id);
  w.vec(members, [](ByteWriter& bw, NodeId n) { bw.u64(n); });
}

GroupView GroupView::decode(ByteReader& r) {
  GroupView v;
  v.id = r.u64();
  v.members = r.vec<NodeId>([](ByteReader& br) { return br.u64(); });
  return v;
}

VGroupState::VGroupState(GroupId id, std::vector<NodeId> members, std::size_t cycles)
    : self_{id, std::move(members)} {
  if (cycles > overlay::kMaxCycles) throw std::invalid_argument("VGroupState: too many cycles");
  neighbors_.resize(cycles);
  std::sort(self_.members.begin(), self_.members.end());
}

bool VGroupState::has_member(NodeId n) const { return self_.has_member(n); }

void VGroupState::set_members(std::vector<NodeId> members) {
  self_.members = std::move(members);
  std::sort(self_.members.begin(), self_.members.end());
}

void VGroupState::refresh_neighbor(const GroupView& view) {
  for (CycleNeighbors& cn : neighbors_) {
    if (cn.successor.id == view.id) cn.successor = view;
    if (cn.predecessor.id == view.id) cn.predecessor = view;
  }
}

overlay::NeighborRefs VGroupState::neighbor_refs() const {
  overlay::NeighborRefs out;
  for (std::size_t c = 0; c < neighbors_.size(); ++c) {
    const CycleNeighbors& cn = neighbors_[c];
    if (cn.successor.known() && cn.successor.id != self_.id) {
      out.push_back(overlay::NeighborRef{cn.successor.id, c, 0});
    }
    if (cn.predecessor.known() && cn.predecessor.id != self_.id &&
        cn.predecessor.id != cn.successor.id) {
      out.push_back(overlay::NeighborRef{cn.predecessor.id, c, 1});
    }
  }
  return out;
}

const GroupView* VGroupState::find_group(GroupId g) const {
  if (g == self_.id) return &self_;
  for (const CycleNeighbors& cn : neighbors_) {
    if (cn.successor.id == g) return &cn.successor;
    if (cn.predecessor.id == g) return &cn.predecessor;
  }
  return nullptr;
}

std::vector<GroupView> VGroupState::known_groups() const {
  std::vector<GroupView> out;
  out.push_back(self_);
  for (const CycleNeighbors& cn : neighbors_) {
    for (const GroupView* v : {&cn.successor, &cn.predecessor}) {
      if (!v->known()) continue;
      bool seen = false;
      for (const GroupView& e : out) seen |= (e.id == v->id);
      if (!seen) out.push_back(*v);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operation encodings
// ---------------------------------------------------------------------------

Bytes BroadcastOp::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpKind::kBroadcast));
  w.u64(bcast.origin);
  w.u64(bcast.seq);
  w.bytes(payload.data(), payload.size());
  return w.take();
}

Bytes SuspectOp::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpKind::kSuspect));
  w.u64(suspect);
  return w.take();
}

Bytes StartWalkOp::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpKind::kStartWalk));
  w.u8(purpose);
  w.u64(nonce);
  w.bytes(payload);
  return w.take();
}

DecodedOp decode_op(const net::Payload& wire) {
  ByteReader r(wire);
  DecodedOp op{};
  auto kind = r.u8();
  switch (static_cast<OpKind>(kind)) {
    case OpKind::kBroadcast:
      op.kind = OpKind::kBroadcast;
      op.broadcast.bcast.origin = r.u64();
      op.broadcast.bcast.seq = r.u64();
      op.broadcast.payload = wire.slice(r.bytes_view());
      break;
    case OpKind::kSuspect:
      op.kind = OpKind::kSuspect;
      op.suspect.suspect = r.u64();
      break;
    case OpKind::kStartWalk:
      op.kind = OpKind::kStartWalk;
      op.walk.purpose = r.u8();
      op.walk.nonce = r.u64();
      op.walk.payload = r.bytes();
      break;
    default:
      throw SerdeError("unknown vgroup op kind");
  }
  r.expect_done();
  return op;
}

}  // namespace atum::group
