// State machine replication inside one vgroup.
//
// Atum is agnostic to the SMR protocol (§3.1): it only needs totally-ordered
// delivery of operations among the vgroup's members, tolerating f Byzantine
// members. Two engines implement this interface:
//   * DolevStrongSmr — synchronous rounds, f = floor((g-1)/2)   [32]
//   * PbftSmr        — eventual synchrony, f = floor((g-1)/3)   [20]
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "common/serde.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "net/message.h"

namespace atum::smr {

// Membership of one replication group. Members are kept sorted so that all
// correct replicas agree on primary rotation and deterministic ordering.
struct GroupConfig {
  std::vector<NodeId> members;

  void normalize() {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
  std::size_t size() const { return members.size(); }
  bool contains(NodeId n) const {
    return std::binary_search(members.begin(), members.end(), n);
  }
};

// Invoked exactly once per decided slot, in sequence order, with identical
// (seq, origin, op) at every correct replica. The op is a refcounted
// net::Payload slice of the frame it was agreed in — Dolev-Strong hands out
// slices of the decided batch, PBFT slices of the pre-prepare (or state-
// reply) frame — so the decide path is zero-copy end to end; consumers
// slice it further (unwrap, decode) without copying. Ownership contract
// (net/message.h): the slice pins its whole frame, which is fine for the
// prompt deliver-decode-drop pattern every current consumer follows; a
// consumer archiving ops long-term must copy out via to_bytes(). The op's
// SHA-256, if anyone needs it, is Payload::digest() — memoized on the
// frame, shared with every other holder.
using DecideFn = std::function<void(std::uint64_t seq, NodeId origin, const net::Payload& op)>;

enum class EngineKind { kSync, kAsync };

// Fault threshold rules (paper §3.1).
inline std::size_t sync_max_faults(std::size_t g) { return g == 0 ? 0 : (g - 1) / 2; }
inline std::size_t async_max_faults(std::size_t g) { return g == 0 ? 0 : (g - 1) / 3; }
inline std::size_t max_faults(EngineKind kind, std::size_t g) {
  return kind == EngineKind::kSync ? sync_max_faults(g) : async_max_faults(g);
}

// One vote per voter: each voter's latest digest, in arrival order. A vote
// counts only toward the digest it names, so a threshold is always a count
// of matching votes, never of voters. A voter that changes its vote (a
// Byzantine member, or one naming a digest before the slot has one) keeps
// one entry. Flat: a record holds at most a group's worth of votes, and it
// is reserved to the group size at its first vote.
class VoteRecord {
 public:
  // Records voter's vote for d, replacing any earlier vote of voter's.
  void add(NodeId voter, const crypto::Digest& d, std::size_t group_size) {
    for (Vote& v : votes_) {
      if (v.voter == voter) {
        v.digest = d;
        return;
      }
    }
    if (votes_.empty()) votes_.reserve(group_size);
    votes_.push_back({voter, d});
  }
  // Whether at least `threshold` votes name d. The size check comes first:
  // a record short of the threshold costs no digest comparison.
  bool reaches(const crypto::Digest& d, std::size_t threshold) const {
    if (votes_.size() < threshold) return false;
    std::size_t matching = 0;
    for (const Vote& v : votes_) {
      if (v.digest == d && ++matching == threshold) return true;
    }
    return threshold == 0;
  }
  // voter's vote, or null when it has none.
  const crypto::Digest* vote_of(NodeId voter) const {
    for (const Vote& v : votes_) {
      if (v.voter == voter) return &v.digest;
    }
    return nullptr;
  }
  void erase(NodeId voter) {
    std::erase_if(votes_, [voter](const Vote& v) { return v.voter == voter; });
  }
  // Distinct voters, whatever they voted for.
  std::size_t size() const { return votes_.size(); }
  bool empty() const { return votes_.empty(); }
  void clear() { votes_.clear(); }

  struct Vote {
    NodeId voter;
    crypto::Digest digest;
  };
  std::vector<Vote>::const_iterator begin() const { return votes_.begin(); }
  std::vector<Vote>::const_iterator end() const { return votes_.end(); }

 private:
  std::vector<Vote> votes_;
};

class SmrEngine {
 public:
  virtual ~SmrEngine() = default;

  // Submits an operation originated by the local replica. The engine
  // eventually decides it (liveness holds while faults <= f).
  virtual void propose(Bytes op) = 0;

  // Registers the decision callback; must be set before the first decide.
  virtual void set_decide_handler(DecideFn fn) = 0;

  // Runtime fault conversion (scenario Byzantine primitives): a silent
  // replica takes part in nothing from its next protocol action on; false
  // restores correct behaviour.
  virtual void set_silent(bool silent) = 0;

  // Tears the replica down (stops timers, detaches from the transport).
  virtual void stop() = 0;
};

}  // namespace atum::smr
