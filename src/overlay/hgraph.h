// H-graph overlay [51]: a multigraph over vgroups composed of `hc` random
// Hamiltonian cycles (§3.2). Constant degree (2 per cycle), logarithmic
// diameter w.h.p., and a decentralized random structure suitable for
// random-walk sampling.
//
// This class is the overlay bookkeeping shared by the vgroup-level
// simulator and (as ground truth) by tests of the node-level protocols.
// Vertices are vgroup ids.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace atum::overlay {

class HGraph {
 public:
  explicit HGraph(std::size_t cycles);

  std::size_t cycle_count() const { return cycles_.size(); }
  std::size_t size() const { return cycles_.empty() ? 0 : cycles_[0].size(); }
  bool contains(GroupId g) const;
  std::vector<GroupId> vertices() const;

  // Inserts the first vertex; it is its own neighbor on every cycle
  // (bootstrap, §3.3.1).
  void add_first(GroupId g);

  // Inserts v after `anchor` on cycle `c` (the anchor is discovered by a
  // random walk during a split, §3.3.2).
  void insert_after(std::size_t cycle, GroupId anchor, GroupId v);

  // Inserts v at a uniformly random position on every cycle.
  void insert_random(GroupId v, Rng& rng);

  GroupId successor(std::size_t cycle, GroupId v) const;
  GroupId predecessor(std::size_t cycle, GroupId v) const;

  // All distinct neighbors of v over all cycles (excluding v itself unless
  // the graph is a single vertex).
  std::vector<GroupId> neighbors(GroupId v) const;

  // Neighbors as (cycle, direction) incident links; a walk step picks one
  // uniformly. direction: 0 = successor, 1 = predecessor.
  struct Link {
    std::size_t cycle;
    int direction;
    GroupId target;
  };
  std::vector<Link> links(GroupId v) const;
  GroupId random_neighbor(GroupId v, Rng& rng) const;

  // Structural invariant: every cycle visits every vertex exactly once.
  bool validate() const;

 private:
  struct Ring {
    std::unordered_map<GroupId, GroupId> next;
    std::unordered_map<GroupId, GroupId> prev;
    std::size_t size() const { return next.size(); }
  };
  std::vector<Ring> cycles_;
};

}  // namespace atum::overlay
