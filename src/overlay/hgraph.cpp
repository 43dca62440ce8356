#include "overlay/hgraph.h"

#include <algorithm>
#include <stdexcept>

namespace atum::overlay {

HGraph::HGraph(std::size_t cycles) {
  if (cycles == 0) throw std::invalid_argument("HGraph: need at least one cycle");
  cycles_.resize(cycles);
}

bool HGraph::contains(GroupId g) const { return cycles_[0].next.contains(g); }

std::vector<GroupId> HGraph::vertices() const {
  std::vector<GroupId> out;
  out.reserve(size());
  // Sorted: callers index this vector with RNG draws (insert_random anchor
  // picks, ClusterSim's random group choices), so hash-table iteration
  // order would leak libstdc++'s bucket layout into protocol decisions —
  // deterministic on one stdlib, divergent across them.
  // lint: unordered-iter-ok(output is sorted below)
  for (const auto& [g, _] : cycles_[0].next) out.push_back(g);
  std::sort(out.begin(), out.end());
  return out;
}

void HGraph::add_first(GroupId g) {
  if (size() != 0) throw std::logic_error("HGraph::add_first on non-empty graph");
  for (Ring& ring : cycles_) {
    ring.next[g] = g;
    ring.prev[g] = g;
  }
}

void HGraph::insert_after(std::size_t cycle, GroupId anchor, GroupId v) {
  Ring& ring = cycles_.at(cycle);
  auto it = ring.next.find(anchor);
  if (it == ring.next.end()) throw std::invalid_argument("HGraph::insert_after: unknown anchor");
  if (ring.next.contains(v)) throw std::invalid_argument("HGraph::insert_after: duplicate vertex");
  GroupId after = it->second;
  ring.next[anchor] = v;
  ring.next[v] = after;
  ring.prev[after] = v;
  ring.prev[v] = anchor;
}

void HGraph::insert_random(GroupId v, Rng& rng) {
  if (size() == 0) {
    add_first(v);
    return;
  }
  // Independent anchor per cycle keeps the cycles independently random,
  // which the mixing properties of the H-graph rely on.
  std::vector<GroupId> verts = vertices();
  for (std::size_t c = 0; c < cycles_.size(); ++c) {
    GroupId anchor = verts[static_cast<std::size_t>(rng.next_below(verts.size()))];
    insert_after(c, anchor, v);
  }
}

GroupId HGraph::successor(std::size_t cycle, GroupId v) const {
  const Ring& ring = cycles_.at(cycle);
  auto it = ring.next.find(v);
  if (it == ring.next.end()) throw std::invalid_argument("HGraph::successor: unknown vertex");
  return it->second;
}

GroupId HGraph::predecessor(std::size_t cycle, GroupId v) const {
  const Ring& ring = cycles_.at(cycle);
  auto it = ring.prev.find(v);
  if (it == ring.prev.end()) throw std::invalid_argument("HGraph::predecessor: unknown vertex");
  return it->second;
}

std::vector<GroupId> HGraph::neighbors(GroupId v) const {
  std::vector<GroupId> out;
  for (std::size_t c = 0; c < cycles_.size(); ++c) {
    GroupId s = successor(c, v);
    GroupId p = predecessor(c, v);
    for (GroupId cand : {s, p}) {
      if (cand == v) continue;
      bool seen = false;
      for (GroupId e : out) seen |= (e == cand);
      if (!seen) out.push_back(cand);
    }
  }
  return out;
}

std::vector<HGraph::Link> HGraph::links(GroupId v) const {
  std::vector<Link> out;
  out.reserve(cycles_.size() * 2);
  for (std::size_t c = 0; c < cycles_.size(); ++c) {
    out.push_back(Link{c, 0, successor(c, v)});
    out.push_back(Link{c, 1, predecessor(c, v)});
  }
  return out;
}

GroupId HGraph::random_neighbor(GroupId v, Rng& rng) const {
  auto ls = links(v);
  return ls[static_cast<std::size_t>(rng.next_below(ls.size()))].target;
}

bool HGraph::validate() const {
  std::size_t n = size();
  for (const Ring& ring : cycles_) {
    if (ring.size() != n || ring.prev.size() != n) return false;
    if (n == 0) continue;
    // Walk the ring: must return to start after exactly n hops. Any entry
    // works as the start of a full-cycle walk, so hash order is harmless.
    // lint: unordered-iter-ok(arbitrary start of a full-cycle validity walk)
    GroupId start = ring.next.begin()->first;
    GroupId cur = start;
    for (std::size_t i = 0; i < n; ++i) {
      auto it = ring.next.find(cur);
      if (it == ring.next.end()) return false;
      if (ring.prev.at(it->second) != cur) return false;  // back-pointer broken
      cur = it->second;
    }
    if (cur != start) return false;
  }
  return true;
}

}  // namespace atum::overlay
