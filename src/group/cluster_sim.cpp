#include "group/cluster_sim.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace atum::group {

namespace {
template <typename Set>
NodeId nth_element_of(const Set& s, std::size_t idx) {
  auto it = s.begin();
  std::advance(it, static_cast<long>(idx));
  return *it;
}
}  // namespace

ClusterSim::ClusterSim(sim::Simulator& sim, ClusterSimConfig config)
    : sim_(sim), config_(config), rng_(config.seed), graph_(config.hc) {}

DurationMicros ClusterSim::agreement_latency(std::size_t group_size) const {
  // State transfer grows with the number of neighbor views kept (hc); §6.1.2
  // observes this cost is secondary to rwl.
  DurationMicros state_transfer =
      static_cast<DurationMicros>(config_.hc) * (config_.kind == smr::EngineKind::kSync
                                                     ? config_.round_duration / 50
                                                     : config_.net_rtt / 2);
  if (config_.kind == smr::EngineKind::kSync) {
    const std::size_t f = smr::sync_max_faults(group_size);
    return static_cast<DurationMicros>(f + 2) * config_.round_duration + state_transfer;
  }
  // PBFT: request + three phases, a handful of RTTs.
  return 4 * config_.net_rtt + state_transfer;
}

DurationMicros ClusterSim::hop_latency() const {
  // A walk hop is one group message processed by the next group: one round
  // in the synchronous system, about one RTT in the asynchronous one.
  return config_.kind == smr::EngineKind::kSync ? config_.round_duration : config_.net_rtt;
}

ClusterSim::Group& ClusterSim::group(GroupId g) {
  auto it = groups_.find(g);
  if (it == groups_.end()) throw std::logic_error("ClusterSim: unknown group");
  return it->second;
}

const ClusterSim::Group* ClusterSim::find(GroupId g) const {
  auto it = groups_.find(g);
  return it == groups_.end() ? nullptr : &it->second;
}

std::optional<GroupId> ClusterSim::group_of(NodeId n) const {
  auto it = node_group_.find(n);
  if (it == node_group_.end()) return std::nullopt;
  return it->second;
}

std::vector<NodeId> ClusterSim::members_of(GroupId g) const {
  const Group* grp = find(g);
  if (grp == nullptr) return {};
  return {grp->members.begin(), grp->members.end()};
}

void ClusterSim::mark_byzantine(NodeId node, bool byz) {
  if (byz) {
    byzantine_.insert(node);
  } else {
    byzantine_.erase(node);
  }
}

void ClusterSim::bootstrap(NodeId first_node) {
  if (!groups_.empty()) throw std::logic_error("ClusterSim: already bootstrapped");
  GroupId g = mint_group_id();
  groups_[g].members.insert(first_node);
  node_group_[first_node] = g;
  graph_.add_first(g);
}

void ClusterSim::when_free(GroupId g, std::function<void()> op) {
  Group& grp = group(g);
  if (!grp.busy) {
    op();
    return;
  }
  grp.pending.push_back(std::move(op));
}

void ClusterSim::occupy(GroupId g, DurationMicros duration, std::function<void()> body) {
  Group& grp = group(g);
  assert(!grp.busy);
  grp.busy = true;
  sim_.schedule_after(duration, [this, g, body = std::move(body)] {
    body();
    release(g);
  });
}

void ClusterSim::occupy_held(GroupId g, DurationMicros duration, std::function<void()> body) {
  Group& grp = group(g);
  assert(!grp.busy);
  grp.busy = true;
  sim_.schedule_after(duration, std::move(body));
}

void ClusterSim::release(GroupId g) {
  group(g).busy = false;
  pump(g);
}

void ClusterSim::pump(GroupId g) {
  Group& grp = group(g);
  if (grp.busy || grp.pending.empty()) return;
  auto op = std::move(grp.pending.front());
  grp.pending.pop_front();
  // Break the call stack; after the op runs, keep draining unless it
  // occupied the group (a suppressed exchange, or a split an earlier split
  // made moot, takes none). Re-check at execution time: a same-timestamp
  // event may have occupied the group between scheduling and running.
  sim_.schedule_after(0, [this, g, op = std::move(op)]() mutable {
    if (Group& now = group(g); now.busy) {
      now.pending.push_front(std::move(op));
      return;
    }
    op();
    pump(g);
  });
}

void ClusterSim::run_walk(GroupId from, std::function<void(GroupId)> done) {
  ++stats_.walks;
  stats_.walk_hops += config_.rwl;
  DurationMicros latency = static_cast<DurationMicros>(config_.rwl) * hop_latency();
  sim_.schedule_after(latency, [this, from, done = std::move(done)] {
    // Navigate the graph as it is when the walk completes; mid-walk
    // splits perturb real walks the same way.
    GroupId cur = from;
    for (std::size_t s = 0; s < config_.rwl; ++s) {
      cur = graph_.random_neighbor(cur, rng_);
    }
    done(cur);
  });
}

void ClusterSim::request_join(NodeId node, std::function<void()> done) {
  ++stats_.joins_requested;
  if (groups_.empty()) throw std::logic_error("ClusterSim: bootstrap first");
  if (node_group_.contains(node)) throw std::invalid_argument("ClusterSim: node already joined");

  // The contact node's vgroup agrees on the join request (§3.3.2)...
  auto verts = graph_.vertices();
  GroupId contact = verts[static_cast<std::size_t>(rng_.next_below(verts.size()))];
  join_via_contact(node, contact, std::move(done));
}

void ClusterSim::join_via_contact(NodeId node, GroupId contact, std::function<void()> done) {
  if (group(contact).busy) {
    when_free(contact, [this, node, contact, done = std::move(done)]() mutable {
      join_via_contact(node, contact, std::move(done));
    });
    return;
  }
  std::size_t c_size = group(contact).members.size();
  occupy(contact, agreement_latency(c_size),
         [this, contact, node, done = std::move(done)]() mutable {
           // ...then starts the placement walk.
           run_walk(contact, [this, node, done = std::move(done)](GroupId target) mutable {
             admit(node, target, std::move(done));
           });
         });
}

void ClusterSim::admit(NodeId node, GroupId target, std::function<void()> done) {
  if (group(target).busy) {
    when_free(target, [this, target, node, done = std::move(done)]() mutable {
      admit(node, target, std::move(done));
    });
    return;
  }
  std::size_t size = group(target).members.size();
  occupy_held(target, agreement_latency(size + 1), [this, target, node, done = std::move(done)] {
    group(target).members.insert(node);
    node_group_[node] = target;
    ++stats_.joins_completed;
    shuffle_held(target, [this, target, done] { maybe_split(target, done); });
  });
}

void ClusterSim::shuffle_held(GroupId g, std::function<void()> done) {
  if (!config_.shuffle_enabled) {
    release(g);
    if (done) done();
    return;
  }
  Group& grp = group(g);
  assert(grp.busy);

  auto members = std::make_shared<std::vector<NodeId>>(grp.members.begin(), grp.members.end());
  auto remaining = std::make_shared<std::size_t>(members->size());
  // The walks run while the group continues normal operation; only the
  // pairwise exchange step occupies the two groups involved. An exchange
  // whose partner (or whose own group) is mid-operation at that moment is
  // suppressed — the paper's Figure 13 effect.
  release(g);
  auto finish = [done, remaining] {
    if (--(*remaining) > 0) return;
    if (done) done();
  };

  for (NodeId m : *members) {
    run_walk(g, [this, g, m, finish](GroupId partner) {
      // Exchanges of one shuffle are ops of the own group's SMR: they queue
      // locally. Only a busy PARTNER suppresses the exchange (§7).
      when_free(g, [this, g, m, partner, finish] {
        ++stats_.exchanges_attempted;
        if (partner == g || group(partner).busy) {
          ++stats_.exchanges_suppressed;
          finish();
          return;
        }
        Group& mine = group(g);
        Group& theirs = group(partner);
        if (!mine.members.contains(m)) {
          ++stats_.exchanges_suppressed;
          finish();
          return;
        }
        // Pairwise agreement: both groups reconfigure together.
        mine.busy = true;
        theirs.busy = true;
        DurationMicros latency = agreement_latency(
            std::max(mine.members.size(), theirs.members.size()));
        sim_.schedule_after(latency, [this, g, partner, m, finish] {
          Group& a = group(g);
          Group& b = group(partner);
          if (a.members.contains(m)) {
            NodeId s = nth_element_of(
                b.members, static_cast<std::size_t>(rng_.next_below(b.members.size())));
            a.members.erase(m);
            b.members.erase(s);
            a.members.insert(s);
            b.members.insert(m);
            node_group_[m] = partner;
            node_group_[s] = g;
            ++stats_.exchanges_completed;
          } else {
            ++stats_.exchanges_suppressed;
          }
          release(g);
          release(partner);
          finish();
        });
      });
    });
  }
}

void ClusterSim::maybe_split(GroupId g, std::function<void()> done) {
  if (group(g).members.size() > config_.gmax) {
    split(g, std::move(done));
  } else if (done) {
    done();
  }
}

void ClusterSim::split(GroupId g, std::function<void()> done) {
  when_free(g, [this, g, done]() mutable {
    if (group(g).members.size() <= config_.gmax) {
      if (done) done();
      return;
    }
    // Agreement on the split + hc anchor walks run concurrently.
    DurationMicros duration =
        agreement_latency(group(g).members.size()) +
        static_cast<DurationMicros>(config_.rwl) * hop_latency();
    stats_.walks += config_.hc;
    stats_.walk_hops += config_.hc * config_.rwl;
    occupy(g, duration, [this, g, done] {
      Group& grp = group(g);
      if (grp.members.size() <= config_.gmax) {
        if (done) done();
        return;
      }
      // Random bisection (§3.3.2).
      std::vector<NodeId> all(grp.members.begin(), grp.members.end());
      rng_.shuffle(all);
      std::size_t half = all.size() / 2;
      GroupId e = mint_group_id();
      Group& fresh = groups_[e];
      for (std::size_t i = half; i < all.size(); ++i) {
        fresh.members.insert(all[i]);
        grp.members.erase(all[i]);
        node_group_[all[i]] = e;
      }
      // One walk per cycle selected an anchor; the anchor inserts E between
      // itself and its successor on that cycle. All anchors are chosen
      // before E enters the graph: a half-inserted vertex must not be a
      // relay for the remaining walks.
      std::vector<GroupId> anchors(config_.hc);
      for (std::size_t c = 0; c < config_.hc; ++c) {
        GroupId anchor = g;
        for (std::size_t s = 0; s < config_.rwl; ++s) {
          anchor = graph_.random_neighbor(anchor, rng_);
        }
        anchors[c] = anchor;
      }
      for (std::size_t c = 0; c < config_.hc; ++c) {
        graph_.insert_after(c, anchors[c], e);
      }
      ++stats_.splits;
      if (done) done();
    });
  });
}

std::vector<ClusterSim::GroupRobustness> ClusterSim::robustness_report() const {
  std::vector<GroupRobustness> out;
  for (const auto& [g, grp] : groups_) {
    GroupRobustness r;
    r.group = g;
    r.size = grp.members.size();
    r.byzantine = 0;
    for (NodeId n : grp.members) r.byzantine += byzantine_.contains(n);
    r.threshold = smr::max_faults(config_.kind, r.size);
    out.push_back(r);
  }
  return out;
}

bool ClusterSim::check_invariants(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Graph vertices == groups.
  if (graph_.size() != groups_.size()) return fail("graph/groups size mismatch");
  for (const auto& [g, grp] : groups_) {
    if (!graph_.contains(g)) return fail("live group missing from graph");
    for (NodeId n : grp.members) {
      auto it = node_group_.find(n);
      if (it == node_group_.end() || it->second != g) {
        return fail("member map inconsistent");
      }
    }
  }
  std::size_t counted = 0;
  // lint: unordered-iter-ok(pure counting/containment check, order-free)
  for (const auto& [n, g] : node_group_) {
    const Group* grp = find(g);
    if (grp == nullptr || !grp->members.contains(n)) return fail("node map points nowhere");
    ++counted;
  }
  std::size_t total = 0;
  for (const auto& [g, grp] : groups_) total += grp.members.size();
  if (counted != total) return fail("membership count mismatch");
  if (!graph_.validate()) return fail("H-graph cycles corrupted");
  return true;
}

}  // namespace atum::group
