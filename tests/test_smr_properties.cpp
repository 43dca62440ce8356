// Multi-seed property harness for the PBFT checkpoint window and the
// reconfiguration chain: every test is parameterized over many seeds (16
// for the PBFT schedule, 256 for the reconfiguration churn), each seed
// driving a different randomized schedule of op bursts, replica
// isolations (never more than f at once), silent-fault windows and heal
// points, crossing many checkpoint boundaries. The invariants, not the
// schedules, are the spec:
//   * agreement  — ops common to two correct replicas' decide streams
//     appear in the same relative order, and no replica ever decides an op
//     twice (a checkpoint install may skip a middle segment, so streams are
//     gapped subsequences of one total order, not contiguous suffixes);
//   * accounting — skipped (reported by the install handler) + decided
//     converges to the same total at every replica: nothing decided is
//     lost, nothing is double-counted across state transfer;
//   * bounded memory — the executed history (the pinned-frame set) never
//     exceeds watermark_window at any replica, at any point we sample;
//   * chain agreement — under random membership churn (including joiners
//     resumed mid-chain from an EpochState, the snapshot path), all active
//     members end on the same epoch-hash chain head.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/pbft.h"
#include "smr/reconfig.h"

namespace atum::smr {
namespace {

Bytes op_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

constexpr int kSeeds = 16;
constexpr int kChurnSeeds = 256;  // ReconfigRandomChurn: a seed runs in about a millisecond

// Every proposed op carries a globally unique byte string, so decide
// streams can be compared as sequences of op ids. Common-op order check:
// ops present in both streams must appear in the same relative order.
void expect_same_relative_order(const std::vector<std::string>& a,
                                const std::vector<std::string>& b, const std::string& what) {
  std::map<std::string, std::size_t> pos_a;
  for (std::size_t i = 0; i < a.size(); ++i) pos_a[a[i]] = i;
  std::size_t last = 0;
  bool first = true;
  for (const auto& op : b) {
    auto it = pos_a.find(op);
    if (it == pos_a.end()) continue;
    if (!first) {
      ASSERT_GT(it->second, last) << what << ": common ops decided in different orders";
    }
    last = it->second;
    first = false;
  }
}

void expect_no_duplicates(const std::vector<std::string>& stream, const std::string& what) {
  std::map<std::string, int> counts;
  for (const auto& op : stream) ++counts[op];
  for (const auto& [op, c] : counts) {
    EXPECT_EQ(c, 1) << what << ": op '" << op << "' decided " << c << " times";
  }
}

// ---------------------------------------------------------------------------
// Suite 1: one PBFT instance under randomized faults and partitions.
// ---------------------------------------------------------------------------

struct PropertyGroup {
  sim::Simulator sim;
  net::SimNetwork net;
  crypto::KeyStore keys{101};
  GroupConfig cfg;
  std::vector<std::unique_ptr<PbftSmr>> replicas;
  // Per replica: decided op stream and ops skipped over by installs.
  std::map<NodeId, std::vector<std::string>> decided;
  std::map<NodeId, std::uint64_t> skipped;

  PropertyGroup(std::size_t g, std::uint64_t net_seed, PbftOptions opt)
      : net(sim, net::NetworkConfig::datacenter(), net_seed) {
    for (NodeId n = 0; n < g; ++n) cfg.members.push_back(n);
    for (NodeId n = 0; n < g; ++n) {
      auto r = std::make_unique<PbftSmr>(net::Transport(net, n), cfg, keys, opt,
                                         PbftFaultMode::kCorrect);
      r->set_decide_handler([this, n](std::uint64_t, NodeId, const net::Payload& op) {
        Bytes b = op.to_bytes();
        decided[n].push_back(std::string(b.begin(), b.end()));
      });
      r->set_install_handler([this, n](std::uint64_t, std::uint64_t, std::uint64_t from_ops,
                                       std::uint64_t to_ops) { skipped[n] += to_ops - from_ops; });
      replicas.push_back(std::move(r));
    }
  }

  PbftSmr& at(std::size_t i) { return *replicas[i]; }
  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }

  // skipped + decided: the number of group ops this replica accounts for.
  std::uint64_t accounted(NodeId n) { return skipped[n] + decided[n].size(); }

  void check_window_bound(std::uint64_t window, const char* when) {
    for (NodeId n = 0; n < replicas.size(); ++n) {
      ASSERT_LE(at(n).history_size(), window)
          << "replica " << n << " exceeded the head window " << when;
    }
  }
};

class PbftRandomSchedule : public ::testing::TestWithParam<int> {};

TEST_P(PbftRandomSchedule, InvariantsHoldAcrossChurnPartitionsAndCheckpoints) {
  Rng rng(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(GetParam()));
  const std::size_t g = rng.chance(0.5) ? 4 : 7;
  const std::size_t f = async_max_faults(g);

  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = rng.chance(0.5) ? 1 : 4;
  opt.view_change_timeout = millis(500);
  PropertyGroup grp(g, 1000 + static_cast<std::uint64_t>(GetParam()), opt);

  std::vector<NodeId> isolated;   // currently partitioned replicas
  std::vector<NodeId> silenced;   // currently silent-faulted replicas
  int proposed = 0;

  const int steps = 30;
  for (int step = 0; step < steps; ++step) {
    switch (rng.next_below(5)) {
      case 0:
      case 1: {  // op burst from random proposers
        int burst = static_cast<int>(rng.next_in(1, 8));
        for (int i = 0; i < burst; ++i) {
          auto proposer = static_cast<std::size_t>(rng.next_below(g));
          grp.at(proposer).propose(op_bytes("op" + std::to_string(proposed++)));
        }
        break;
      }
      case 2: {  // partition one more replica, staying within f total faults
        if (isolated.size() + silenced.size() < f) {
          auto victim = static_cast<NodeId>(rng.next_below(g));
          if (std::find(isolated.begin(), isolated.end(), victim) == isolated.end() &&
              std::find(silenced.begin(), silenced.end(), victim) == silenced.end()) {
            grp.net.isolate(victim, true);
            isolated.push_back(victim);
          }
        }
        break;
      }
      case 3: {  // silent-fault one more replica, staying within f
        if (isolated.size() + silenced.size() < f) {
          auto victim = static_cast<NodeId>(rng.next_below(g));
          if (std::find(isolated.begin(), isolated.end(), victim) == isolated.end() &&
              std::find(silenced.begin(), silenced.end(), victim) == silenced.end()) {
            grp.at(victim).set_silent(true);
            silenced.push_back(victim);
          }
        }
        break;
      }
      case 4: {  // heal everything
        for (NodeId n : isolated) grp.net.isolate(n, false);
        isolated.clear();
        for (NodeId n : silenced) grp.at(n).set_silent(false);
        silenced.clear();
        break;
      }
    }
    grp.run_for(millis(static_cast<std::int64_t>(rng.next_in(50, 1500))));
    grp.check_window_bound(opt.watermark_window, "mid-schedule");
  }

  // Heal and settle. Convergence needs live traffic: a laggard only fetches
  // state when fresh checkpoint votes reveal its gap, so keep proposing
  // until every replica accounts for the same total (bounded rounds).
  for (NodeId n : isolated) grp.net.isolate(n, false);
  for (NodeId n : silenced) grp.at(n).set_silent(false);

  // Drive the frontier across the acceptance floor first: with op batching,
  // a light schedule can decide all its ops in a handful of seqs, so the
  // soak would end without crossing the required checkpoint boundaries.
  for (int fill = 0; fill < 40; ++fill) {
    std::uint64_t best = 0;
    for (NodeId n = 0; n < g; ++n) best = std::max(best, grp.at(n).stable_seq());
    if (best >= 4 * opt.checkpoint_interval) break;
    grp.at(0).propose(op_bytes("fill" + std::to_string(fill)));
    grp.run_for(millis(500));
  }

  int settle = 0;
  for (int round = 0; round < 16; ++round) {
    grp.at(0).propose(op_bytes("settle" + std::to_string(settle++)));
    grp.run_for(seconds(10));
    bool converged = grp.accounted(0) > 0;
    for (NodeId n = 1; n < g; ++n) converged &= (grp.accounted(n) == grp.accounted(0));
    if (converged) break;
  }

  // Accounting: every replica converged on one total — no decided op lost
  // or double-counted across state transfer.
  for (NodeId n = 1; n < g; ++n) {
    EXPECT_EQ(grp.accounted(n), grp.accounted(0))
        << "replica " << n << " lost or duplicated ops (skipped " << grp.skipped[n]
        << ", decided " << grp.decided[n].size() << "; seed " << GetParam() << ")";
  }

  // Agreement: no duplicates within any stream; common ops in the same
  // relative order across every replica pair.
  for (NodeId n = 0; n < g; ++n) {
    expect_no_duplicates(grp.decided[n], "replica " + std::to_string(n));
  }
  for (NodeId a = 0; a < g; ++a) {
    for (NodeId b = a + 1; b < g; ++b) {
      expect_same_relative_order(grp.decided[a], grp.decided[b],
                                 "replicas " + std::to_string(a) + "/" + std::to_string(b) +
                                     " (seed " + std::to_string(GetParam()) + ")");
    }
  }

  grp.check_window_bound(opt.watermark_window, "after settle");
  // The schedule really crossed checkpoint boundaries (acceptance floor).
  std::uint64_t best_stable = 0;
  for (NodeId n = 0; n < g; ++n) best_stable = std::max(best_stable, grp.at(n).stable_seq());
  EXPECT_GE(best_stable, 4 * opt.checkpoint_interval)
      << "schedule too light to exercise checkpoints (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbftRandomSchedule, ::testing::Range(0, kSeeds));

// ---------------------------------------------------------------------------
// Suite 2: reconfiguration churn — chain agreement across random epochs.
// ---------------------------------------------------------------------------

class ReconfigRandomChurn : public ::testing::TestWithParam<int> {};

TEST_P(ReconfigRandomChurn, MembersAgreeOnChainHeadAndDecisions) {
  Rng rng(0xc0ffee ^ (static_cast<std::uint64_t>(GetParam()) << 32));
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter(),
                      2000 + static_cast<std::uint64_t>(GetParam()));
  crypto::KeyStore keys{43};
  EngineOptions opt;
  opt.kind = EngineKind::kAsync;
  opt.pbft.view_change_timeout = millis(500);
  opt.pbft.checkpoint_interval = 4;
  opt.pbft.watermark_window = 16;

  // Pool of 7 node ids; the live config floats between 4 and 6 members.
  // A node outside the current config cannot track the chain (each epoch is
  // a fresh instance with a fresh tag), so joiners are created on demand,
  // resumed from a live member's EpochState — exactly what the join
  // snapshot does at the core layer.
  constexpr NodeId kPool = 7;
  GroupConfig cfg;
  cfg.members = {0, 1, 2, 3};
  std::map<NodeId, std::unique_ptr<ReconfigurableSmr>> nodes;
  std::map<NodeId, std::vector<std::string>> decided;
  auto spawn = [&](NodeId n, const GroupConfig& at_cfg, std::optional<EpochState> resume) {
    nodes[n] = std::make_unique<ReconfigurableSmr>(net, n, at_cfg, keys, opt, std::move(resume));
    nodes[n]->set_decide_handler([&decided, n](std::uint64_t, NodeId, const net::Payload& op) {
      Bytes b = op.to_bytes();
      decided[n].push_back(std::string(b.begin(), b.end()));
    });
  };
  for (NodeId n : cfg.members) spawn(n, cfg, std::nullopt);

  int proposed = 0;
  int reconfigs = 0;
  std::vector<NodeId> live = cfg.members;
  // Grow: pick an outside pool id, hand it the anchor's chain position (the
  // simulated join snapshot), then propose the config admitting it.
  auto grow = [&] {
    NodeId anchor = live[0];
    std::vector<NodeId> outside;
    for (NodeId n = 0; n < kPool; ++n) {
      if (std::find(live.begin(), live.end(), n) == live.end()) outside.push_back(n);
    }
    NodeId add = outside[rng.next_below(outside.size())];
    live.push_back(add);
    std::sort(live.begin(), live.end());
    GroupConfig next;
    next.members = live;
    nodes[anchor]->propose_reconfig(next);
    ++reconfigs;
    sim.run_until(sim.now() + seconds(2));
    // The join snapshot is cut AFTER the switch (core/atum.cpp sends state
    // to newly admitted members once the config lands), so the joiner
    // starts as a member of the new instance, resumed at the new chain
    // position — never as a passive observer of the dying one.
    EpochState resume{nodes[anchor]->epoch(), nodes[anchor]->epoch_hash()};
    spawn(add, nodes[anchor]->config(), resume);
  };
  for (int step = 0; step < 10; ++step) {
    if (rng.chance(0.5) && live.size() < 6) {
      grow();
    } else if (live.size() > 4) {
      // Shrink: retire a random member; a survivor proposes.
      std::size_t idx = rng.next_below(live.size());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      GroupConfig next;
      next.members = live;
      nodes[live[0]]->propose_reconfig(next);
      ++reconfigs;
    }
    int burst = static_cast<int>(rng.next_in(0, 3));
    for (int i = 0; i < burst; ++i) {
      NodeId proposer = live[rng.next_below(live.size())];
      nodes[proposer]->propose(op_bytes("op" + std::to_string(proposed++)));
    }
    sim.run_until(sim.now() + seconds(5));
  }
  // A schedule whose coin flips never grew the group while it sat at 4
  // members proposed nothing; it grows once, so every seed reconfigures.
  if (reconfigs == 0) grow();
  sim.run_until(sim.now() + seconds(15));

  // Chain agreement: every member of the final config is active and shares
  // the chain head, the epoch number, and the configuration.
  NodeId anchor = live[0];
  for (NodeId n : live) {
    ASSERT_TRUE(nodes[n]->active()) << "final member " << n << " inactive (seed "
                                    << GetParam() << ")";
    EXPECT_EQ(nodes[n]->epoch_hash(), nodes[anchor]->epoch_hash())
        << "node " << n << " forked the chain (seed " << GetParam() << ")";
    EXPECT_EQ(nodes[n]->epoch(), nodes[anchor]->epoch()) << "node " << n;
    EXPECT_EQ(nodes[n]->config().members, live) << "node " << n;
  }
  EXPECT_GE(nodes[anchor]->epoch(), 1u) << "schedule produced no reconfiguration";

  // Every node reconfigured out (and not re-admitted) must have learned of
  // its removal: no zombies among non-members.
  for (NodeId n = 0; n < kPool; ++n) {
    if (!nodes.count(n) || std::find(live.begin(), live.end(), n) != live.end()) continue;
    EXPECT_FALSE(nodes[n]->active()) << "removed node " << n << " is a zombie (seed "
                                     << GetParam() << ")";
  }

  // Decision agreement: unique op ids; no node decides an op twice, and
  // any two nodes decide common ops in the same relative order (joiners
  // and removed nodes see windows of the total order).
  for (NodeId n = 0; n < kPool; ++n) {
    if (!nodes.count(n)) continue;
    expect_no_duplicates(decided[n], "node " + std::to_string(n));
  }
  for (NodeId a = 0; a < kPool; ++a) {
    for (NodeId b = a + 1; b < kPool; ++b) {
      if (!nodes.count(a) || !nodes.count(b)) continue;
      expect_same_relative_order(decided[a], decided[b],
                                 "nodes " + std::to_string(a) + "/" + std::to_string(b) +
                                     " (seed " + std::to_string(GetParam()) + ")");
    }
  }

  // Liveness of the final configuration: fresh traffic decides everywhere.
  nodes[anchor]->propose(op_bytes("final-probe"));
  sim.run_until(sim.now() + seconds(5));
  for (NodeId n : live) {
    ASSERT_FALSE(decided[n].empty()) << "node " << n;
    EXPECT_EQ(decided[n].back(), "final-probe") << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigRandomChurn, ::testing::Range(0, kChurnSeeds));

}  // namespace
}  // namespace atum::smr
