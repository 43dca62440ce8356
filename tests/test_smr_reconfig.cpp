// Tests for epoch-based SMR reconfiguration: membership changes through the
// agreement path, op carry-over across epochs, and member retirement.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/keys.h"
#include "net/network.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "smr/reconfig.h"

namespace atum::smr {
namespace {

Bytes op_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct ReconfigHarness {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 31};
  crypto::KeyStore keys{13};
  EngineOptions opt;
  std::map<NodeId, std::unique_ptr<ReconfigurableSmr>> nodes;
  std::map<NodeId, std::vector<std::pair<NodeId, Bytes>>> decided;
  std::map<NodeId, std::vector<std::uint64_t>> epochs_seen;

  explicit ReconfigHarness(EngineKind kind) {
    opt.kind = kind;
    opt.ds.round_duration = millis(20);
    opt.pbft.view_change_timeout = millis(500);
  }

  void add_node(NodeId n, const GroupConfig& cfg,
                std::optional<EpochState> resume = std::nullopt) {
    auto r = std::make_unique<ReconfigurableSmr>(net, n, cfg, keys, opt, std::move(resume));
    r->set_decide_handler([this, n](std::uint64_t, NodeId origin, const net::Payload& op) {
      decided[n].emplace_back(origin, op.to_bytes());
    });
    r->set_config_handler(
        [this, n](std::uint64_t epoch, const GroupConfig&) { epochs_seen[n].push_back(epoch); });
    nodes[n] = std::move(r);
  }

  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }
};

GroupConfig members(std::initializer_list<NodeId> ns) {
  GroupConfig c;
  c.members = ns;
  c.normalize();
  return c;
}

class ReconfigBothEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ReconfigBothEngines, AppOpsDecideNormally) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose(op_bytes("plain"));
  h.run_for(seconds(5));
  for (NodeId n : cfg.members) {
    ASSERT_EQ(h.decided[n].size(), 1u) << "node " << n;
    EXPECT_EQ(h.decided[n][0].second, op_bytes("plain"));
  }
}

TEST_P(ReconfigBothEngines, ReconfigSwitchesEpochAndMembership) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  auto next = members({0, 1, 2, 4});
  h.nodes[1]->propose_reconfig(next);
  h.run_for(seconds(5));
  for (NodeId n : {0u, 1u, 2u}) {
    ASSERT_EQ(h.epochs_seen[n].size(), 1u) << "node " << n;
    EXPECT_EQ(h.epochs_seen[n][0], 1u);
    EXPECT_EQ(h.nodes[n]->config().members, next.members);
    EXPECT_TRUE(h.nodes[n]->active());
  }
}

TEST_P(ReconfigBothEngines, RemovedMemberBecomesInactive) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_reconfig(members({0, 1, 2}));
  h.run_for(seconds(5));
  EXPECT_FALSE(h.nodes[3]->active());
  EXPECT_TRUE(h.nodes[0]->active());
}

TEST_P(ReconfigBothEngines, NewEpochKeepsDeciding) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_reconfig(members({0, 1, 2}));
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  h.nodes[1]->propose(op_bytes("after-epoch"));
  h.run_for(seconds(5));
  for (NodeId n : {0u, 1u, 2u}) {
    ASSERT_FALSE(h.decided[n].empty()) << "node " << n;
    EXPECT_EQ(h.decided[n].back().second, op_bytes("after-epoch"));
  }
}

TEST_P(ReconfigBothEngines, InFlightOpSurvivesReconfig) {
  // An op proposed around the same time as a reconfiguration must not be
  // lost: the wrapper re-proposes unacked ops into the new epoch.
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_reconfig(members({0, 1, 2}));
  h.nodes[1]->propose(op_bytes("must-survive"));
  h.run_for(seconds(10));
  for (NodeId n : {0u, 1u, 2u}) {
    int count = 0;
    for (const auto& [origin, op] : h.decided[n]) count += (op == op_bytes("must-survive"));
    EXPECT_EQ(count, 1) << "node " << n << " lost or duplicated the in-flight op";
  }
}

TEST_P(ReconfigBothEngines, GrowingTheGroupActivatesNewMember) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  auto next = members({0, 1, 2, 5});
  h.nodes[2]->propose_reconfig(next);
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->config().members, next.members);
  // The group layer creates the new member's replica once the config lands,
  // handing it the chain position from the join snapshot — without it the
  // joiner's instance tag would not match the group's epoch-1 instance.
  h.add_node(5, next, EpochState{h.nodes[0]->epoch(), h.nodes[0]->epoch_hash()});
  h.nodes[5]->propose(op_bytes("from-new-member"));
  h.run_for(seconds(5));
  for (NodeId n : {0u, 1u, 2u, 5u}) {
    ASSERT_FALSE(h.decided[n].empty()) << "node " << n;
    EXPECT_EQ(h.decided[n].back().second, op_bytes("from-new-member"));
  }
}

TEST_P(ReconfigBothEngines, SequentialReconfigs) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_reconfig(members({0, 1, 2}));
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  h.nodes[0]->propose_reconfig(members({0, 1}));
  h.run_for(seconds(5));
  EXPECT_EQ(h.nodes[0]->epoch(), 2u);
  EXPECT_EQ(h.nodes[0]->config().members, members({0, 1}).members);
  EXPECT_FALSE(h.nodes[2]->active());
}

TEST_P(ReconfigBothEngines, EmptyReconfigRefused) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_reconfig(GroupConfig{});
  h.run_for(seconds(5));
  EXPECT_EQ(h.nodes[0]->epoch(), 0u);
  EXPECT_TRUE(h.nodes[0]->active());
}

// A removal notice counts one vote per sender: the sender's latest notice.
// Node 3's last-known config has 4 members, so f+1 = 2 matching notices
// switch it. Member 0 sends notice N1 and then a different N2, so only its
// N2 counts; member 1's N1 alone must not switch node 3, member 2's must.
TEST_P(ReconfigBothEngines, RemovalNoticeCountsOneVotePerSender) {
  ReconfigHarness h(GetParam());
  h.add_node(3, members({0, 1, 2, 3}));
  auto notice = [](std::uint8_t hash_byte) {
    ByteWriter w;
    w.u64(1);  // epoch
    crypto::Digest hash{};
    hash.fill(hash_byte);
    w.raw(hash.data(), hash.size());
    w.vec(std::vector<NodeId>{0, 1, 2}, [](ByteWriter& bw, NodeId n) { bw.u64(n); });
    return w.take();
  };
  const Bytes n1 = notice(0x01);
  const Bytes n2 = notice(0x02);
  auto send = [&](NodeId from, const Bytes& body) {
    h.net.send(net::Message{from, 3, net::MsgType::kSmrRemovalNotice, net::Payload(body)});
    h.run_for(millis(50));
  };

  send(0, n1);
  send(0, n2);
  send(1, n1);
  EXPECT_TRUE(h.epochs_seen[3].empty()) << "member 0's replaced N1 vote still counted";
  EXPECT_TRUE(h.nodes[3]->active());

  send(2, n1);
  ASSERT_EQ(h.epochs_seen[3].size(), 1u);
  EXPECT_EQ(h.epochs_seen[3][0], 1u);
  EXPECT_FALSE(h.nodes[3]->active());
}

// A PBFT member cut off while the group truncates its log catches up by
// installing a checkpoint. The install handler moves the cross-epoch
// sequence past the ops it skipped, so every op the member decides after
// the install carries the seq the others gave it.
TEST(ReconfigurableSmr, CheckpointInstallKeepsTheSequenceAligned) {
  ReconfigHarness h(EngineKind::kAsync);
  h.opt.pbft.checkpoint_interval = 4;
  h.opt.pbft.watermark_window = 16;
  h.opt.pbft.batch_max_ops = 1;
  obs::Registry laggard_metrics;
  std::map<NodeId, std::map<std::string, std::uint64_t>> seq_of;  // per member: op -> seq
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) {
    h.opt.pbft.metrics = n == 3 ? &laggard_metrics : nullptr;
    h.add_node(n, cfg);
    h.nodes[n]->set_decide_handler(
        [&seq_of, n](std::uint64_t seq, NodeId, const net::Payload& op) {
          seq_of[n][std::string(op.begin(), op.end())] = seq;
        });
  }

  h.net.isolate(3, true);
  for (int i = 0; i < 40; ++i) {
    h.nodes[0]->propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) h.run_for(millis(200));
  }
  h.run_for(seconds(5));
  ASSERT_EQ(seq_of[0].size(), 40u);
  ASSERT_TRUE(seq_of[3].empty());

  h.net.isolate(3, false);
  for (int i = 40; i < 60; ++i) h.nodes[0]->propose(op_bytes("op" + std::to_string(i)));
  h.run_for(seconds(30));
  ASSERT_EQ(seq_of[0].size(), 60u);
  EXPECT_GE(laggard_metrics.counter("smr.checkpoint_installs").value(), 1u);
  ASSERT_FALSE(seq_of[3].empty());
  EXPECT_LT(seq_of[3].size(), 60u) << "no op was skipped: nothing was installed";
  for (const auto& [op, seq] : seq_of[3]) {
    ASSERT_TRUE(seq_of[0].contains(op));
    EXPECT_EQ(seq, seq_of[0][op]) << op;
  }
}

// A Sync (Dolev-Strong) member turned silent mid-run through
// ReconfigurableSmr::set_silent sends nothing afterwards, not even its own
// proposal, and the other members still decide.
TEST(ReconfigurableSmr, SilentSyncMemberSendsNothingAndTheRestDecide) {
  ReconfigHarness h(EngineKind::kSync);
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[3]->propose(op_bytes("before"));
  h.run_for(seconds(5));
  for (NodeId n : cfg.members) ASSERT_EQ(h.decided[n].size(), 1u) << "node " << n;

  h.nodes[3]->set_silent(true);
  const std::uint64_t sent = h.net.stats().messages_sent;
  h.nodes[3]->propose(op_bytes("silenced"));
  h.run_for(seconds(5));
  EXPECT_EQ(h.net.stats().messages_sent, sent) << "the silent member sent";

  h.nodes[0]->propose(op_bytes("after"));
  h.run_for(seconds(5));
  for (NodeId n : {0u, 1u, 2u}) {
    ASSERT_EQ(h.decided[n].size(), 2u) << "node " << n;
    EXPECT_EQ(h.decided[n][1].second, op_bytes("after")) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ReconfigBothEngines,
                         ::testing::Values(EngineKind::kSync, EngineKind::kAsync),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return info.param == EngineKind::kSync ? "Sync" : "Async";
                         });

}  // namespace
}  // namespace atum::smr
