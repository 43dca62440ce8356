// Tests for the group layer: replicated vgroup state, op encodings, and the
// vgroup-granularity cluster simulator (growth, shuffling, split, exchange
// suppression, fault dispersal).
#include <gtest/gtest.h>

#include "group/cluster_sim.h"
#include "group/vgroup_state.h"
#include "sim/simulator.h"

namespace atum::group {
namespace {

// ---------------------------------------------------------------------------
// VGroupState
// ---------------------------------------------------------------------------

TEST(VGroupState, MembersSortedAndQueried) {
  VGroupState s(9, {5, 1, 3}, 2);
  EXPECT_EQ(s.members(), (std::vector<NodeId>{1, 3, 5}));
  EXPECT_TRUE(s.has_member(3));
  EXPECT_FALSE(s.has_member(4));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.cycle_count(), 2u);
}

TEST(VGroupState, NeighborRefsSkipSelfAndDuplicates) {
  VGroupState s(1, {10}, 2);
  s.set_successor(0, GroupView{2, {20}});
  s.set_predecessor(0, GroupView{3, {30}});
  s.set_successor(1, GroupView{2, {20}});
  s.set_predecessor(1, GroupView{2, {20}});  // same group both directions
  auto refs = s.neighbor_refs();
  // cycle0: 2 and 3; cycle1: successor 2 only (pred==succ collapses).
  EXPECT_EQ(refs.size(), 3u);
}

TEST(VGroupState, SelfNeighborBootstrapHasNoRefs) {
  VGroupState s(1, {10}, 3);
  GroupView self{1, {10}};
  for (std::size_t c = 0; c < 3; ++c) {
    s.set_successor(c, self);
    s.set_predecessor(c, self);
  }
  EXPECT_TRUE(s.neighbor_refs().empty());
}

TEST(VGroupState, RefreshNeighborUpdatesAllSlots) {
  VGroupState s(1, {10}, 2);
  s.set_successor(0, GroupView{2, {20}});
  s.set_predecessor(1, GroupView{2, {20}});
  s.refresh_neighbor(GroupView{2, {20, 21}});
  EXPECT_EQ(s.cycle(0).successor.members.size(), 2u);
  EXPECT_EQ(s.cycle(1).predecessor.members.size(), 2u);
}

TEST(VGroupState, FindGroupSeesSelfAndNeighbors) {
  VGroupState s(1, {10, 11}, 1);
  s.set_successor(0, GroupView{2, {20}});
  s.set_predecessor(0, GroupView{3, {30}});
  EXPECT_NE(s.find_group(1), nullptr);
  EXPECT_NE(s.find_group(2), nullptr);
  EXPECT_NE(s.find_group(3), nullptr);
  EXPECT_EQ(s.find_group(99), nullptr);
  EXPECT_EQ(s.known_groups().size(), 3u);
}

TEST(VGroupOps, BroadcastRoundTrip) {
  BroadcastOp op;
  op.bcast = BroadcastId{7, 3};
  op.payload = Bytes{1, 2, 3};
  auto d = decode_op(op.encode());
  EXPECT_EQ(d.kind, OpKind::kBroadcast);
  EXPECT_EQ(d.broadcast.bcast, (BroadcastId{7, 3}));
  EXPECT_EQ(d.broadcast.payload, (Bytes{1, 2, 3}));
}

TEST(VGroupOps, SuspectRoundTrip) {
  SuspectOp op;
  op.suspect = 42;
  auto d = decode_op(op.encode());
  EXPECT_EQ(d.kind, OpKind::kSuspect);
  EXPECT_EQ(d.suspect.suspect, 42u);
}

TEST(VGroupOps, StartWalkRoundTrip) {
  StartWalkOp op;
  op.purpose = 1;
  op.nonce = 99;
  op.payload = Bytes{5};
  auto d = decode_op(op.encode());
  EXPECT_EQ(d.kind, OpKind::kStartWalk);
  EXPECT_EQ(d.walk.nonce, 99u);
}

TEST(VGroupOps, GarbageRejected) {
  EXPECT_THROW(decode_op(Bytes{0xFF, 0x00}), SerdeError);
  EXPECT_THROW(decode_op(Bytes{}), SerdeError);
}

TEST(VGroupOps, BroadcastDecodeIsZeroCopySlice) {
  BroadcastOp op;
  op.bcast = BroadcastId{7, 9};
  op.payload = net::Payload(Bytes(100, 0xEE));
  net::Payload wire(op.encode());
  auto d = decode_op(wire);
  ASSERT_EQ(d.kind, OpKind::kBroadcast);
  EXPECT_EQ(d.broadcast.payload, op.payload);
  // The decoded payload points into the decided op's buffer — a refcounted
  // slice, not a copy.
  EXPECT_GE(d.broadcast.payload.data(), wire.data());
  EXPECT_LE(d.broadcast.payload.data() + d.broadcast.payload.size(),
            wire.data() + wire.size());
  EXPECT_EQ(d.broadcast.payload.use_count(), wire.use_count());
}

TEST(VGroupOps, BroadcastOpEncodingIsTheGossipFrame) {
  // The core layer relays a decided broadcast op verbatim as the kGmGossip
  // group-message body (atum.cpp static_asserts the tag equality); pin the
  // byte layout both sides rely on.
  BroadcastOp op;
  op.bcast = BroadcastId{0x1122, 0x3344};
  op.payload = net::Payload(Bytes{9, 8, 7});
  ByteWriter w;
  w.u8(1);  // kGmGossip == OpKind::kBroadcast
  w.u64(0x1122);
  w.u64(0x3344);
  w.bytes(Bytes{9, 8, 7});
  EXPECT_EQ(op.encode(), w.take());
}

// ---------------------------------------------------------------------------
// ClusterSim
// ---------------------------------------------------------------------------

ClusterSimConfig fast_config() {
  ClusterSimConfig c;
  c.hc = 3;
  c.rwl = 5;
  c.gmax = 8;
  c.kind = smr::EngineKind::kSync;
  c.round_duration = millis(10);  // fast rounds keep tests quick
  return c;
}

struct SimFixture : ::testing::Test {
  sim::Simulator sim;

  // Grows a cluster to `n` nodes, driving joins in waves.
  std::unique_ptr<ClusterSim> grow(std::size_t n, ClusterSimConfig cfg) {
    auto cs = std::make_unique<ClusterSim>(sim, cfg);
    cs->bootstrap(0);
    for (NodeId node = 1; node < n; ++node) {
      cs->request_join(node);
      sim.run_until(sim.now() + millis(40));
    }
    sim.run_until(sim.now() + seconds(60));
    return cs;
  }
};

TEST_F(SimFixture, BootstrapSingleton) {
  ClusterSim cs(sim, fast_config());
  cs.bootstrap(7);
  EXPECT_EQ(cs.node_count(), 1u);
  EXPECT_EQ(cs.group_count(), 1u);
  EXPECT_EQ(cs.group_of(7), cs.graph().vertices()[0]);
  EXPECT_TRUE(cs.check_invariants());
}

TEST_F(SimFixture, JoinsGrowTheSystem) {
  auto cs = grow(30, fast_config());
  EXPECT_EQ(cs->node_count(), 30u);
  EXPECT_EQ(cs->stats().joins_completed, 29u);
  std::string why;
  EXPECT_TRUE(cs->check_invariants(&why)) << why;
}

TEST_F(SimFixture, GroupsSplitAsSystemGrows) {
  auto cs = grow(60, fast_config());
  EXPECT_GT(cs->group_count(), 1u);
  EXPECT_GT(cs->stats().splits, 0u);
  // Every group within bounds once the dust settles.
  for (GroupId g : cs->graph().vertices()) {
    auto m = cs->members_of(g);
    EXPECT_LE(m.size(), fast_config().gmax + 1);  // +1: a join may be settling
  }
}

TEST_F(SimFixture, ShufflingExchangesMembers) {
  auto cs = grow(40, fast_config());
  EXPECT_GT(cs->stats().exchanges_attempted, 0u);
  EXPECT_GT(cs->stats().exchanges_completed, 0u);
}

TEST_F(SimFixture, ShuffleDisabledMeansNoExchanges) {
  auto cfg = fast_config();
  cfg.shuffle_enabled = false;
  auto cs = grow(30, cfg);
  EXPECT_EQ(cs->stats().exchanges_attempted, 0u);
  EXPECT_EQ(cs->node_count(), 30u);
}

TEST_F(SimFixture, FasterJoinRateSuppressesMoreExchanges) {
  // Figure 13's effect: concurrent shuffles suppress exchanges.
  auto run_at_rate = [&](DurationMicros gap) {
    sim::Simulator local;
    ClusterSim cs(local, fast_config());
    cs.bootstrap(0);
    for (NodeId n = 1; n < 80; ++n) {
      cs.request_join(n);
      local.run_until(local.now() + gap);
    }
    local.run_until(local.now() + seconds(120));
    const auto& st = cs.stats();
    return st.exchanges_attempted == 0
               ? 0.0
               : static_cast<double>(st.exchanges_suppressed) /
                     static_cast<double>(st.exchanges_attempted);
  };
  double slow = run_at_rate(millis(200));
  double fast = run_at_rate(millis(5));
  EXPECT_GT(fast, slow);
}

TEST_F(SimFixture, ByzantineNodesStayDispersed) {
  auto cfg = fast_config();
  cfg.seed = 999;
  auto cs = std::make_unique<ClusterSim>(sim, cfg);
  cs->bootstrap(0);
  Rng rng(55);
  // 6% Byzantine joiners, as in §6.1.3.
  for (NodeId n = 1; n < 150; ++n) {
    cs->request_join(n);
    if (rng.chance(0.06)) cs->mark_byzantine(n);
    sim.run_until(sim.now() + millis(25));
  }
  sim.run_until(sim.now() + seconds(120));
  auto report = cs->robustness_report();
  std::size_t robust = 0;
  for (const auto& r : report) robust += r.robust();
  // Shuffling must keep virtually all vgroups robust.
  EXPECT_GE(static_cast<double>(robust) / static_cast<double>(report.size()), 0.9);
}

TEST_F(SimFixture, AsyncAgreementIsCheaperThanSync) {
  ClusterSimConfig sync_cfg = fast_config();
  ClusterSimConfig async_cfg = fast_config();
  async_cfg.kind = smr::EngineKind::kAsync;
  ClusterSim a(sim, sync_cfg), b(sim, async_cfg);
  EXPECT_GT(a.agreement_latency(10), b.agreement_latency(10));
  EXPECT_GT(a.hop_latency(), b.hop_latency());
}

TEST_F(SimFixture, AgreementLatencyGrowsWithGroupSizeInSync) {
  ClusterSim cs(sim, fast_config());
  EXPECT_LT(cs.agreement_latency(5), cs.agreement_latency(21));
}

TEST_F(SimFixture, InvalidConfigRejected) {
  auto cfg = fast_config();
  cfg.hc = 0;
  EXPECT_THROW(ClusterSim(sim, cfg), std::invalid_argument);
}

TEST_F(SimFixture, DoubleBootstrapRejected) {
  ClusterSim cs(sim, fast_config());
  cs.bootstrap(1);
  EXPECT_THROW(cs.bootstrap(2), std::logic_error);
}

TEST_F(SimFixture, DuplicateJoinRejected) {
  ClusterSim cs(sim, fast_config());
  cs.bootstrap(1);
  cs.request_join(2);
  sim.run_until(seconds(30));
  EXPECT_THROW(cs.request_join(2), std::invalid_argument);
}

// Parameterized growth sweep across engine kinds and walk lengths.
struct GrowthParam {
  smr::EngineKind kind;
  std::size_t rwl;
};

// gtest names each case with the printed param; printed as raw bytes, its
// padding would change the name from one listing to the next.
void PrintTo(const GrowthParam& p, std::ostream* os) {
  *os << (p.kind == smr::EngineKind::kSync ? "sync" : "async") << ", rwl " << p.rwl;
}

class ClusterGrowthSweep : public ::testing::TestWithParam<GrowthParam> {};

TEST_P(ClusterGrowthSweep, SurvivesSustainedGrowth) {
  auto p = GetParam();
  sim::Simulator sim;
  ClusterSimConfig cfg;
  cfg.hc = 4;
  cfg.rwl = p.rwl;
  cfg.gmax = 8;
  cfg.kind = p.kind;
  cfg.round_duration = millis(10);
  cfg.net_rtt = millis(2);
  ClusterSim cs(sim, cfg);
  cs.bootstrap(0);
  for (NodeId n = 1; n < 40; ++n) {
    cs.request_join(n);
    sim.run_until(sim.now() + millis(30));
  }
  sim.run_until(sim.now() + seconds(60));

  // A second wave, its joins 50 ms apart: each lands while earlier ones
  // still hold groups for agreements, shuffles and splits.
  NodeId next = 100;
  for (int round = 0; round < 60; ++round) {
    cs.request_join(next++);
    sim.run_until(sim.now() + millis(50));
  }
  sim.run_until(sim.now() + seconds(300));
  std::string why;
  EXPECT_TRUE(cs.check_invariants(&why)) << why;
  EXPECT_EQ(cs.node_count(), 100u);
  EXPECT_EQ(cs.stats().joins_completed, 99u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ClusterGrowthSweep,
    ::testing::Values(GrowthParam{smr::EngineKind::kSync, 5},
                      GrowthParam{smr::EngineKind::kSync, 11},
                      GrowthParam{smr::EngineKind::kAsync, 5},
                      GrowthParam{smr::EngineKind::kAsync, 11}),
    [](const ::testing::TestParamInfo<GrowthParam>& info) {
      return std::string(info.param.kind == smr::EngineKind::kSync ? "Sync" : "Async") + "Rwl" +
             std::to_string(info.param.rwl);
    });

}  // namespace
}  // namespace atum::group
