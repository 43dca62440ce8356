// Cross-layer integration tests: the middleware under combined load —
// membership churn during broadcasts, WAN deployments, application traffic
// over a reconfiguring overlay, and end-to-end Byzantine scenarios that
// exercise every layer at once.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "apps/ashare/ashare.h"
#include "apps/astream/astream.h"
#include "core/atum.h"
#include "group/cluster_sim.h"

namespace atum {
namespace {

core::Params fast_params(smr::EngineKind kind = smr::EngineKind::kSync) {
  core::Params p;
  p.hc = 3;
  p.rwl = 4;
  p.gmax = 8;
  p.gmin = 4;
  p.engine = kind;
  p.round_duration = millis(20);
  p.view_change_timeout = millis(500);
  p.heartbeat_period = millis(500);
  return p;
}

struct IntegrationFixture : ::testing::Test {
  std::unique_ptr<core::AtumSystem> sys;
  std::map<NodeId, std::vector<net::Payload>> delivered;

  void deploy(std::size_t n, core::Params p = fast_params()) {
    sys = std::make_unique<core::AtumSystem>(p, net::NetworkConfig::datacenter(), 1717);
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < n; ++i) {
      ids.push_back(i);
      sys->add_node(i).set_deliver([this, i](NodeId, const net::Payload& payload) {
        delivered[i].push_back(payload);
      });
    }
    sys->deploy(ids);
  }

  void run_for(DurationMicros d) { sys->simulator().run_until(sys->simulator().now() + d); }

  std::size_t reach(const Bytes& payload) {
    std::size_t n = 0;
    for (auto& [id, msgs] : delivered) {
      for (auto& m : msgs) n += (m == payload);
    }
    return n;
  }
};

TEST_F(IntegrationFixture, BroadcastDuringJoin) {
  deploy(18);
  auto& joiner = sys->add_node(100);
  joiner.set_deliver([this](NodeId, const net::Payload& p) { delivered[100].push_back(p); });
  joiner.join(0);
  // Broadcast while the join is in flight: existing nodes must deliver.
  sys->node(3).broadcast(Bytes{0x11});
  run_for(seconds(60));
  EXPECT_GE(reach(Bytes{0x11}), 18u);
  EXPECT_TRUE(joiner.joined());
}

TEST_F(IntegrationFixture, BroadcastDuringLeave) {
  deploy(18);
  sys->node(7).leave();
  sys->node(0).broadcast(Bytes{0x22});
  run_for(seconds(60));
  // Everyone still in the system (17 nodes) delivers.
  EXPECT_GE(reach(Bytes{0x22}), 17u);
}

TEST_F(IntegrationFixture, BroadcastSurvivesEvictionInProgress) {
  deploy(18);
  auto groups = sys->group_map();
  NodeId victim = groups.begin()->second.back();
  sys->network().isolate(victim, true);
  run_for(seconds(1));  // suspicion building up
  sys->node(0).broadcast(Bytes{0x33});
  run_for(seconds(60));
  EXPECT_GE(reach(Bytes{0x33}), 17u);
}

TEST_F(IntegrationFixture, SequentialChurnWithTraffic) {
  deploy(18);
  for (int round = 0; round < 3; ++round) {
    NodeId fresh = 200 + static_cast<NodeId>(round);
    auto& j = sys->add_node(fresh);
    j.set_deliver([this, fresh](NodeId, const net::Payload& p) { delivered[fresh].push_back(p); });
    j.join(0);
    run_for(seconds(60));
    ASSERT_TRUE(j.joined()) << "round " << round;
    Bytes payload{static_cast<std::uint8_t>(0x40 + round)};
    sys->node(fresh).broadcast(payload);
    run_for(seconds(30));
    EXPECT_GE(reach(payload), 18u + static_cast<std::size_t>(round)) << "round " << round;
  }
}

TEST_F(IntegrationFixture, WanDeploymentBroadcast) {
  core::Params p = fast_params(smr::EngineKind::kAsync);
  p.view_change_timeout = seconds(5);  // above WAN RTTs
  sys = std::make_unique<core::AtumSystem>(p, net::NetworkConfig::wide_area(), 1718);
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < 24; ++i) {
    ids.push_back(i);
    sys->add_node(i).set_deliver([this, i](NodeId, const net::Payload& payload) {
      delivered[i].push_back(payload);
    });
  }
  sys->deploy(ids);
  sys->node(5).broadcast(Bytes{0x55});
  run_for(seconds(120));
  EXPECT_EQ(reach(Bytes{0x55}), 24u);
}

TEST_F(IntegrationFixture, AShareOverAsyncEngine) {
  core::Params p = fast_params(smr::EngineKind::kAsync);
  sys = std::make_unique<core::AtumSystem>(p, net::NetworkConfig::datacenter(), 1719);
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < 12; ++i) {
    ids.push_back(i);
    sys->add_node(i);
  }
  sys->deploy(ids);
  std::map<NodeId, std::unique_ptr<ashare::AShareNode>> share;
  for (NodeId i = 0; i < 12; ++i) {
    share[i] = std::make_unique<ashare::AShareNode>(*sys, i, 3, 12);
  }
  share[0]->put("async.bin", Bytes(5000, 0x5A), 4);
  run_for(seconds(60));
  Bytes got;
  ashare::GetStats stats;
  share[9]->get(ashare::FileKey{0, "async.bin"}, [&](Bytes c, const ashare::GetStats& s) {
    got = std::move(c);
    stats = s;
  });
  run_for(seconds(60));
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(got.size(), 5000u);
}

TEST_F(IntegrationFixture, StreamWhileFileSharing) {
  // Both applications multiplex over the same Atum deployment.
  deploy(18);
  std::map<NodeId, std::unique_ptr<astream::AStreamNode>> stream;
  std::map<NodeId, std::uint64_t> played;
  for (NodeId i = 0; i < 18; ++i) {
    stream[i] = std::make_unique<astream::AStreamNode>(*sys, i, astream::StreamConfig{});
    stream[i]->set_chunk_handler([&played, i](std::uint64_t seq, const net::Payload&) {
      played[i] = seq;
    });
  }
  for (auto& [id, s] : stream) s->join_stream(0);
  run_for(seconds(5));
  for (int c = 0; c < 3; ++c) {
    stream[0]->stream_chunk(Bytes(2000, static_cast<std::uint8_t>(c)));
    run_for(seconds(10));
  }
  run_for(seconds(60));
  std::size_t complete = 0;
  for (auto& [id, last] : played) complete += (last == 3);
  EXPECT_EQ(complete, 18u);
}

// Cross-validation: the vgroup-granularity simulator and the node-level
// runtime agree on the protocol cost structure.
TEST(CrossValidation, AgreementLatencyMatchesDolevStrongSlots) {
  sim::Simulator sim;
  group::ClusterSimConfig cfg;
  cfg.kind = smr::EngineKind::kSync;
  cfg.round_duration = seconds(1.0);
  cfg.hc = 3;
  group::ClusterSim cs(sim, cfg);
  // (f+2) rounds for f = (g-1)/2 — identical to DolevStrongSmr's slots.
  for (std::size_t g : {4u, 7u, 10u, 15u}) {
    std::size_t f = smr::sync_max_faults(g);
    DurationMicros slot = static_cast<DurationMicros>(f + 2) * seconds(1.0);
    EXPECT_GE(cs.agreement_latency(g), slot);
    EXPECT_LE(cs.agreement_latency(g), slot + seconds(1.0));  // + state-transfer term
  }
}

TEST(CrossValidation, GrowthIsSuperlinearInSimulator) {
  // Fig 6's exponential-rate claim, checked as a property: time to add the
  // second 100 nodes is far shorter than the first 100.
  sim::Simulator sim;
  group::ClusterSimConfig cfg;
  cfg.round_duration = millis(20);
  cfg.gmax = 8;
  cfg.hc = 3;
  cfg.rwl = 5;
  group::ClusterSim cs(sim, cfg);
  cs.bootstrap(0);
  NodeId next = 1;
  std::uint64_t outstanding = 0;
  auto grow_to = [&](std::size_t target) {
    TimeMicros start = sim.now();
    while (cs.node_count() < target) {
      while (outstanding < cs.group_count()) {
        ++outstanding;
        cs.request_join(next++, [&outstanding] { --outstanding; });
      }
      sim.run_until(sim.now() + millis(100));
    }
    return sim.now() - start;
  };
  DurationMicros first = grow_to(100);
  DurationMicros second = grow_to(200);
  EXPECT_LT(second * 2, first) << "second hundred must arrive over 2x faster";
}

}  // namespace
}  // namespace atum
