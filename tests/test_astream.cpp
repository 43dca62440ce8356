// Tests for AStream: forest construction (f+1 parents, source adjacency,
// shortcuts), push-pull dissemination, digest verification via tier 1, and
// fail-over away from corrupt parents.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "apps/astream/astream.h"

namespace atum::astream {
namespace {

core::Params fast_params() {
  core::Params p;
  p.hc = 3;
  p.rwl = 4;
  p.gmax = 8;
  p.gmin = 4;
  p.round_duration = millis(20);
  p.heartbeat_period = seconds(10);
  return p;
}

struct AStreamFixture : ::testing::Test {
  std::unique_ptr<core::AtumSystem> sys;
  std::map<NodeId, std::unique_ptr<AStreamNode>> nodes;
  std::map<NodeId, std::vector<std::uint64_t>> delivered;

  void deploy(std::size_t n, StreamConfig cfg = {}) {
    sys = std::make_unique<core::AtumSystem>(fast_params(), net::NetworkConfig::datacenter(),
                                             616);
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < n; ++i) {
      ids.push_back(i);
      sys->add_node(i);
    }
    sys->deploy(ids);
    for (NodeId i = 0; i < n; ++i) {
      nodes[i] = std::make_unique<AStreamNode>(*sys, i, cfg);
      nodes[i]->set_chunk_handler([this, i](std::uint64_t seq, const net::Payload&) {
        delivered[i].push_back(seq);
      });
    }
  }

  void join_all(NodeId source) {
    for (auto& [id, n] : nodes) n->join_stream(source);
    run_for(seconds(5));  // adoption messages settle
  }

  void run_for(DurationMicros d) { sys->simulator().run_until(sys->simulator().now() + d); }

  std::size_t nodes_with_chunk(std::uint64_t seq) {
    std::size_t count = 0;
    for (auto& [id, seqs] : delivered) {
      count += std::find(seqs.begin(), seqs.end(), seq) != seqs.end();
    }
    return count;
  }
};

TEST_F(AStreamFixture, ForestGivesEveryNonRootParents) {
  deploy(24);
  join_all(0);
  for (auto& [id, n] : nodes) {
    if (id == 0) {
      EXPECT_TRUE(n->parents().empty());
    } else {
      EXPECT_FALSE(n->parents().empty()) << "node " << id;
    }
  }
}

TEST_F(AStreamFixture, SourceNeighborsAdoptSourceDirectly) {
  deploy(24);
  join_all(0);
  const auto& src_group = sys->node(0).vgroup();
  for (NodeId m : src_group.members()) {
    if (m == 0) continue;
    ASSERT_EQ(nodes[m]->parents().size(), 1u) << "node " << m;
    EXPECT_EQ(nodes[m]->parents()[0], 0u);
  }
}

TEST_F(AStreamFixture, AdoptionRegistersChildren) {
  deploy(24);
  join_all(0);
  std::size_t total_children = 0;
  for (auto& [id, n] : nodes) total_children += n->child_count();
  EXPECT_GT(total_children, 0u);
  EXPECT_GT(nodes[0]->child_count(), 0u) << "the source must have children";
}

TEST_F(AStreamFixture, SingleChunkReachesEveryone) {
  deploy(24);
  join_all(0);
  nodes[0]->stream_chunk(Bytes(1000, 0xAB));
  run_for(seconds(60));
  EXPECT_EQ(nodes_with_chunk(1), 24u);
}

TEST_F(AStreamFixture, MultiChunkStreamDeliversInOrder) {
  deploy(18);
  join_all(0);
  for (int i = 0; i < 5; ++i) {
    nodes[0]->stream_chunk(Bytes(500, static_cast<std::uint8_t>(i)));
    run_for(seconds(10));
  }
  run_for(seconds(60));
  for (auto& [id, seqs] : delivered) {
    ASSERT_EQ(seqs.size(), 5u) << "node " << id;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], i + 1) << "node " << id << " out of order";
    }
  }
}

TEST_F(AStreamFixture, ChunksVerifiedAgainstTierOneDigests) {
  deploy(18);
  join_all(0);
  Bytes payload(800, 0x17);
  nodes[0]->stream_chunk(payload);
  run_for(seconds(60));
  // Every node delivered exactly the source's bytes (handler gets verified
  // data only); spot-check one receiver's chunk count.
  EXPECT_EQ(nodes_with_chunk(1), 18u);
}

TEST_F(AStreamFixture, CorruptParentIsDetectedAndBypassed) {
  deploy(24);
  join_all(0);
  // Every node except the source serves corrupted chunks half the time:
  // corrupt ALL non-source nodes that are parents of node X... instead,
  // corrupt one specific node and verify its children still deliver.
  NodeId corruptor = kInvalidNode;
  for (auto& [id, n] : nodes) {
    if (id != 0 && n->child_count() > 0) {
      corruptor = id;
      break;
    }
  }
  if (corruptor == kInvalidNode) GTEST_SKIP() << "no interior node in this forest";
  nodes[corruptor]->set_corrupt_chunks(true);

  for (int i = 0; i < 3; ++i) {
    nodes[0]->stream_chunk(Bytes(600, static_cast<std::uint8_t>(0x20 + i)));
    run_for(seconds(20));
  }
  run_for(seconds(120));  // time for pull fail-overs
  // All correct nodes deliver all three chunks despite the corrupt parent.
  for (auto& [id, seqs] : delivered) {
    if (id == corruptor) continue;
    EXPECT_GE(seqs.size(), 3u) << "node " << id << " starved by corrupt parent";
  }
}

TEST_F(AStreamFixture, LateJoinerCatchesUpViaPulls) {
  deploy(18);
  join_all(0);
  nodes[0]->stream_chunk(Bytes(400, 1));
  run_for(seconds(30));
  // A node that missed the push (simulate by clearing its delivery log and
  // re-joining) still obtains chunk 2 via pull.
  nodes[0]->stream_chunk(Bytes(400, 2));
  run_for(seconds(60));
  EXPECT_EQ(nodes_with_chunk(2), 18u);
}

TEST_F(AStreamFixture, DistinctStreamsAreIsolated) {
  StreamConfig cfg_a;
  cfg_a.stream_id = 7;
  deploy(12, cfg_a);
  join_all(0);
  nodes[0]->stream_chunk(Bytes(100, 9));
  run_for(seconds(30));
  EXPECT_EQ(nodes_with_chunk(1), 12u);
}

// ---------------------------------------------------------------------------
// verified_ frame-pinning contract: chunks alias their arrival frames
// (zero-copy); store_window bounds how many stay pinned.
// ---------------------------------------------------------------------------

TEST_F(AStreamFixture, VerifiedChunksAliasArrivalFramesByDefault) {
  deploy(24);
  join_all(0);
  std::size_t aliased = 0, owned = 0;
  for (auto& [id, n] : nodes) {
    if (id == 0) continue;
    n->set_chunk_handler([&](std::uint64_t, const net::Payload& data) {
      // The delivered payload IS the stored chunk: a slice of the larger
      // kStreamChunk frame (stream_id + seq + length prefix + body).
      (data.frame_size() > data.size() ? aliased : owned) += 1;
    });
  }
  nodes[0]->stream_chunk(Bytes(600, 0x3d));
  run_for(seconds(30));
  EXPECT_GT(aliased, 0u);
  EXPECT_EQ(owned, 0u);
}

// ---------------------------------------------------------------------------
// Store windowing (ROADMAP open item: verified_ grew without bound)
// ---------------------------------------------------------------------------

TEST_F(AStreamFixture, StoreWindowBoundsStoresUnderUnboundedStream) {
  StreamConfig cfg;
  cfg.store_window = 8;
  deploy(18, cfg);
  join_all(0);
  constexpr std::uint64_t kChunks = 120;
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    nodes[0]->stream_chunk(Bytes(400, static_cast<std::uint8_t>(i)));
    run_for(seconds(2));
  }
  run_for(seconds(60));
  for (auto& [id, n] : nodes) {
    // Everyone delivered the whole stream...
    ASSERT_EQ(delivered[id].size(), kChunks) << "node " << id;
    // ...but holds at most the trailing window of it (plus the handful a
    // node may buffer ahead of its own floor), not all 120 chunks.
    EXPECT_LE(n->store_size(), cfg.store_window + 4) << "node " << id;
    EXPECT_LE(n->digest_count(), cfg.store_window + 4) << "node " << id;
    EXPECT_GE(n->eviction_floor(), kChunks - cfg.store_window - 4) << "node " << id;
  }
}

TEST_F(AStreamFixture, UnboundedStoreKeepsEverythingByDefault) {
  deploy(18);
  join_all(0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    nodes[0]->stream_chunk(Bytes(400, static_cast<std::uint8_t>(i)));
    run_for(seconds(2));
  }
  run_for(seconds(30));
  for (auto& [id, n] : nodes) {
    EXPECT_EQ(n->store_size(), 20u) << "node " << id;
    EXPECT_EQ(n->eviction_floor(), 0u) << "node " << id;
  }
}

}  // namespace
}  // namespace atum::astream
