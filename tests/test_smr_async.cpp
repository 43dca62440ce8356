// Tests for the PBFT engine: three-phase agreement, total order, silent and
// equivocating primaries (view changes), checkpoints, and state transfer.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/serde.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/pbft.h"

namespace atum::smr {
namespace {

Bytes op_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct AsyncGroup {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 4242};
  crypto::KeyStore keys{11};
  GroupConfig cfg;
  std::vector<std::unique_ptr<PbftSmr>> replicas;
  std::map<NodeId, std::vector<std::pair<NodeId, Bytes>>> decided;

  explicit AsyncGroup(std::size_t g, PbftOptions opt = {},
                      std::vector<std::pair<std::size_t, PbftFaultMode>> faults = {}) {
    for (NodeId n = 0; n < g; ++n) cfg.members.push_back(n);
    for (NodeId n = 0; n < g; ++n) {
      PbftFaultMode mode = PbftFaultMode::kCorrect;
      for (auto [idx, m] : faults) {
        if (idx == n) mode = m;
      }
      auto r = std::make_unique<PbftSmr>(net::Transport(net, n), cfg, keys, opt, mode);
      r->set_decide_handler([this, n](std::uint64_t, NodeId origin, const net::Payload& op) {
        decided[n].emplace_back(origin, op.to_bytes());
      });
      replicas.push_back(std::move(r));
    }
  }

  PbftSmr& at(std::size_t i) { return *replicas[i]; }
  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }
};

TEST(Pbft, HappyPathSingleOp) {
  AsyncGroup g(4);
  g.at(1).propose(op_bytes("hello"));
  g.run_for(seconds(1));
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(g.decided[n].size(), 1u) << "replica " << n;
    EXPECT_EQ(g.decided[n][0].first, 1u);
    EXPECT_EQ(g.decided[n][0].second, op_bytes("hello"));
  }
}

TEST(Pbft, SubSecondLatencyWithoutFaults) {
  // Async needs no lock-step rounds: decisions land in a few network RTTs.
  AsyncGroup g(4);
  TimeMicros decided_at = -1;
  g.at(0).set_decide_handler([&](std::uint64_t, NodeId, const net::Payload&) {
    if (decided_at < 0) decided_at = g.sim.now();
  });
  g.at(0).propose(op_bytes("fast"));
  g.run_for(seconds(1));
  ASSERT_GE(decided_at, 0);
  EXPECT_LT(decided_at, millis(100));
}

TEST(Pbft, ManyOpsSameTotalOrder) {
  AsyncGroup g(4);
  for (int i = 0; i < 20; ++i) {
    g.at(static_cast<std::size_t>(i % 4)).propose(op_bytes("op" + std::to_string(i)));
  }
  g.run_for(seconds(5));
  ASSERT_EQ(g.decided[0].size(), 20u);
  for (NodeId n = 1; n < 4; ++n) EXPECT_EQ(g.decided[n], g.decided[0]);
}

TEST(Pbft, ToleratesSilentBackup) {
  AsyncGroup g(4, {}, {{3, PbftFaultMode::kSilent}});
  g.at(0).propose(op_bytes("resilient"));
  g.run_for(seconds(2));
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(g.decided[n].size(), 1u) << "replica " << n;
  }
}

TEST(Pbft, ToleratesMaxSilentBackups) {
  // g=7 -> f=2; two silent backups.
  AsyncGroup g(7, {}, {{5, PbftFaultMode::kSilent}, {6, PbftFaultMode::kSilent}});
  for (int i = 0; i < 5; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(5));
  for (NodeId n = 0; n < 5; ++n) {
    ASSERT_EQ(g.decided[n].size(), 5u) << "replica " << n;
    EXPECT_EQ(g.decided[n], g.decided[0]);
  }
}

TEST(Pbft, SilentPrimaryTriggersViewChange) {
  PbftOptions opt;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt, {{0, PbftFaultMode::kSilentPrimary}});
  g.at(1).propose(op_bytes("survive-vc"));
  g.run_for(seconds(10));
  for (NodeId n = 1; n < 4; ++n) {
    ASSERT_EQ(g.decided[n].size(), 1u) << "replica " << n;
    EXPECT_EQ(g.decided[n][0].second, op_bytes("survive-vc"));
    EXPECT_GE(g.at(n).view(), 1u) << "view must have advanced past the dead primary";
  }
}

TEST(Pbft, ProgressContinuesInNewView) {
  PbftOptions opt;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt, {{0, PbftFaultMode::kSilentPrimary}});
  g.at(1).propose(op_bytes("first"));
  g.run_for(seconds(10));
  ASSERT_EQ(g.decided[1].size(), 1u);
  // After the view change the new primary keeps ordering fresh ops.
  g.at(2).propose(op_bytes("second"));
  g.run_for(seconds(5));
  for (NodeId n = 1; n < 4; ++n) {
    ASSERT_EQ(g.decided[n].size(), 2u) << "replica " << n;
    EXPECT_EQ(g.decided[n][1].second, op_bytes("second"));
  }
}

TEST(Pbft, EquivocatingPrimaryCannotForkCorrectReplicas) {
  PbftOptions opt;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt, {{0, PbftFaultMode::kEquivocatePrimary}});
  g.at(1).propose(op_bytes("victim"));
  g.run_for(seconds(15));
  // Whatever was decided, all correct replicas decided the same sequence,
  // and no correct replica delivered a corrupted copy of the victim op.
  for (NodeId n = 2; n < 4; ++n) EXPECT_EQ(g.decided[n], g.decided[1]);
  for (const auto& [origin, op] : g.decided[1]) {
    if (origin == 1) {
      EXPECT_EQ(op, op_bytes("victim"));
    }
  }
}

TEST(Pbft, EquivocatedOwnOpDeliveredAtMostOnce) {
  PbftOptions opt;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt, {{0, PbftFaultMode::kEquivocatePrimary}});
  g.at(0).propose(op_bytes("double"));
  g.run_for(seconds(15));
  for (NodeId n = 1; n < 4; ++n) {
    int from0 = 0;
    for (const auto& [origin, op] : g.decided[n]) from0 += (origin == 0);
    EXPECT_LE(from0, 1) << "replica " << n << " delivered an equivocated op twice";
    EXPECT_EQ(g.decided[n], g.decided[1]);
  }
}

TEST(Pbft, CheckpointAdvancesStableSeq) {
  PbftOptions opt;
  opt.checkpoint_interval = 8;
  // One op per batch so the 20 ops produce 20 sequence numbers and the
  // checkpoint interval is crossed twice (batched, the burst collapses into
  // a couple of seqs and no checkpoint fires).
  opt.batch_max_ops = 1;
  AsyncGroup g(4, opt);
  for (int i = 0; i < 20; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(10));
  ASSERT_EQ(g.decided[0].size(), 20u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_GE(g.at(n).stable_seq(), 16u) << "replica " << n << " did not garbage-collect";
  }
}

TEST(Pbft, LaggingReplicaCatchesUpViaStateTransfer) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt);

  g.net.isolate(3, true);
  for (int i = 0; i < 12; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(10));
  EXPECT_EQ(g.decided[0].size(), 12u);
  EXPECT_TRUE(g.decided[3].empty());

  g.net.isolate(3, false);
  // More traffic produces checkpoint evidence that replica 3 lags behind.
  for (int i = 12; i < 24; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));
  EXPECT_EQ(g.decided[0].size(), 24u);
  EXPECT_GE(g.decided[3].size(), 12u) << "replica 3 should have fetched missed state";
  // Prefix consistency: everything replica 3 delivered matches replica 0.
  for (std::size_t i = 0; i < g.decided[3].size(); ++i) {
    EXPECT_EQ(g.decided[3][i], g.decided[0][i]) << "divergence at " << i;
  }
}

TEST(Pbft, StateFetchFanOutSharesOneFrame) {
  // The head-fetch round asks 2f+1 peers with byte-identical requests; the
  // request must be frozen once and the sends share that buffer instead of
  // deep-copying the writer per peer. Intercept kPbftStateFetch at the
  // receivers (the typed handler replaces the replica's own, so fetches are
  // recorded and swallowed — the fan-out itself is driven by checkpoint
  // evidence, which still flows) and require that byte-identical requests
  // landing at different peers alias one frame.
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt);

  // Per request content — identified by the decoded (from_seq, anchor)
  // pair; the instance tag is constant — the distinct buffer addresses seen
  // and the number of deliveries. Head-fetch requests are 24 bytes (tag,
  // from, anchor) with anchor != 0; single-peer fetches (anchor == 0) are
  // skipped — they carry one frozen frame by construction and prove
  // nothing about fan-out.
  struct Seen {
    std::set<const std::uint8_t*> buffers;
    std::size_t deliveries = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Seen> head_fetches;
  for (NodeId n = 0; n < 3; ++n) {
    g.net.attach(n, net::MsgType::kPbftStateFetch, [&](const net::Message& msg) {
      if (msg.payload.size() != 24) return;
      ByteReader r(msg.payload);
      r.u64();  // instance tag
      std::uint64_t from_seq = r.u64();
      std::uint64_t anchor = r.u64();
      if (anchor != 0) {
        Seen& s = head_fetches[{from_seq, anchor}];
        s.buffers.insert(msg.payload.data());
        ++s.deliveries;
      }
    });
  }

  g.net.isolate(3, true);
  for (int i = 0; i < 12; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(10));
  g.net.isolate(3, false);
  // More traffic produces the checkpoint evidence that tells replica 3 it
  // is behind; it then fans the pinned-range head fetch out to 2f+1 peers.
  for (int i = 12; i < 24; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));

  ASSERT_FALSE(head_fetches.empty()) << "catch-up should have fanned a head fetch out";
  for (const auto& [content, seen] : head_fetches) {
    ASSERT_GE(seen.deliveries, 3u) << "head fetch should reach 2f+1 = 3 peers";
    // Every peer of one round must alias the round's single frozen frame,
    // so across R rounds there are 3R deliveries but at most R buffers.
    // Per-send deep copies would make the two counts equal.
    EXPECT_LT(seen.buffers.size(), seen.deliveries)
        << "a head-fetch request was deep-copied per peer instead of "
        << "sharing one frozen frame across the fan-out";
  }
}

TEST(Pbft, PrimaryRotatesAcrossViews) {
  AsyncGroup g(4);
  EXPECT_EQ(g.at(0).primary_of(0), 0u);
  EXPECT_EQ(g.at(0).primary_of(1), 1u);
  EXPECT_EQ(g.at(0).primary_of(5), 1u);
  EXPECT_TRUE(g.at(0).is_primary());
  EXPECT_FALSE(g.at(1).is_primary());
}

TEST(Pbft, QuorumArithmetic) {
  AsyncGroup g4(4), g7(7), g10(10);
  EXPECT_EQ(g4.at(0).max_faults(), 1u);
  EXPECT_EQ(g4.at(0).quorum(), 3u);
  EXPECT_EQ(g7.at(0).max_faults(), 2u);
  EXPECT_EQ(g7.at(0).quorum(), 5u);
  EXPECT_EQ(g10.at(0).max_faults(), 3u);
  EXPECT_EQ(g10.at(0).quorum(), 7u);
}

TEST(Pbft, NonMemberCannotInjectOps) {
  AsyncGroup g(4);
  ByteWriter w;
  w.u64(g.at(0).instance_tag());  // correct envelope: the member check must still hold
  w.u64(99);                      // claimed origin
  w.u64(1);
  w.bytes(op_bytes("evil"));
  g.net.send(net::Message{99, 0, net::MsgType::kPbftRequest, w.take()});
  g.run_for(seconds(2));
  EXPECT_TRUE(g.decided[0].empty());
}

TEST(Pbft, SpoofedOriginRejected) {
  AsyncGroup g(4);
  // Member 2 claims an op originated at member 1.
  ByteWriter w;
  w.u64(g.at(0).instance_tag());  // correct envelope: the origin check must still hold
  w.u64(1);
  w.u64(1);
  w.bytes(op_bytes("forged"));
  g.net.send(net::Message{2, 0, net::MsgType::kPbftRequest, w.take()});
  g.run_for(seconds(2));
  EXPECT_TRUE(g.decided[0].empty());
}

TEST(Pbft, MalformedMessagesIgnored) {
  AsyncGroup g(4);
  for (auto type : {net::MsgType::kPbftRequest, net::MsgType::kPbftPrePrepare,
                    net::MsgType::kPbftPrepare, net::MsgType::kPbftCommit,
                    net::MsgType::kPbftViewChange, net::MsgType::kPbftNewView}) {
    g.net.send(net::Message{1, 0, type, Bytes{0x01}});
  }
  g.at(0).propose(op_bytes("still-works"));
  g.run_for(seconds(2));
  EXPECT_EQ(g.decided[0].size(), 1u);
}

// The checks a NEW-VIEW meets after the instance tag: the new primary's
// signature over the body, and no carried op under the null origin, which
// is reserved for null batches and executed no-ops. Member 1, the primary
// of view 1, sends replica 0 a NEW-VIEW carrying one batch at seq 1; each
// bad frame must leave replica 0 in view 0, and the control frame, signed
// by member 1 and carrying a member's op, must move it to view 1.
TEST(Pbft, NewViewWithBadSignatureOrNullOriginIsIgnored) {
  auto view_after = [](NodeId signer, NodeId origin) {
    AsyncGroup g(4);
    ByteWriter region;
    region.varint(1);  // one op
    region.u64(origin);
    region.u64(1);  // origin seq
    region.bytes(op_bytes("carried"));
    ByteWriter entry;
    entry.u64(1);  // seq: the claimed stable seq + 1
    entry.bytes(region.data());
    ByteWriter w;
    w.u64(g.at(0).instance_tag());
    w.u64(1);     // new view
    w.u64(0);     // stable seq
    w.varint(1);  // O entries
    w.bytes(entry.data());
    const crypto::Signature sig = g.keys.key_of(signer).sign(w.data().data() + 8, w.size() - 8);
    w.raw(sig.data(), sig.size());
    g.net.send(net::Message{1, 0, net::MsgType::kPbftNewView, net::Payload(w.take())});
    g.run_for(millis(50));
    return g.at(0).view();
  };
  EXPECT_EQ(view_after(2, 2), 0u) << "a NEW-VIEW signed by another member was accepted";
  EXPECT_EQ(view_after(1, kInvalidNode), 0u) << "a carried op with the null origin was accepted";
  EXPECT_EQ(view_after(1, 2), 1u) << "the control NEW-VIEW was rejected";
}

TEST(Pbft, EmptyAndLargeOps) {
  AsyncGroup g(4);
  g.at(0).propose({});
  g.at(1).propose(Bytes(20'000, 0xCD));
  g.run_for(seconds(2));
  ASSERT_EQ(g.decided[2].size(), 2u);
}

TEST(Pbft, WanLatenciesStillDecide) {
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::wide_area(), 5);
  crypto::KeyStore keys(3);
  GroupConfig cfg;
  for (NodeId n = 0; n < 7; ++n) cfg.members.push_back(n);
  PbftOptions opt;
  opt.view_change_timeout = seconds(5);  // above max WAN RTT
  std::map<NodeId, std::vector<Bytes>> decided;
  std::vector<std::unique_ptr<PbftSmr>> replicas;
  for (NodeId n = 0; n < 7; ++n) {
    auto r = std::make_unique<PbftSmr>(net::Transport(net, n), cfg, keys, opt);
    r->set_decide_handler(
        [&decided, n](std::uint64_t, NodeId, const net::Payload& op) { decided[n].push_back(op.to_bytes()); });
    replicas.push_back(std::move(r));
  }
  replicas[3]->propose(op_bytes("around-the-world"));
  sim.run_until(seconds(10));
  for (NodeId n = 0; n < 7; ++n) ASSERT_EQ(decided[n].size(), 1u) << "replica " << n;
}

// A repeated vote counts once per phase. In a 7-replica group (f = 2) with
// replicas 2-6 silent, replica 1 holds the primary's real pre-prepare and
// its own prepare. Spoofed PREPAREs and COMMITs from silent members follow:
// repeats from one member must not make replica 1 send COMMIT, which needs
// 2f = 4 distinct prepares, or decide, which needs 2f+1 = 5 distinct
// commits. Distinct voters then must.
TEST(Pbft, RepeatedVoteCountsOncePerPhase) {
  PbftOptions opt;
  opt.view_change_timeout = seconds(60.0);  // no view change inside the test
  std::vector<std::pair<std::size_t, PbftFaultMode>> silent;
  for (std::size_t i = 2; i < 7; ++i) silent.emplace_back(i, PbftFaultMode::kSilent);
  AsyncGroup g(7, opt, silent);
  // Replica 1 broadcasts its COMMIT to every member; silent member 6 counts
  // what arrives. The primary never gets the prepares to send one.
  int commits_from_1 = 0;
  g.net.attach(6, net::MsgType::kPbftCommit, [&](const net::Message& m) {
    if (m.from == 1) ++commits_from_1;
  });

  const Bytes op = op_bytes("vote-once");
  g.at(0).propose(op);
  g.run_for(millis(50));  // the batch deadline flushes; replica 1 prepares
  ASSERT_EQ(commits_from_1, 0);

  // The batch digest the votes name: seq 1 holds the primary's one op.
  ByteWriter region;
  region.varint(1);
  region.u64(0);  // origin
  region.u64(1);  // origin seq
  region.bytes(op);
  const crypto::Digest digest = crypto::sha256(region.data());
  auto vote = [&](NodeId from, net::MsgType type) {
    ByteWriter w;
    w.u64(g.at(1).instance_tag());
    w.u64(0);  // view
    w.u64(1);  // seq
    w.raw(digest.data(), digest.size());
    g.net.send(net::Message{from, 1, type, w.take()});
  };

  for (int i = 0; i < 3; ++i) vote(2, net::MsgType::kPbftPrepare);
  g.run_for(millis(50));
  EXPECT_EQ(commits_from_1, 0) << "a repeated PREPARE counted more than once";
  vote(3, net::MsgType::kPbftPrepare);
  vote(4, net::MsgType::kPbftPrepare);
  g.run_for(millis(50));
  ASSERT_EQ(commits_from_1, 1) << "4 distinct prepares must prepare the batch";

  for (int i = 0; i < 4; ++i) vote(2, net::MsgType::kPbftCommit);
  g.run_for(millis(50));
  EXPECT_TRUE(g.decided[1].empty()) << "a repeated COMMIT counted more than once";
  for (NodeId from = 3; from <= 5; ++from) vote(from, net::MsgType::kPbftCommit);
  g.run_for(millis(50));
  ASSERT_EQ(g.decided[1].size(), 1u) << "5 distinct commits must decide the batch";
  EXPECT_EQ(g.decided[1][0].second, op);
}

// A PREPARE or COMMIT counts only for the digest it names, also when it
// arrives before the slot's PRE-PREPARE. In a 4-replica group (f = 1) with
// replicas 0, 2 and 3 silent, replica 1 first gets PREPAREs and COMMITs
// from 2 and 3 for a digest D', then primary 0's PRE-PREPARE for a batch D.
// Nobody but the primary supports D, so replica 1 must not decide it. A
// control group gets the same votes naming D and must decide.
TEST(Pbft, EarlyVotesCountOnlyForTheirDigest) {
  const Bytes op = op_bytes("only-the-primary-backs-this");
  ByteWriter region;
  region.varint(1);
  region.u64(0);  // origin: the primary's own op needs no client copy
  region.u64(1);  // origin seq
  region.bytes(op);
  const Bytes ops_region = region.take();
  const crypto::Digest digest = crypto::sha256(ops_region);
  crypto::Digest other = digest;
  other[0] ^= 0xFF;

  auto run = [&](const crypto::Digest& early_votes) {
    PbftOptions opt;
    opt.view_change_timeout = seconds(60.0);  // no view change inside the test
    AsyncGroup g(4, opt,
                 {{0, PbftFaultMode::kSilent}, {2, PbftFaultMode::kSilent},
                  {3, PbftFaultMode::kSilent}});
    const std::uint64_t tag = g.at(1).instance_tag();
    auto vote = [&](NodeId from, net::MsgType type, const crypto::Digest& d) {
      ByteWriter w;
      w.u64(tag);
      w.u64(0);  // view
      w.u64(1);  // seq
      w.raw(d.data(), d.size());
      g.net.send(net::Message{from, 1, type, w.take()});
    };
    for (NodeId from : {2u, 3u}) vote(from, net::MsgType::kPbftPrepare, early_votes);
    for (NodeId from : {2u, 3u}) vote(from, net::MsgType::kPbftCommit, early_votes);
    g.run_for(millis(50));

    ByteWriter pp;
    pp.u64(tag);
    pp.u64(0);  // view
    pp.u64(1);  // seq
    pp.raw(digest.data(), digest.size());
    pp.bytes(ops_region);
    g.net.send(net::Message{0, 1, net::MsgType::kPbftPrePrepare, pp.take()});
    g.run_for(millis(50));
    return g.decided[1];
  };

  EXPECT_TRUE(run(other).empty()) << "votes for D' decided the primary's D";
  const auto decided = run(digest);
  ASSERT_EQ(decided.size(), 1u) << "matching early votes must decide D";
  EXPECT_EQ(decided[0].second, op);
}

// A PRE-PREPARE must name its batch's digest, also when the batch is the
// null batch, whose digest is all-zero. In a 4-replica group (f = 1) with
// replicas 0, 2 and 3 silent, primary 0 sends replica 1 an empty batch
// naming the digest D of a real batch, and 2 and 3 PREPARE and COMMIT D.
// Accepting it would let an equivocating primary have replica 1 execute
// nothing at seq 1 while the replicas holding D's real batch execute it.
TEST(Pbft, NullBatchNamingAnotherDigestIsDropped) {
  ByteWriter region;
  region.varint(1);  // one op
  region.u64(0);     // origin: the primary
  region.u64(1);     // origin seq
  region.bytes(op_bytes("withheld"));
  const crypto::Digest digest = crypto::sha256(region.data());

  PbftOptions opt;
  opt.view_change_timeout = seconds(60.0);  // no view change inside the test
  AsyncGroup g(4, opt,
               {{0, PbftFaultMode::kSilent}, {2, PbftFaultMode::kSilent},
                {3, PbftFaultMode::kSilent}});
  const std::uint64_t tag = g.at(1).instance_tag();
  ByteWriter pp;
  pp.u64(tag);
  pp.u64(0);  // view
  pp.u64(1);  // seq
  pp.raw(digest.data(), digest.size());
  pp.bytes(Bytes{0});  // ops region: op_count 0, the null batch
  g.net.send(net::Message{0, 1, net::MsgType::kPbftPrePrepare, pp.take()});
  for (auto type : {net::MsgType::kPbftPrepare, net::MsgType::kPbftCommit}) {
    for (NodeId from : {2u, 3u}) {
      ByteWriter w;
      w.u64(tag);
      w.u64(0);  // view
      w.u64(1);  // seq
      w.raw(digest.data(), digest.size());
      g.net.send(net::Message{from, 1, type, w.take()});
    }
  }
  g.run_for(millis(50));
  EXPECT_EQ(g.at(1).batches_executed(), 0u) << "an empty batch executed as D";
}

// Property sweep: agreement for each group size with max silent faults.
class PbftSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PbftSweep, AgreementUnderMaxFaults) {
  std::size_t g = GetParam();
  std::size_t f = async_max_faults(g);
  std::vector<std::pair<std::size_t, PbftFaultMode>> faults;
  // Fault the tail replicas but never the initial primary (covered by the
  // dedicated view-change tests; this sweep checks agreement).
  for (std::size_t i = 0; i < f; ++i) faults.emplace_back(g - 1 - i, PbftFaultMode::kSilent);
  AsyncGroup grp(g, {}, faults);
  std::size_t correct = g - f;
  for (std::size_t i = 0; i < correct; ++i) grp.at(i).propose(op_bytes("op" + std::to_string(i)));
  grp.run_for(seconds(10));
  ASSERT_EQ(grp.decided[0].size(), correct) << "g=" << g;
  for (NodeId n = 1; n < correct; ++n) {
    EXPECT_EQ(grp.decided[n], grp.decided[0]) << "replica " << n << " diverged (g=" << g << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, PbftSweep, ::testing::Values(4, 5, 6, 7, 10, 13));

// ---------------------------------------------------------------------------
// Zero-copy decide path: the log retains ops as net::Payload slices of the
// pre-prepare frame, and the decide callback hands out the same slice.
// ---------------------------------------------------------------------------

TEST(Pbft, DecidedOpAliasesThePrePrepareFrame) {
  AsyncGroup g(4);
  std::vector<net::Payload> decided_ops;
  // Replica 2 is a backup: its copy of the op arrives inside the primary's
  // pre-prepare frame.
  g.at(2).set_decide_handler([&](std::uint64_t, NodeId, const net::Payload& op) {
    decided_ops.push_back(op);
  });
  g.at(0).propose(op_bytes("zero-copy"));  // node 0 is primary of view 0
  g.run_for(seconds(1));

  ASSERT_EQ(decided_ops.size(), 1u);
  const net::Payload& op = decided_ops[0];
  EXPECT_EQ(op, op_bytes("zero-copy"));
  // Slice, not copy: the payload still points into the larger pre-prepare
  // frame (view + seq + digest + id + op)...
  EXPECT_GT(op.frame_size(), op.size());
  // ...and that frame is still shared with the replicas' logs and
  // exec histories — nobody materialized a private copy.
  EXPECT_GT(op.use_count(), 1);
}

TEST(Pbft, ProposerDecidesItsOwnFrozenBuffer) {
  AsyncGroup g(4);
  std::vector<net::Payload> decided_ops;
  // Replica 0 is the primary AND the op's origin: its logged op is the
  // buffer frozen in propose(), not a frame slice.
  g.at(0).set_decide_handler([&](std::uint64_t, NodeId, const net::Payload& op) {
    decided_ops.push_back(op);
  });
  g.at(0).propose(op_bytes("local"));
  g.run_for(seconds(1));
  ASSERT_EQ(decided_ops.size(), 1u);
  EXPECT_EQ(decided_ops[0].frame_size(), decided_ops[0].size());
  EXPECT_GT(decided_ops[0].use_count(), 1);  // shared with the log
}

// Regression (found by the sanitizer/tidy sweep): a Byzantine member's
// STATE-REPLY declaring an astronomical entry count used to reach
// entries.reserve(count) before any bounds check — std::length_error /
// bad_alloc is not a SerdeError, so it escaped on_message's net and killed
// the replica. The count must be validated against the bytes actually
// present and the garbage dropped like any other malformed frame.
TEST(Pbft, ByzantineStateReplyWithHugeCountIsDropped) {
  AsyncGroup g(4);

  // Replica 3 forges a state reply to replica 0 with the group's real
  // instance tag (so the frame passes the envelope check) and a claimed
  // count of 2^60 entries in a ~20-byte body.
  ByteWriter w;
  w.u64(g.at(0).instance_tag());
  w.u8(0);   // kind: head-range reply
  w.u64(0);  // from_seq == victim's next_exec_
  w.varint(std::uint64_t{1} << 60);
  g.net.send(net::Message{3, 0, net::MsgType::kPbftStateReply, net::Payload(w.take())});
  g.run_for(seconds(1));

  // The victim survived and the group still decides.
  g.at(1).propose(op_bytes("alive"));
  g.run_for(seconds(2));
  ASSERT_EQ(g.decided[0].size(), 1u);
  EXPECT_EQ(g.decided[0][0].second, op_bytes("alive"));
}

// A state reply with no checkpoint, as one member would forge it: records
// for seqs (from_seq, from_seq + count], each a one-op batch.
Bytes forged_records_reply(std::uint64_t tag, std::uint64_t from_seq, std::uint64_t count,
                           const std::string& op) {
  ByteWriter w;
  w.u64(tag);
  w.u8(0);  // no checkpoint
  w.u64(from_seq);
  w.varint(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    w.varint(1);  // ops in the record
    w.u64(2);     // origin: another member
    w.u64(1000 + i);
    Bytes b = op_bytes(op);
    w.bytes(b.data(), b.size());
  }
  return w.take();
}

// One member forges the records a lagging replica is missing, addressed to
// its exact position. The laggard holds f+1 genuine CHECKPOINT votes for
// the boundary the forged records reach, and the forged digest chain does
// not match them; copies from one sender never make f+1 identical replies.
// So the records must never be adopted, and the laggard still converges on
// what the correct servers send.
TEST(Pbft, ForgedRecordsReplyFromOneMemberIsNeverAdopted) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt);

  // Cut replica 3 off from the primary only: it misses every pre-prepare
  // but still collects members 1 and 2's votes for boundary 4.
  g.net.block_link(0, 3, true);
  for (int i = 0; i < 4; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(1));
  ASSERT_EQ(g.decided[0].size(), 4u);
  ASSERT_TRUE(g.decided[3].empty());

  const Bytes forged = forged_records_reply(g.at(3).instance_tag(),
                                            g.at(3).batches_executed(), 4, "forged");
  for (int copy = 0; copy < 3; ++copy) {
    g.net.send(net::Message{1, 3, net::MsgType::kPbftStateReply, net::Payload(forged)});
  }
  g.run_for(millis(100));
  EXPECT_EQ(g.at(3).batches_executed(), 0u) << "a lone forged reply was adopted";

  std::uint64_t skipped = 0;
  g.at(3).set_install_handler(
      [&](std::uint64_t, std::uint64_t, std::uint64_t from_ops, std::uint64_t to_ops) {
        skipped += to_ops - from_ops;
      });
  g.net.block_link(0, 3, false);
  for (int i = 4; i < 12; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));
  ASSERT_EQ(g.decided[0].size(), 12u);
  ASSERT_EQ(skipped + g.decided[3].size(), 12u) << "replica 3 did not converge";
  for (std::size_t i = 0; i < g.decided[3].size(); ++i) {
    EXPECT_EQ(g.decided[3][i], g.decided[0][static_cast<std::size_t>(skipped) + i])
        << "divergence at suffix index " << i;
    EXPECT_NE(g.decided[3][i].second, op_bytes("forged"));
  }
}

// Regression: one Byzantine member could grow a replica's vote storage
// without bound. Far-future CHECKPOINT votes stayed until the stable
// checkpoint passed them, and each distinct unsolicited state reply kept
// its own entry until the next fetch round. A member now holds at most its
// newest ceil(window / interval) + 1 boundaries above the window and its
// latest reply digest.
TEST(Pbft, ByzantineMemberCannotGrowVoteStorage) {
  PbftOptions opt;  // window 256, checkpoints every 64
  AsyncGroup g(4, opt);
  const std::uint64_t tag = g.at(0).instance_tag();
  for (std::uint64_t k = 0; k < 20000; ++k) {
    ByteWriter w;
    w.u64(tag);
    w.u64((1000 + k) * opt.checkpoint_interval);  // a far-future boundary
    for (int i = 0; i < 32; ++i) w.u8(0);          // state digest
    w.u64(0);                                      // executed-op count
    w.bytes(Bytes{0});                             // request ledger: no origins
    g.net.send(net::Message{3, 0, net::MsgType::kPbftCheckpoint, net::Payload(w.take())});
    g.net.send(net::Message{
        3, 0, net::MsgType::kPbftStateReply,
        net::Payload(forged_records_reply(tag, 0, 1, "reply" + std::to_string(k)))});
  }
  g.run_for(seconds(1));

  const std::size_t members = 4;
  const std::size_t above_window =
      (opt.watermark_window + opt.checkpoint_interval - 1) / opt.checkpoint_interval + 1;
  EXPECT_LE(g.at(0).stored_votes(), members * above_window + members);

  g.at(1).propose(op_bytes("alive"));
  g.run_for(seconds(2));
  ASSERT_EQ(g.decided[0].size(), 1u);
  EXPECT_EQ(g.decided[0][0].second, op_bytes("alive"));
}

// A backup that the origin's REQUEST never reaches stashes the primary's
// PRE-PREPARE for it, and then catches up by state transfer. The request is
// executed there, so the stashed entry could never replay (handle_request
// drops an executed id before it looks at the stash): it must go rather
// than pin its frame for the engine's lifetime.
TEST(Pbft, StashedPrePrepareLeavesOnceItsRequestExecutes) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.view_change_timeout = millis(500);
  AsyncGroup g(4, opt);
  g.net.block_link(1, 3, true);
  g.at(1).propose(op_bytes("never-reaches-3"));
  g.run_for(seconds(1));
  ASSERT_EQ(g.decided[0].size(), 1u);
  ASSERT_TRUE(g.decided[3].empty());
  ASSERT_EQ(g.at(3).stashed_pre_prepares(), 1u);

  // The primary's traffic shows replica 3 the gap, and it fetches the state.
  for (int i = 0; i < 8; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));
  ASSERT_EQ(g.decided[0].size(), 9u);
  ASSERT_FALSE(g.decided[3].empty());
  EXPECT_EQ(g.decided[3].back(), g.decided[0].back());
  EXPECT_EQ(g.at(3).stashed_pre_prepares(), 0u);
}

// As above, but the backup is cut off until the group has truncated its
// log past that request: it installs a checkpoint whose ledger covers the
// request, and the stashed entry goes with the install.
TEST(Pbft, StashedPrePrepareLeavesOnceAnInstalledLedgerCoversItsRequest) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  AsyncGroup g(4, opt);
  g.net.block_link(1, 3, true);
  g.at(1).propose(op_bytes("never-reaches-3"));
  g.run_for(seconds(1));
  ASSERT_EQ(g.at(3).stashed_pre_prepares(), 1u);

  int installs = 0;
  g.at(3).set_install_handler(
      [&](std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t) { ++installs; });
  g.net.isolate(3, true);
  for (int i = 0; i < 40; ++i) {
    g.at(0).propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(5));
  g.net.isolate(3, false);
  for (int i = 40; i < 48; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));
  ASSERT_EQ(g.decided[0].size(), 49u);
  EXPECT_GE(installs, 1);
  EXPECT_EQ(g.at(3).stashed_pre_prepares(), 0u);
}

// A primary can pre-prepare any number of batches, each naming a request
// the backup never got. The backup keeps at most kFutureBufferCap (4096)
// of them, as it does for messages of future views.
TEST(Pbft, StashedPrePreparesAreCapped) {
  PbftOptions opt;
  opt.view_change_timeout = seconds(60.0);  // no view change inside the test
  AsyncGroup g(4, opt,
               {{0, PbftFaultMode::kSilent}, {2, PbftFaultMode::kSilent},
                {3, PbftFaultMode::kSilent}});
  const std::uint64_t tag = g.at(1).instance_tag();
  for (std::uint64_t k = 1; k <= 5000; ++k) {
    ByteWriter region;
    region.varint(1);
    region.u64(2);  // origin: member 2, whose REQUEST never comes
    region.u64(k);  // a fresh request id each time
    region.bytes(op_bytes("unknown"));
    const Bytes ops_region = region.take();
    const crypto::Digest digest = crypto::sha256(ops_region);
    ByteWriter pp;
    pp.u64(tag);
    pp.u64(0);  // view
    pp.u64(1);  // seq
    pp.raw(digest.data(), digest.size());
    pp.bytes(ops_region);
    g.net.send(net::Message{0, 1, net::MsgType::kPbftPrePrepare, pp.take()});
  }
  g.run_for(seconds(1));
  EXPECT_GT(g.at(1).stashed_pre_prepares(), 0u);
  EXPECT_LE(g.at(1).stashed_pre_prepares(), 4096u);
}

// One member offers a checkpoint at a future boundary that no CHECKPOINT
// vote vouches for. Installing it would skip ops the group never decided,
// so the install handler must never fire, however often the sender repeats.
TEST(Pbft, UnvouchedCheckpointReplyFromOneMemberIsNeverInstalled) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  AsyncGroup g(4, opt);
  int installs = 0;
  g.at(0).set_install_handler(
      [&](std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t) { ++installs; });

  ByteWriter w;
  w.u64(g.at(0).instance_tag());
  w.u8(1);   // carries a checkpoint
  w.u64(0);  // from_seq == the victim's position
  w.u64(8);  // a future checkpoint boundary
  for (int i = 0; i < 32; ++i) w.u8(0xAB);  // state digest nobody voted for
  w.u64(5);                                  // executed-op count
  w.bytes(Bytes{0});                         // request ledger: no origins
  w.varint(0);                               // no records above the checkpoint
  const Bytes reply = w.take();
  for (int copy = 0; copy < 3; ++copy) {
    g.net.send(net::Message{3, 0, net::MsgType::kPbftStateReply, net::Payload(reply)});
  }
  g.run_for(seconds(1));
  EXPECT_EQ(installs, 0);
  EXPECT_EQ(g.at(0).batches_executed(), 0u);

  g.at(1).propose(op_bytes("alive"));
  g.run_for(seconds(2));
  ASSERT_EQ(g.decided[0].size(), 1u);
  EXPECT_EQ(g.decided[0][0].second, op_bytes("alive"));
}

}  // namespace
}  // namespace atum::smr
