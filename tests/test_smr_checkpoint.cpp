// Regression tests for the PBFT checkpoint window and the config-history
// hash chain:
//  * the executed history stays bounded by watermark_window however long
//    the instance runs (the seed pinned every batch frame forever);
//  * a laggard whose gap crosses the peers' truncation point installs the
//    stable checkpoint and reports the skipped range through the install
//    handler, then converges on the suffix;
//  * a laggard adopting records up to a vouched boundary folds a record
//    that holds a null op as the replicas that executed it did;
//  * smr.checkpoints_stable counts the stable advances 2f+1 votes reach,
//    and an install does not move it;
//  * non-adjacent epochs with identical membership (A -> B -> A) get
//    distinct epoch hashes and therefore distinct instance tags;
//  * a member removed while partitioned learns of its removal from f+1
//    byte-identical removal notices once the partition heals (the
//    leave-confirmation gap);
//  * the request ledger a checkpoint carries answers like a plain set of
//    ids under any insertion order, encodes to pinned bytes, and decodes
//    any origin order or repeat canonically.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "smr/pbft.h"
#include "smr/reconfig.h"

namespace atum::smr {
namespace {

Bytes op_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct CkptGroup {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 77};
  crypto::KeyStore keys{29};
  GroupConfig cfg;
  std::vector<std::unique_ptr<obs::Registry>> metrics;  // one per replica
  std::vector<std::unique_ptr<PbftSmr>> replicas;
  std::map<NodeId, std::vector<std::pair<NodeId, Bytes>>> decided;

  explicit CkptGroup(std::size_t g, PbftOptions opt) {
    for (NodeId n = 0; n < g; ++n) cfg.members.push_back(n);
    for (NodeId n = 0; n < g; ++n) {
      metrics.push_back(std::make_unique<obs::Registry>());
      opt.metrics = metrics.back().get();
      auto r = std::make_unique<PbftSmr>(net::Transport(net, n), cfg, keys, opt,
                                         PbftFaultMode::kCorrect);
      r->set_decide_handler([this, n](std::uint64_t, NodeId origin, const net::Payload& op) {
        decided[n].emplace_back(origin, op.to_bytes());
      });
      replicas.push_back(std::move(r));
    }
  }

  PbftSmr& at(std::size_t i) { return *replicas[i]; }
  std::uint64_t counter(std::size_t i, const char* name) {
    return metrics[i]->counter(name).value();
  }
  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }
};

// The memory bound, asserted: 200 sequential ops with batch_max_ops=1 fill
// 200 log slots; with interval 4 / window 16 the retained history must
// never exceed the window and the base must have advanced far past zero.
// On the seed behavior (an unbounded executed history) history_size() would be
// 200 and history_base() 0 — this test fails there by two orders.
TEST(PbftCheckpoint, ExecutedHistoryStaysBoundedByWindow) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);

  for (int i = 0; i < 200; ++i) {
    g.at(static_cast<std::size_t>(i % 4)).propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(10));

  ASSERT_EQ(g.decided[0].size(), 200u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(g.decided[n], g.decided[0]) << "replica " << n;
    EXPECT_LE(g.at(n).history_size(), opt.watermark_window)
        << "replica " << n << " pinned more than the head window";
    EXPECT_GT(g.at(n).history_base(), 150u)
        << "replica " << n << " never truncated (seed behavior)";
    EXPECT_GE(g.at(n).stable_seq(), 180u) << "replica " << n;
  }
}

// Checkpoints keep advancing across a view change (the new primary's
// instance continues the same digest chain).
TEST(PbftCheckpoint, WindowSurvivesViewChange) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  opt.view_change_timeout = millis(500);
  CkptGroup g(4, opt);

  for (int i = 0; i < 20; ++i) g.at(1).propose(op_bytes("a" + std::to_string(i)));
  g.run_for(seconds(5));
  ASSERT_EQ(g.decided[1].size(), 20u);

  g.at(0).set_silent(true);  // primary of view 0 dies
  for (int i = 0; i < 20; ++i) g.at(1).propose(op_bytes("b" + std::to_string(i)));
  g.run_for(seconds(20));

  ASSERT_EQ(g.decided[1].size(), 40u);
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(g.decided[n], g.decided[1]) << "replica " << n;
    EXPECT_GE(g.at(n).view(), 1u);
    EXPECT_LE(g.at(n).history_size(), opt.watermark_window) << "replica " << n;
    EXPECT_GE(g.at(n).stable_seq(), 20u)
        << "replica " << n << ": checkpoints must keep stabilizing in the new view";
  }
}

// A laggard cut off across several checkpoint boundaries cannot replay the
// truncated prefix: it must install the peers' stable checkpoint, report
// the skipped ops through the install handler, and decide the suffix
// identically — no op lost, none duplicated, ordinals accounted for.
TEST(PbftCheckpoint, InstallCatchUpAccountsForSkippedOps) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);

  g.net.isolate(3, true);
  for (int i = 0; i < 60; ++i) {
    g.at(0).propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(5));
  ASSERT_EQ(g.decided[0].size(), 60u);
  ASSERT_TRUE(g.decided[3].empty());
  // The servers really truncated past the laggard's position.
  ASSERT_GT(g.at(0).history_base(), 0u);

  std::uint64_t skipped = 0;
  std::uint64_t installs = 0;
  g.at(3).set_install_handler(
      [&](std::uint64_t from_seq, std::uint64_t to_seq, std::uint64_t from_ops,
          std::uint64_t to_ops) {
        EXPECT_LT(from_seq, to_seq);
        skipped += to_ops - from_ops;
        ++installs;
      });
  g.net.isolate(3, false);
  for (int i = 60; i < 72; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));
  // Once installed, the replica takes part in agreement again: ops proposed
  // now must decide at replica 3 through the normal three-phase path.
  for (int i = 72; i < 74; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(10));

  ASSERT_EQ(g.decided[0].size(), 74u);
  EXPECT_GE(installs, 1u);
  ASSERT_EQ(skipped + g.decided[3].size(), 74u) << "gap + suffix must cover the sequence";
  EXPECT_GT(g.decided[3].size(), 0u);
  for (std::size_t i = 0; i < g.decided[3].size(); ++i) {
    EXPECT_EQ(g.decided[3][i], g.decided[0][static_cast<std::size_t>(skipped) + i])
        << "divergence at suffix index " << i;
  }
  EXPECT_LE(g.at(3).history_size(), opt.watermark_window);
}

// smr.checkpoints_stable counts each stable advance that 2f+1 matching
// votes reach, whether the quorum completes on a peer's vote (most do) or
// on our own; an install moves stable_seq() but only
// smr.checkpoint_installs. Each advance moves stable_seq() by at least one
// interval, which caps the count.
TEST(PbftCheckpoint, StableCounterCountsQuorumAdvancesNotInstalls) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);
  constexpr const char* kStable = "smr.checkpoints_stable";
  auto check_counts = [&](const char* when) {
    for (NodeId n = 0; n < 4; ++n) {
      if (g.at(n).stable_seq() > 0) {
        EXPECT_GE(g.counter(n, kStable), 1u) << when << ", replica " << n;
      }
      EXPECT_LE(g.counter(n, kStable), g.at(n).stable_seq() / opt.checkpoint_interval)
          << when << ", replica " << n;
    }
  };

  for (int i = 0; i < 20; ++i) {
    g.at(static_cast<std::size_t>(i % 4)).propose(op_bytes("a" + std::to_string(i)));
  }
  g.run_for(seconds(5));
  ASSERT_GE(g.at(3).stable_seq(), 16u);
  check_counts("all replicas live");

  g.net.isolate(3, true);
  for (int i = 0; i < 60; ++i) {
    g.at(0).propose(op_bytes("b" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(5));
  const std::uint64_t before = g.counter(3, kStable);
  std::optional<std::uint64_t> at_install;
  g.at(3).set_install_handler([&](std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t) {
    if (!at_install) at_install = g.counter(3, kStable);
  });
  g.net.isolate(3, false);
  for (int i = 60; i < 72; ++i) g.at(0).propose(op_bytes("b" + std::to_string(i)));
  g.run_for(seconds(30));

  EXPECT_GE(g.counter(3, "smr.checkpoint_installs"), 1u);
  ASSERT_TRUE(at_install.has_value()) << "replica 3 never installed a checkpoint";
  EXPECT_EQ(*at_install, before) << "the install bumped smr.checkpoints_stable";
  check_counts("after the install run");
}

// One stability rule for state transfer: a boundary that f+1 votes vouch
// for becomes stable once a reply's records reach it, also when the same
// reply installed a checkpoint first. In a 7-replica group (f = 2),
// replicas 0-5 execute seqs 1-8 while the test keeps what they send member
// 6: the pre-prepares and the CHECKPOINT votes for boundaries 4 and 8. A
// fresh replica 6 then gets three votes for each boundary and one reply
// holding checkpoint 4 and the records of seqs 5-8. Its own vote for 8
// makes four, short of the 2f+1 = 5 that stabilize a boundary, so only the
// vouched-boundary rule can make 8 stable.
TEST(PbftCheckpoint, VouchedBoundaryIsStableAfterAnInstall) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  opt.view_change_timeout = seconds(60.0);  // no view change inside the test
  CkptGroup g(7, opt);
  const std::uint64_t tag = g.at(6).instance_tag();
  g.at(6).stop();
  std::map<std::uint64_t, Bytes> regions;                         // seq -> batch ops region
  std::map<std::uint64_t, std::map<NodeId, net::Payload>> votes;  // boundary -> voter -> frame
  g.net.attach(6, net::MsgType::kPbftPrePrepare, [&](const net::Message& m) {
    ByteReader r(m.payload);
    r.u64();  // instance tag
    r.u64();  // view
    const std::uint64_t seq = r.u64();
    crypto::Digest digest;
    r.raw(digest.data(), digest.size());
    const std::span<const std::uint8_t> region = r.bytes_view();
    regions[seq] = Bytes(region.begin(), region.end());
  });
  g.net.attach(6, net::MsgType::kPbftCheckpoint, [&](const net::Message& m) {
    ByteReader r(m.payload);
    r.u64();  // instance tag
    votes[r.u64()][m.from] = m.payload;
  });
  for (int i = 0; i < 8; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(1));
  ASSERT_EQ(g.decided[0].size(), 8u);
  ASSERT_EQ(g.at(0).stable_seq(), 8u);
  ASSERT_EQ(regions.size(), 8u);
  ASSERT_EQ(votes[4].size(), 6u);
  ASSERT_EQ(votes[8].size(), 6u);

  g.net.detach(6, net::MsgType::kPbftPrePrepare);
  g.net.detach(6, net::MsgType::kPbftCheckpoint);
  g.replicas[6].reset();
  g.replicas[6] = std::make_unique<PbftSmr>(net::Transport(g.net, 6), g.cfg, g.keys, opt);
  PbftSmr& laggard = g.at(6);
  laggard.set_decide_handler([&](std::uint64_t, NodeId origin, const net::Payload& op) {
    g.decided[6].emplace_back(origin, op.to_bytes());
  });
  for (std::uint64_t boundary : {4u, 8u}) {
    for (NodeId voter : {1u, 2u, 3u}) {
      g.net.send(net::Message{voter, 6, net::MsgType::kPbftCheckpoint, votes[boundary][voter]});
    }
  }
  g.run_for(millis(50));
  ASSERT_EQ(laggard.batches_executed(), 0u);
  ASSERT_EQ(laggard.stable_seq(), 0u);

  // The reply a server truncated at 4 sends: u64 tag, u8 has-checkpoint,
  // u64 from_seq, the checkpoint body (a vote frame after its tag), then
  // the records, here each batch as agreed.
  const net::Payload& body = votes[4][1];
  ByteWriter w;
  w.u64(tag);
  w.u8(1);
  w.u64(0);  // the laggard's position
  w.raw(body.data() + 8, body.size() - 8);
  w.varint(4);
  for (std::uint64_t seq = 5; seq <= 8; ++seq) w.raw(regions[seq].data(), regions[seq].size());
  g.net.send(net::Message{1, 6, net::MsgType::kPbftStateReply, net::Payload(w.take())});
  g.run_for(millis(50));

  EXPECT_EQ(laggard.batches_executed(), 8u);
  ASSERT_EQ(g.decided[6].size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(g.decided[6][i], g.decided[0][4 + i]);
  EXPECT_EQ(laggard.stable_seq(), 8u) << "the vouched boundary 8 did not become stable";
  EXPECT_EQ(laggard.history_size(), 0u);
}

// A record that executed with a null op folds into the digest chain the
// same way at the replicas that executed it and at one that adopts it. In
// a 7-replica group (f = 2) the test scripts primary 0: it pre-prepares its
// own op A at seq 1, then A again beside B at seq 2, so replicas 1-5
// execute seq 2 as (null, B), while the test keeps their CHECKPOINT votes
// for boundary 2 from member 6. A fresh replica 6 then gets three of those
// votes and one records-only reply whose second record nulls A. It must
// adopt both records up to the vouched boundary and decide A and B once.
TEST(PbftCheckpoint, AdoptedRecordWithANulledOpReachesTheVouchedBoundary) {
  PbftOptions opt;
  opt.checkpoint_interval = 2;
  opt.watermark_window = 16;
  opt.view_change_timeout = seconds(60.0);  // no view change inside the test
  CkptGroup g(7, opt);
  const std::uint64_t tag = g.at(6).instance_tag();
  g.at(0).stop();
  g.at(6).stop();
  std::map<NodeId, net::Payload> votes;  // boundary 2: voter -> frame
  g.net.attach(6, net::MsgType::kPbftCheckpoint, [&](const net::Message& m) {
    ByteReader r(m.payload);
    r.u64();  // instance tag
    if (r.u64() == 2) votes[m.from] = m.payload;
  });

  struct Op {
    NodeId origin;
    std::uint64_t seq;
    std::string bytes;
  };
  auto region = [](const std::vector<Op>& ops) {
    ByteWriter w;
    w.varint(ops.size());
    for (const Op& op : ops) {
      w.u64(op.origin);
      w.u64(op.seq);
      w.bytes(op_bytes(op.bytes));
    }
    return w.take();
  };
  const Op a{0, 1, "A"};
  const Op b{0, 2, "B"};
  const std::vector<std::vector<Op>> batches = {{a}, {a, b}};
  for (std::uint64_t seq = 1; seq <= batches.size(); ++seq) {
    const Bytes ops = region(batches[seq - 1]);
    const crypto::Digest digest = crypto::sha256(ops);
    ByteWriter pp;
    pp.u64(tag);
    pp.u64(0);  // view
    pp.u64(seq);
    pp.raw(digest.data(), digest.size());
    pp.bytes(ops);
    const net::Payload frame(pp.take());
    for (NodeId n = 1; n <= 5; ++n) {
      g.net.send(net::Message{0, n, net::MsgType::kPbftPrePrepare, frame});
    }
  }
  g.run_for(seconds(1));
  const std::vector<std::pair<NodeId, Bytes>> want = {{0, op_bytes("A")}, {0, op_bytes("B")}};
  for (NodeId n = 1; n <= 5; ++n) {
    ASSERT_EQ(g.at(n).batches_executed(), 2u) << "replica " << n;
    ASSERT_EQ(g.decided[n], want) << "replica " << n;
  }
  ASSERT_EQ(votes.size(), 5u);

  g.net.detach(6, net::MsgType::kPbftCheckpoint);
  g.replicas[6].reset();
  g.replicas[6] = std::make_unique<PbftSmr>(net::Transport(g.net, 6), g.cfg, g.keys, opt);
  PbftSmr& laggard = g.at(6);
  laggard.set_decide_handler([&](std::uint64_t, NodeId origin, const net::Payload& op) {
    g.decided[6].emplace_back(origin, op.to_bytes());
  });
  for (NodeId voter : {1u, 2u, 3u}) {
    g.net.send(net::Message{voter, 6, net::MsgType::kPbftCheckpoint, votes[voter]});
  }
  g.run_for(millis(50));
  ASSERT_EQ(laggard.batches_executed(), 0u);

  // The records-only reply: u64 tag, u8 has-checkpoint 0, u64 from_seq,
  // then the executed records, the second with A as a null op.
  ByteWriter w;
  w.u64(tag);
  w.u8(0);
  w.u64(0);  // the laggard's position
  w.varint(2);
  for (const Bytes& rec : {region({a}), region({{kInvalidNode, a.seq, ""}, b})}) {
    w.raw(rec.data(), rec.size());
  }
  g.net.send(net::Message{1, 6, net::MsgType::kPbftStateReply, net::Payload(w.take())});
  g.run_for(millis(50));

  EXPECT_EQ(laggard.batches_executed(), 2u) << "the records were not adopted";
  EXPECT_EQ(laggard.stable_seq(), 2u) << "the vouched boundary 2 did not become stable";
  EXPECT_EQ(g.decided[6], want);
}

GroupConfig members(std::initializer_list<NodeId> ns) {
  GroupConfig c;
  c.members = ns;
  c.normalize();
  return c;
}

struct ChainHarness {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 53};
  crypto::KeyStore keys{17};
  EngineOptions opt;
  std::map<NodeId, std::unique_ptr<ReconfigurableSmr>> nodes;

  ChainHarness() {
    opt.kind = EngineKind::kAsync;
    opt.pbft.view_change_timeout = millis(500);
  }

  void add_node(NodeId n, const GroupConfig& cfg) {
    nodes[n] = std::make_unique<ReconfigurableSmr>(net, n, cfg, keys, opt);
  }
  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }
};

// RequestLedger against a std::set model. Five origins each insert a
// random permutation of seqs 1..200, interleaved at random, with a repeat
// of a random id after every step. Every insert's answer and every
// contains() must match the model; the finished ledger must encode exactly
// like one filled in order and survive a decode round trip.
TEST(RequestLedger, MatchesSetModelUnderInterleavedPermutations) {
  constexpr NodeId kOrigins = 5;
  constexpr std::uint64_t kSeqs = 200;
  Rng rng(0x1ED6E5);
  std::vector<std::vector<std::uint64_t>> order(kOrigins);
  for (auto& seqs : order) {
    for (std::uint64_t s = 1; s <= kSeqs; ++s) seqs.push_back(s);
    rng.shuffle(seqs);
  }
  RequestLedger ledger;
  std::set<std::pair<NodeId, std::uint64_t>> model;
  auto insert_both = [&](NodeId origin, std::uint64_t seq) {
    const bool fresh = model.insert({origin, seq}).second;
    ASSERT_EQ(ledger.insert(origin, seq), fresh) << "origin " << origin << " seq " << seq;
    for (NodeId o = 0; o < kOrigins; ++o) {
      for (std::uint64_t s = 1; s <= kSeqs + 1; ++s) {
        ASSERT_EQ(ledger.contains(o, s), model.contains({o, s}))
            << "after inserting (" << origin << ", " << seq << "): origin " << o << " seq " << s;
      }
    }
  };
  std::vector<std::size_t> next(kOrigins, 0);
  for (std::uint64_t left = kOrigins * kSeqs; left > 0;) {
    const auto origin = static_cast<NodeId>(rng.next_u64() % kOrigins);
    if (next[origin] == kSeqs) continue;
    insert_both(origin, order[origin][next[origin]++]);
    --left;
    insert_both(static_cast<NodeId>(rng.next_u64() % kOrigins), 1 + rng.next_u64() % kSeqs);
    if (HasFatalFailure()) return;
  }

  RequestLedger in_order;
  for (NodeId o = 0; o < kOrigins; ++o) {
    for (std::uint64_t s = 1; s <= kSeqs; ++s) ASSERT_TRUE(in_order.insert(o, s));
  }
  ByteWriter got;
  ledger.encode(got);
  ByteWriter want;
  in_order.encode(want);
  EXPECT_EQ(got.data(), want.data());
  ByteReader r(got.data());
  EXPECT_EQ(RequestLedger::decode(r), ledger);
  EXPECT_TRUE(r.done());
}

// A decoded ledger need not be folded: one whose above set holds low + 1
// already holds that id, so inserting it again is not fresh.
TEST(RequestLedger, DecodedLowPlusOneInAboveIsAlreadyHeld) {
  ByteWriter w;
  w.varint(1);  // one origin
  w.u64(3);     // origin
  w.u64(5);     // low
  w.varint(1);  // one seq above it...
  w.u64(6);     // ...which is low + 1
  ByteReader r(w.data());
  RequestLedger ledger = RequestLedger::decode(r);
  EXPECT_FALSE(ledger.insert(3, 6));
  EXPECT_TRUE(ledger.contains(3, 6));
  EXPECT_TRUE(ledger.contains(3, 5));
  EXPECT_FALSE(ledger.contains(3, 7));
  EXPECT_TRUE(ledger.insert(3, 7));
  EXPECT_TRUE(ledger.contains(3, 7));
}

// The ledger's wire bytes, pinned for a fixed ledger: origins in id order,
// each with its watermark and the seqs above it in order. Origin 2 has a
// gap at seq 2 and took seq 4 before seq 3; origin 5 holds only seq 2.
TEST(RequestLedger, EncodesAFixedLedgerToPinnedBytes) {
  RequestLedger ledger;
  for (std::uint64_t seq : {1u, 2u, 3u}) ASSERT_TRUE(ledger.insert(9, seq));
  for (std::uint64_t seq : {1u, 4u, 3u}) ASSERT_TRUE(ledger.insert(2, seq));
  ASSERT_TRUE(ledger.insert(5, 2));
  ByteWriter got;
  ledger.encode(got);

  ByteWriter want;
  want.varint(3);  // origins
  want.u64(2);     // origin 2: low 1, above {3, 4}
  want.u64(1);
  want.varint(2);
  want.u64(3);
  want.u64(4);
  want.u64(5);     // origin 5: low 0, above {2}
  want.u64(0);
  want.varint(1);
  want.u64(2);
  want.u64(9);     // origin 9: low 3, nothing above
  want.u64(3);
  want.varint(0);
  EXPECT_EQ(got.data(), want.data());
  ASSERT_EQ(got.size(), 1u + 3 * 17 + 3 * 8);
}

// Decoding takes any origin order and any repeat: the ledger holds each
// origin once, the last entry for it wins, and the seqs above a watermark
// are a set, kept as sent even where they lie at or below it. It
// re-encodes canonically.
TEST(RequestLedger, DecodesUnsortedAndRepeatedOriginsCanonically) {
  ByteWriter w;
  w.varint(3);
  w.u64(7);  // origin 7: low 2, above {5}; replaced below
  w.u64(2);
  w.varint(1);
  w.u64(5);
  w.u64(3);  // origin 3: low 1
  w.u64(1);
  w.varint(0);
  w.u64(7);  // origin 7 again: low 4, above 9, 3, 6, 9
  w.u64(4);
  w.varint(4);
  w.u64(9);
  w.u64(3);
  w.u64(6);
  w.u64(9);
  ByteReader r(w.data());
  RequestLedger ledger = RequestLedger::decode(r);
  EXPECT_TRUE(r.done());

  EXPECT_TRUE(ledger.contains(3, 1));
  EXPECT_FALSE(ledger.contains(3, 2));
  EXPECT_FALSE(ledger.contains(7, 5)) << "the first entry for origin 7 must be replaced";
  for (std::uint64_t seq : {1u, 3u, 4u, 6u, 9u}) EXPECT_TRUE(ledger.contains(7, seq)) << seq;
  for (std::uint64_t seq : {5u, 7u, 8u, 10u}) EXPECT_FALSE(ledger.contains(7, seq)) << seq;

  ByteWriter got;
  ledger.encode(got);
  ByteWriter want;
  want.varint(2);
  want.u64(3);
  want.u64(1);
  want.varint(0);
  want.u64(7);
  want.u64(4);
  want.varint(3);
  want.u64(3);
  want.u64(6);
  want.u64(9);
  EXPECT_EQ(got.data(), want.data());
  ByteReader again(got.data());
  EXPECT_EQ(RequestLedger::decode(again), ledger);

  // Inserting the watermark's successor folds the run above it.
  EXPECT_TRUE(ledger.insert(7, 5));
  EXPECT_TRUE(ledger.contains(7, 5));
  EXPECT_FALSE(ledger.insert(7, 6));
  EXPECT_TRUE(ledger.insert(7, 7));
  ByteWriter folded;
  ledger.encode(folded);
  ByteWriter want_folded;
  want_folded.varint(2);
  want_folded.u64(3);
  want_folded.u64(1);
  want_folded.varint(0);
  want_folded.u64(7);
  want_folded.u64(7);
  want_folded.varint(2);
  want_folded.u64(3);
  want_folded.u64(9);
  EXPECT_EQ(folded.data(), want_folded.data());
}

// A -> B -> A: the third epoch has the same membership as the first but a
// different chain hash, so the PBFT instance tag differs too — an
// old-instance laggard can never adopt the new instance's history.
TEST(EpochChain, IdenticalMembershipsNonAdjacentEpochsGetDistinctTags) {
  ChainHarness h;
  auto a = members({0, 1, 2, 3});
  for (NodeId n : {0u, 1u, 2u, 3u, 4u}) h.add_node(n, a);
  // Node 4 idles with config A but is not a member; it joins in epoch B.

  std::vector<crypto::Digest> hashes;
  std::vector<std::uint64_t> tags;
  auto record = [&](NodeId n) {
    hashes.push_back(h.nodes[n]->epoch_hash());
    tags.push_back(crypto::digest_prefix64(h.nodes[n]->epoch_hash()));
  };
  record(0);  // epoch 0 (A)

  h.nodes[0]->propose_reconfig(members({0, 1, 2, 3, 4}));
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  record(0);  // epoch 1 (B)

  h.nodes[1]->propose_reconfig(a);
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 2u);
  record(0);  // epoch 2 (A again)

  EXPECT_NE(hashes[0], hashes[1]);
  EXPECT_NE(hashes[1], hashes[2]);
  EXPECT_NE(hashes[0], hashes[2]) << "A->B->A epochs must not share a chain hash";
  EXPECT_NE(tags[0], tags[2]) << "A->B->A epochs must not share an instance tag";

  // All members of the final config agree on the chain head.
  for (NodeId n : a.members) {
    EXPECT_EQ(h.nodes[n]->epoch_hash(), hashes[2]) << "node " << n;
    EXPECT_EQ(h.nodes[n]->epoch(), 2u) << "node " << n;
  }
}

// The leave-confirmation gap: node 3 is partitioned while the group decides
// its removal; the config op retired the instance that decided it, so node
// 3 can never learn the outcome from that instance. After the heal, the
// retried removal notices (f+1 byte-identical from members of its
// last-known config) close the gap at the protocol level.
TEST(EpochChain, PartitionedRemovedMemberLearnsRemovalFromNotices) {
  ChainHarness h;
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);

  std::vector<std::pair<std::uint64_t, bool>> node3_configs;  // (epoch, contains self)
  h.nodes[3]->set_config_handler([&](std::uint64_t epoch, const GroupConfig& c) {
    node3_configs.emplace_back(epoch, c.contains(3));
  });

  h.net.isolate(3, true);
  h.run_for(millis(100));
  h.nodes[0]->propose_reconfig(members({0, 1, 2}));
  h.run_for(seconds(2));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  ASSERT_TRUE(h.nodes[3]->active()) << "zombie: decided out but never told";
  ASSERT_TRUE(node3_configs.empty());

  h.net.isolate(3, false);
  h.run_for(seconds(10));  // covers the 1 s and 5 s notice retries

  ASSERT_EQ(node3_configs.size(), 1u) << "node 3 must learn of its removal exactly once";
  EXPECT_EQ(node3_configs[0].first, 1u);
  EXPECT_FALSE(node3_configs[0].second);
  EXPECT_FALSE(h.nodes[3]->active());
  EXPECT_EQ(h.nodes[3]->epoch_hash(), h.nodes[0]->epoch_hash())
      << "the notice carries the new chain head";
}

}  // namespace
}  // namespace atum::smr
