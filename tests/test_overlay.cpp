// Tests for the overlay layer: H-graph structure, group-message acceptance
// (majority vouching + digest optimization), random walks (bulk RNG,
// certificate chains, uniformity), and gossip policies.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/stats.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "obs/trace.h"
#include "overlay/gossip.h"
#include "overlay/group_message.h"
#include "overlay/hgraph.h"
#include "overlay/random_walk.h"
#include "sim/simulator.h"

namespace atum::overlay {
namespace {

// ---------------------------------------------------------------------------
// HGraph
// ---------------------------------------------------------------------------

TEST(HGraph, BootstrapSingleVertex) {
  HGraph g(3);
  g.add_first(7);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.contains(7));
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(g.successor(c, 7), 7u);
    EXPECT_EQ(g.predecessor(c, 7), 7u);
  }
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(g.neighbors(7).empty());
}

TEST(HGraph, InsertAfterMaintainsRing) {
  HGraph g(1);
  g.add_first(0);
  g.insert_after(0, 0, 1);
  g.insert_after(0, 1, 2);
  EXPECT_EQ(g.successor(0, 0), 1u);
  EXPECT_EQ(g.successor(0, 1), 2u);
  EXPECT_EQ(g.successor(0, 2), 0u);
  EXPECT_EQ(g.predecessor(0, 0), 2u);
  EXPECT_TRUE(g.validate());
}

TEST(HGraph, InsertRandomKeepsAllCyclesValid) {
  Rng rng(5);
  HGraph g(4);
  for (GroupId v = 0; v < 100; ++v) {
    if (v == 0) {
      g.add_first(v);
    } else {
      g.insert_random(v, rng);
    }
  }
  EXPECT_EQ(g.size(), 100u);
  EXPECT_TRUE(g.validate());
}

TEST(HGraph, ConstantDegree) {
  Rng rng(8);
  HGraph g(5);
  for (GroupId v = 0; v < 64; ++v) {
    if (v == 0) {
      g.add_first(v);
    } else {
      g.insert_random(v, rng);
    }
  }
  for (GroupId v = 0; v < 64; ++v) {
    EXPECT_EQ(g.links(v).size(), 10u);           // 2 per cycle
    EXPECT_LE(g.neighbors(v).size(), 10u);        // distinct neighbors
    EXPECT_GE(g.neighbors(v).size(), 1u);
  }
}

TEST(HGraph, ErrorsOnUnknownVertices) {
  HGraph g(2);
  g.add_first(1);
  EXPECT_THROW(g.successor(0, 99), std::invalid_argument);
  EXPECT_THROW(g.insert_after(0, 99, 5), std::invalid_argument);
  EXPECT_THROW(g.insert_after(0, 1, 1), std::invalid_argument);  // duplicate
}

TEST(HGraph, ZeroCyclesRejected) { EXPECT_THROW(HGraph(0), std::invalid_argument); }

// ---------------------------------------------------------------------------
// Group messages
// ---------------------------------------------------------------------------

struct GmFixture : ::testing::Test {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 77};
  Rng rng{11};
  std::vector<NodeId> group_a{1, 2, 3, 4, 5};  // sending vgroup 50
  // The receivers' view of the sending vgroups.
  std::map<GroupId, std::vector<NodeId>> known{{50, group_a}};
  NodeId receiver = 100;
  std::vector<std::pair<GroupMessageId, net::Payload>> delivered;
  std::unique_ptr<GroupMessageReceiver> rx;

  GroupMessageReceiver::MembersFn members_of() {
    return [this](GroupId g) -> const std::vector<NodeId>* {
      auto it = known.find(g);
      return it == known.end() ? nullptr : &it->second;
    };
  }

  void make_receiver() {
    rx = std::make_unique<GroupMessageReceiver>(
        net::Transport(net, receiver), members_of(),
        [this](const GroupMessageId& id, net::Payload p) {
          delivered.emplace_back(id, std::move(p));
        });
  }

  // What one member of vgroup `from` sends: its prepared frame to every
  // member of `dest`, through its own coalescer, flushed at once. It ranks
  // itself among the members the receivers know for `from` (group_a for a
  // vgroup they do not know).
  void send_group(NodeId sender, GroupId from, const std::vector<NodeId>& dest,
                  const net::Payload& payload) {
    auto it = known.find(from);
    SendCoalescer c(net::Transport(net, sender), rng);
    PreparedGroupMessage(it == known.end() ? group_a : it->second, sender, from, payload)
        .send_to(c, dest);
    c.flush();
  }

  void send_from_all(const Bytes& payload, const std::vector<NodeId>& senders) {
    for (NodeId s : senders) send_group(s, 50, {receiver}, payload);
  }
};

// The id every sender of `body` in vgroup `from` uses: its seq is the
// content's digest prefix.
GroupMessageId content_id(GroupId from, const Bytes& body) {
  return {from, crypto::digest_prefix64(crypto::sha256(body))};
}

// Hand-encode one full group-message frame (what PreparedGroupMessage's
// full-rank senders put on the wire, under the id content_id gives).
net::Payload full_frame(GroupMessageId id, const Bytes& body) {
  ByteWriter w;
  w.u64(id.from_group);
  w.u64(id.seq);
  w.bytes(body);
  return net::Payload(w.take());
}

TEST_F(GmFixture, AcceptsWithAllSendersCorrect) {
  make_receiver();
  send_from_all(Bytes{0xAA}, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, Bytes{0xAA});
  EXPECT_EQ(delivered[0].first.from_group, 50u);
}

TEST_F(GmFixture, AcceptsWithExactMajority) {
  make_receiver();
  send_from_all(Bytes{0xBB}, {1, 2, 3});  // 3 of 5 = majority
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
}

TEST_F(GmFixture, RejectsBelowMajority) {
  make_receiver();
  send_from_all(Bytes{0xCC}, {1, 2});  // 2 of 5 < majority
  sim.run();
  EXPECT_TRUE(delivered.empty());
}

TEST_F(GmFixture, DeliversExactlyOnceOnDuplicates) {
  make_receiver();
  send_from_all(Bytes{0xDD}, group_a);
  sim.run();
  send_from_all(Bytes{0xDD}, group_a);  // same id resent
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// An id names its content: a frame whose seq is not its content's digest
// prefix is dropped on arrival, full or digest-only.
TEST_F(GmFixture, FrameWhoseSeqIsNotItsContentsDigestPrefixIsDropped) {
  make_receiver();
  const Bytes body{0x5A, 0x11};
  const GroupMessageId wrong{50, content_id(50, body).seq + 1};
  const crypto::Digest d = crypto::sha256(body);
  ByteWriter w;
  w.u64(wrong.from_group);
  w.u64(wrong.seq);
  w.raw(d.data(), d.size());
  const net::Payload digest_frame(w.take());
  const net::Payload full = full_frame(wrong, body);
  for (NodeId s : {1, 2, 3}) {
    net::Transport(net, s).send(receiver, net::MsgType::kGroupMsgFull, full);
  }
  for (NodeId s : {4, 5}) {
    net::Transport(net, s).send(receiver, net::MsgType::kGroupMsgDigest, digest_frame);
  }
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(rx->pending_count(), 0u);
  // The same content under its true id delivers.
  send_from_all(body, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, content_id(50, body));
}

// Content delivers once per node, whichever vgroup sends it. A second
// known vgroup's message for it delivers nothing, whether it was pending
// when the first delivered or arrives later.
TEST_F(GmFixture, SameContentFromASecondVgroupIsNotDeliveredAgain) {
  known[60] = {6, 7, 8, 9, 10};
  make_receiver();
  const Bytes body{0xC0, 0x01};
  for (NodeId s : {6, 7}) send_group(s, 60, {receiver}, body);  // one short of 3
  sim.run();
  send_from_all(body, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, content_id(50, body));
  EXPECT_EQ(rx->pending_count(), 1u);  // vgroup 60's
  send_group(8, 60, {receiver}, body);  // completes vgroup 60's majority
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 0u);
  // Its later frames mint no entry.
  for (NodeId s : {9, 10}) send_group(s, 60, {receiver}, body);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 0u);
}

// Content the node delivered through its own vgroup's decision, recorded by
// note_delivered, is not delivered again by a later group message.
TEST_F(GmFixture, ContentNotedByTheDecidePathIsNotDeliveredAgain) {
  make_receiver();
  const Bytes decided{0xDE, 0xC1}, gossiped{0xDE, 0xC2};
  EXPECT_TRUE(rx->note_delivered(content_id(50, decided).seq));
  EXPECT_FALSE(rx->note_delivered(content_id(50, decided).seq));
  send_from_all(decided, group_a);
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(rx->pending_count(), 0u);
  // Other content delivers, and the decide path then finds it delivered.
  send_from_all(gossiped, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_FALSE(rx->note_delivered(content_id(50, gossiped).seq));
}

// A frame whose content was delivered and whose id has no entry is dropped
// before the sending vgroup's membership is looked up: the lookup could not
// change its outcome. The frames that follow a delivery, from the same
// vgroup or another, and the frames of content the decide path noted never
// call MembersFn.
TEST_F(GmFixture, DeliveredContentNeverLooksUpTheSendingVgroup) {
  known[60] = {6, 7, 8, 9, 10};
  std::size_t lookups = 0;
  rx = std::make_unique<GroupMessageReceiver>(
      net::Transport(net, receiver),
      [this, &lookups](GroupId g) -> const std::vector<NodeId>* {
        ++lookups;
        auto it = known.find(g);
        return it == known.end() ? nullptr : &it->second;
      },
      [this](const GroupMessageId& id, net::Payload p) { delivered.emplace_back(id, std::move(p)); });
  const Bytes body{0x1d, 0x0c};
  for (NodeId s : {1, 2, 3}) send_group(s, 50, {receiver}, body);  // a majority of five
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(lookups, 3u);  // one per frame that voted
  lookups = 0;
  for (NodeId s : {4, 5}) send_group(s, 50, {receiver}, body);
  send_from_all(body, {6, 7, 8, 9, 10});  // vgroup 50's frames from outsiders
  for (NodeId s : known[60]) send_group(s, 60, {receiver}, body);
  const Bytes decided{0x1d, 0x0d};
  EXPECT_TRUE(rx->note_delivered(content_id(50, decided).seq));
  send_from_all(decided, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 0u);
  EXPECT_EQ(lookups, 0u) << "a frame carrying delivered content looked up its vgroup";
}

// Regression: a duplicate arriving more than one TTL after delivery used to
// mint a fresh entry and deliver the same GroupMessageId a second time. The
// rolling delivered set (kept for ~8 TTLs past delivery) must drop it.
TEST_F(GmFixture, PostTtlDuplicateIsNotRedelivered) {
  make_receiver();
  rx->set_ttl(seconds(1));
  send_from_all(Bytes{0xD7}, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);

  // Let a TTL pass; an unrelated id then delivers, and the receiver keeps
  // no entry for either delivered id.
  sim.run_until(sim.now() + seconds(3));
  for (NodeId s : group_a) send_group(s, 50, {receiver}, Bytes{0x11});
  sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(rx->pending_count(), 0u) << "a delivered id kept its entry";

  // The replayed id is past one TTL but inside the rolling window.
  send_from_all(Bytes{0xD7}, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 2u) << "post-TTL duplicate was re-delivered";
}

TEST_F(GmFixture, DigestOptimizationOnlyMajoritySendsFull) {
  make_receiver();
  // Count wire message types: ranks 0..2 (of 5) send full, ranks 3..4 digest.
  std::uint64_t full = 0, digest = 0;
  net.attach(receiver, net::MsgType::kGroupMsgFull,
             [&](const net::Message&) { ++full; });
  net.attach(receiver, net::MsgType::kGroupMsgDigest,
             [&](const net::Message&) { ++digest; });
  send_from_all(Bytes{0xEE}, group_a);
  sim.run();
  EXPECT_EQ(full, 3u);
  EXPECT_EQ(digest, 2u);
}

TEST_F(GmFixture, ByzantineMinorityCannotForgeContent) {
  make_receiver();
  // Two Byzantine senders push a corrupted payload; three correct ones the
  // real payload. Only the real one is ever delivered.
  send_from_all(Bytes{0x01}, {1, 2});    // liars
  send_from_all(Bytes{0x02}, {3, 4, 5}); // truth-tellers (majority)
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, Bytes{0x02});
}

// reevaluate() delivers in ascending GroupMessageId order, whatever order
// the ids arrived in or are stored in: each delivery runs the node's accept
// path, and the node's later RNG draws depend on that order. Vgroup 50 has
// 7 members, so 3 vouchers are short of its majority of 4 until a neighbor
// update shrinks it to 5.
TEST_F(GmFixture, ReevaluateDeliversInIdOrder) {
  known[50] = {1, 2, 3, 4, 5, 6, 7};
  make_receiver();
  // Sixteen distinct payloads, sent in descending order of their ids.
  std::vector<std::pair<GroupMessageId, Bytes>> messages;
  for (std::uint8_t k = 1; k <= 16; ++k) {
    const Bytes body{0x42, k};
    messages.emplace_back(content_id(50, body), body);
  }
  std::sort(messages.rbegin(), messages.rend());
  for (const auto& [id, body] : messages) {
    for (NodeId s : {1, 2, 3}) {  // full-payload ranks, short of a majority
      send_group(s, 50, {receiver}, body);
    }
    sim.run();
  }
  ASSERT_TRUE(delivered.empty());
  ASSERT_EQ(rx->pending_count(), messages.size());

  known[50] = group_a;  // the neighbor update: 3 of 5 is a majority
  rx->reevaluate();
  std::vector<GroupMessageId> order, ids;
  for (const auto& [id, payload] : delivered) order.push_back(id);
  for (const auto& [id, body] : messages) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(order, ids);
}

// A member can send a digest-only frame whose crafted digest shares the
// id's prefix. No full copy can ever match it, and it neither blocks the
// true content (it arrives first, under the same id) nor replaces it (it
// sorts first and reaches the majority too). Vgroup 50 has 7 members:
// 5-7 vouch the crafted digest, 1-3 the true content, each one short of
// the majority of 4 until a neighbor update shrinks the group to 5.
TEST_F(GmFixture, CraftedDigestWithTheIdsPrefixCannotBlockDelivery) {
  known[50] = {1, 2, 3, 4, 5, 6, 7};
  make_receiver();
  const Bytes body{0x0A, 0x0B};
  const GroupMessageId id = content_id(50, body);
  crypto::Digest crafted = crypto::sha256(body);
  std::fill(crafted.begin() + 8, crafted.end(), 0);  // same prefix, sorts first
  ByteWriter w;
  w.u64(id.from_group);
  w.u64(id.seq);
  w.raw(crafted.data(), crafted.size());
  const net::Payload crafted_frame(w.take());
  auto send_crafted = [&] {
    for (NodeId s : {5, 6, 7}) {
      net::Transport(net, s).send(receiver, net::MsgType::kGroupMsgDigest, crafted_frame);
    }
    sim.run();
  };
  send_crafted();
  ASSERT_EQ(rx->pending_count(), 1u);
  for (NodeId s : {1, 2, 3}) send_group(s, 50, {receiver}, body);  // full-payload ranks
  sim.run();
  ASSERT_TRUE(delivered.empty());
  ASSERT_EQ(rx->pending_count(), 1u);

  known[50] = {1, 2, 3, 5, 6};
  rx->reevaluate();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, id);
  EXPECT_EQ(delivered[0].second, body);
  EXPECT_EQ(rx->pending_count(), 0u);
  // The crafted digest's later frames find the content delivered.
  send_crafted();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 0u);
}

TEST_F(GmFixture, MembershipFilterDropsOutsiders) {
  make_receiver();
  // Five outsiders flood identical content; must not be accepted.
  send_from_all(Bytes{0x99}, {200, 201, 202, 203, 204});
  sim.run();
  EXPECT_TRUE(delivered.empty());
  // Neither may a vgroup the receiver does not know: its frames are
  // dropped on arrival, not buffered.
  for (NodeId s : group_a) send_group(s, 60, {receiver}, Bytes{0x97});
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(rx->pending_count(), 0u);
  // Genuine members still get through.
  send_from_all(Bytes{0x98}, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// A candidate keeps its first voters inline and spills the rest: past the
// inline ones, each voter still counts once.
TEST_F(GmFixture, VotersPastTheInlineOnesCountOnceEach) {
  std::vector<NodeId> big;
  for (NodeId n = 1; n <= 30; ++n) big.push_back(n);
  known[50] = big;  // a majority is 16, so the 15th and 16th voters spill
  make_receiver();
  const net::Payload body(Bytes{0x30});
  for (NodeId s = 1; s <= 15; ++s) send_group(s, 50, {receiver}, body);
  for (NodeId s : {15, 1}) send_group(s, 50, {receiver}, body);  // repeats
  sim.run();
  EXPECT_TRUE(delivered.empty()) << "a repeated vote counted twice";
  send_group(16, 50, {receiver}, body);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// An entry already open for an id does not let outsiders in: a frame that
// would add a vote is checked against the sending vgroup's membership
// whether or not its id has an entry.
TEST_F(GmFixture, OutsidersAddNoVoteToALiveEntry) {
  make_receiver();
  const net::Payload body(Bytes{0x9a});
  // Member 1's full copy opens the entry: one of the three votes a
  // majority of five needs.
  send_group(1, 50, {receiver}, body);
  sim.run();
  ASSERT_EQ(rx->pending_count(), 1u);
  // Four outsiders claim vgroup 50 and vouch for the same content.
  for (NodeId s : std::vector<NodeId>{200, 201, 202, 203}) send_group(s, 50, {receiver}, body);
  sim.run();
  EXPECT_TRUE(delivered.empty()) << "an outsider's frame counted as a vote";
  send_group(2, 50, {receiver}, body);
  sim.run();
  EXPECT_TRUE(delivered.empty());
  send_group(3, 50, {receiver}, body);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// ---------------------------------------------------------------------------
// Zero-copy delivery & entry GC
// ---------------------------------------------------------------------------

TEST_F(GmFixture, DeliveryIsZeroCopyFromTheWire) {
  make_receiver();
  // Hand-encode one full frame and send the SAME frozen Payload from a
  // majority of senders (exactly what PreparedGroupMessage does per
  // sender): the delivered payload must be a slice of that buffer, not a
  // copy of it.
  const Bytes body{0xAB, 0xCD, 0xEF};
  ByteWriter w;
  w.u64(50);
  w.u64(content_id(50, body).seq);
  w.bytes(body);
  net::Payload wire(w.take());
  for (NodeId s : {1, 2, 3}) {
    net::Transport t(net, s);
    t.send(receiver, net::MsgType::kGroupMsgFull, wire);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  const net::Payload& p = delivered[0].second;
  EXPECT_EQ(p, (Bytes{0xAB, 0xCD, 0xEF}));
  EXPECT_GE(p.data(), wire.data());                            // inside...
  EXPECT_LE(p.data() + p.size(), wire.data() + wire.size());   // ...the frame
  EXPECT_EQ(p.use_count(), wire.use_count());                  // same buffer
}

// A majority can vouch for a digest before any full copy arrives: nothing
// delivers until the first full copy does, that copy's body is what
// delivers, and later full copies deliver nothing.
TEST_F(GmFixture, DigestMajorityWaitsForTheFirstFullCopy) {
  make_receiver();
  const Bytes body{0x5E, 0xED, 0x01};
  const GroupMessageId id = content_id(50, body);
  auto full_frame = [&body, &id] {
    ByteWriter w;
    w.u64(id.from_group);
    w.u64(id.seq);
    w.bytes(body);
    return net::Payload(w.take());
  };
  ByteWriter w;
  w.u64(id.from_group);
  w.u64(id.seq);
  const crypto::Digest d = crypto::sha256(body);
  w.raw(d.data(), d.size());
  const net::Payload digest_frame(w.take());

  for (NodeId s : {3, 4, 5}) {  // a majority of 5, digests only
    net::Transport t(net, s);
    t.send(receiver, net::MsgType::kGroupMsgDigest, digest_frame);
  }
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(rx->pending_count(), 1u);

  const net::Payload first = full_frame();
  net::Transport t1(net, 1);
  t1.send(receiver, net::MsgType::kGroupMsgFull, first);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  const net::Payload& p = delivered[0].second;
  EXPECT_EQ(p, body);
  EXPECT_GE(p.data(), first.data());  // a slice of member 1's frame
  EXPECT_LE(p.data() + p.size(), first.data() + first.size());

  net::Transport t2(net, 2);
  t2.send(receiver, net::MsgType::kGroupMsgFull, full_frame());
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(GmFixture, FanOutSharesOneWireBufferAcrossReceivers) {
  // Two receivers, one PreparedGroupMessage per sender: every delivered
  // payload aliases its sender's single frozen frame — the fan-out
  // materializes one buffer per *sender*, not one per recipient.
  std::vector<net::Payload> got;
  auto rx2 = std::make_unique<GroupMessageReceiver>(
      net::Transport(net, 101), members_of(),
      [&](const GroupMessageId&, net::Payload p) { got.push_back(std::move(p)); });
  make_receiver();
  for (NodeId s : group_a) {
    send_group(s, 50, {receiver, 101}, net::Payload(Bytes(2048, 0x5A)));
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(got.size(), 1u);
  // Both receivers hold slices; each aliases one of the three full-sender
  // frames, so at most 3 distinct buffers back any number of receivers.
  EXPECT_EQ(delivered[0].second, got[0]);
}

// ---------------------------------------------------------------------------
// Send coalescing & envelopes
// ---------------------------------------------------------------------------

TEST_F(GmFixture, CoalescerPassesALoneFrameThroughUnwrapped) {
  std::uint64_t full = 0, envelopes = 0;
  net.attach(receiver, net::MsgType::kGroupMsgFull, [&](const net::Message&) { ++full; });
  net.attach(receiver, net::MsgType::kGroupMsgEnvelope,
             [&](const net::Message&) { ++envelopes; });
  SendCoalescer c(net::Transport(net, 1), rng);
  c.enqueue(receiver, net::MsgType::kGroupMsgFull, full_frame({50, 1}, Bytes{0xAA}));
  sim.run();
  EXPECT_EQ(full, 1u);
  EXPECT_EQ(envelopes, 0u);
  EXPECT_EQ(c.messages_sent(), 1u);
  EXPECT_EQ(c.messages_saved(), 0u);
}

TEST_F(GmFixture, CoalescerMergesSameTickFramesIntoOneEnvelope) {
  std::uint64_t singles = 0, envelopes = 0;
  net.attach(receiver, net::MsgType::kGroupMsgFull, [&](const net::Message&) { ++singles; });
  net.attach(receiver, net::MsgType::kGroupMsgEnvelope,
             [&](const net::Message&) { ++envelopes; });
  SendCoalescer c(net::Transport(net, 1), rng);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    c.enqueue(receiver, net::MsgType::kGroupMsgFull, full_frame({50, seq}, Bytes{0xAB}));
  }
  EXPECT_EQ(c.queued(), 3u);
  sim.run();
  EXPECT_EQ(singles, 0u);
  EXPECT_EQ(envelopes, 1u);
  EXPECT_EQ(c.queued(), 0u);
  EXPECT_EQ(c.messages_sent(), 1u);
  EXPECT_EQ(c.messages_saved(), 2u);
}

TEST_F(GmFixture, CoalescerSuppressesDuplicateFramesPerDestination) {
  // The same frozen frame enqueued for the same node once per overlapping
  // neighbor group: one copy travels, and it travels unwrapped.
  std::uint64_t singles = 0, envelopes = 0;
  net.attach(receiver, net::MsgType::kGroupMsgFull, [&](const net::Message&) { ++singles; });
  net.attach(receiver, net::MsgType::kGroupMsgEnvelope,
             [&](const net::Message&) { ++envelopes; });
  SendCoalescer c(net::Transport(net, 1), rng);
  net::Payload frame = full_frame({50, 7}, Bytes{0xCD});
  for (int i = 0; i < 3; ++i) c.enqueue(receiver, net::MsgType::kGroupMsgFull, frame);
  sim.run();
  EXPECT_EQ(singles, 1u);
  EXPECT_EQ(envelopes, 0u);
  EXPECT_EQ(c.frames_enqueued(), 3u);
  EXPECT_EQ(c.messages_saved(), 2u);
}

// The frames one message carries: itself, or an envelope's inner frames.
std::vector<net::Payload> frames_of(const net::Message& m) {
  if (m.type != net::MsgType::kGroupMsgEnvelope) return {m.payload};
  std::vector<net::Payload> frames;
  ByteReader r(m.payload);
  for (std::uint64_t n = r.varint(); n > 0; --n) {
    r.u16();
    frames.push_back(m.payload.slice(r.bytes_view()));
  }
  return frames;
}

TEST_F(GmFixture, CoalescerDedupsAcrossInterleavedDestinations) {
  // Repeats to one destination are dropped even with frames for other
  // destinations enqueued between them. The first copy keeps its place,
  // and the destinations leave in the order of one shuffle of the
  // coalescer's Rng.
  net::NetworkConfig cfg = net::NetworkConfig::datacenter();
  cfg.jitter_mean = 0;  // receive order == send order
  net::SimNetwork quiet(sim, cfg, 77);
  const NodeId a = 201, b = 202, c = 203;
  std::vector<NodeId> receive_order;
  std::map<NodeId, std::vector<std::vector<net::Payload>>> got;  // per message
  for (NodeId d : {a, b, c}) {
    auto record = [&, d](const net::Message& m) {
      receive_order.push_back(d);
      got[d].push_back(frames_of(m));
    };
    quiet.attach(d, net::MsgType::kGroupMsgFull, record);
    quiet.attach(d, net::MsgType::kGroupMsgEnvelope, record);
  }
  const net::Payload f1 = full_frame({50, 1}, Bytes{0x01});
  const net::Payload f2 = full_frame({50, 2}, Bytes{0x02});
  const net::Payload f3 = full_frame({50, 3}, Bytes{0x03});
  const net::Payload f4 = full_frame({50, 4}, Bytes{0x04});
  Rng coalescer_rng(23);
  SendCoalescer co(net::Transport(quiet, 1), coalescer_rng);
  for (const auto& [dest, frame] : std::vector<std::pair<NodeId, net::Payload>>{
           {a, f1}, {b, f2}, {a, f3}, {a, f1}, {b, f2}, {c, f4}}) {
    co.enqueue(dest, net::MsgType::kGroupMsgFull, frame);
  }
  sim.run();

  EXPECT_EQ(co.frames_enqueued(), 6u);
  EXPECT_EQ(co.messages_sent(), 3u);
  EXPECT_EQ(got[a], (std::vector<std::vector<net::Payload>>{{f1, f3}}));
  EXPECT_EQ(got[b], (std::vector<std::vector<net::Payload>>{{f2}}));
  EXPECT_EQ(got[c], (std::vector<std::vector<net::Payload>>{{f4}}));
  Rng same(23);
  std::vector<NodeId> expected{a, b, c};
  same.shuffle(expected);
  EXPECT_EQ(receive_order, expected);
}

// With a tracer on, each frame that shares an envelope records one
// kCoalesce event, keyed by its seq, with the envelope's frame count; a
// frame that leaves alone records none.
TEST_F(GmFixture, CoalescerTracesEachFrameOfAMultiFrameEnvelope) {
  obs::Tracer tracer;
  tracer.enable();
  std::uint64_t singles = 0, envelopes = 0;
  net.attach(receiver, net::MsgType::kGroupMsgFull, [&](const net::Message&) { ++singles; });
  net.attach(receiver, net::MsgType::kGroupMsgEnvelope,
             [&](const net::Message&) { ++envelopes; });
  SendCoalescer c(net::Transport(net, 1), rng);
  c.set_tracer(&tracer);
  const Bytes one{0x01}, two{0x02};
  const GroupMessageId a = content_id(50, one), b = content_id(50, two);
  c.enqueue(receiver, net::MsgType::kGroupMsgFull, full_frame(a, one));
  c.enqueue(receiver, net::MsgType::kGroupMsgFull, full_frame(b, two));
  c.enqueue(101, net::MsgType::kGroupMsgFull, full_frame(a, one));  // alone: no event
  sim.run();
  EXPECT_EQ(envelopes, 1u);
  EXPECT_EQ(singles, 0u);
  std::vector<std::uint64_t> keys;
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    EXPECT_EQ(e.point, obs::TracePoint::kCoalesce);
    EXPECT_EQ(e.node, 1u);
    EXPECT_EQ(e.a, 2u);
    keys.push_back(e.key);
  }
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{a.seq, b.seq}));
}

TEST_F(GmFixture, CoalescerSplitsOversizedBatchesAtTheCap) {
  std::uint64_t singles = 0, envelopes = 0;
  net.attach(receiver, net::MsgType::kGroupMsgFull, [&](const net::Message&) { ++singles; });
  net.attach(receiver, net::MsgType::kGroupMsgEnvelope,
             [&](const net::Message&) { ++envelopes; });
  SendCoalescer c(net::Transport(net, 1), rng);
  for (std::uint64_t seq = 0; seq < SendCoalescer::kMaxFramesPerEnvelope + 1; ++seq) {
    c.enqueue(receiver, net::MsgType::kGroupMsgFull, full_frame({50, seq}, Bytes{0xEF}));
  }
  sim.run();
  // One full envelope plus the lone remainder travelling as itself.
  EXPECT_EQ(envelopes, 1u);
  EXPECT_EQ(singles, 1u);
}

TEST_F(GmFixture, CoalescerRejectsNonGroupMessageTypes) {
  SendCoalescer c(net::Transport(net, 1), rng);
  EXPECT_THROW(c.enqueue(receiver, net::MsgType::kHeartbeat, net::Payload(Bytes{1})),
               std::logic_error);
  EXPECT_THROW(
      c.enqueue(receiver, net::MsgType::kGroupMsgEnvelope, net::Payload(Bytes{1})),
      std::logic_error);
}

TEST_F(GmFixture, EnvelopeDeliversEveryInnerFrame) {
  // Majority of senders, each coalescing full frames of two distinct group
  // messages to one receiver in the same tick: both messages reach
  // acceptance out of one wire message per sender.
  make_receiver();
  std::vector<std::unique_ptr<SendCoalescer>> coalescers;
  for (NodeId s : {1, 2, 3}) {
    auto c = std::make_unique<SendCoalescer>(net::Transport(net, s), rng);
    for (const Bytes& body : {Bytes{0x01}, Bytes{0x02}}) {
      c->enqueue(receiver, net::MsgType::kGroupMsgFull, full_frame(content_id(50, body), body));
    }
    coalescers.push_back(std::move(c));
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].second, Bytes{0x01});
  EXPECT_EQ(delivered[1].second, Bytes{0x02});
}

TEST_F(GmFixture, EnvelopeInnerFramesDeliverZeroCopy) {
  // A hand-built envelope sent from a majority: the delivered body must be
  // a slice of the envelope wire frame, not a copy.
  make_receiver();
  ByteWriter w;
  w.varint(1);
  w.u16(static_cast<std::uint16_t>(net::MsgType::kGroupMsgFull));
  const Bytes body{0xAB, 0xCD, 0xEF};
  net::Payload inner = full_frame(content_id(50, body), body);
  w.bytes(inner.data(), inner.size());
  net::Payload envelope(w.take());
  for (NodeId s : {1, 2, 3}) {
    net::Transport t(net, s);
    t.send(receiver, net::MsgType::kGroupMsgEnvelope, envelope);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  const net::Payload& p = delivered[0].second;
  EXPECT_EQ(p, (Bytes{0xAB, 0xCD, 0xEF}));
  EXPECT_GE(p.data(), envelope.data());
  EXPECT_LE(p.data() + p.size(), envelope.data() + envelope.size());
}

TEST_F(GmFixture, MalformedEnvelopesAreDropped) {
  make_receiver();
  net::Payload inner = full_frame(content_id(50, Bytes{0x55}), Bytes{0x55});
  auto send_all = [&](const net::Payload& wire) {
    for (NodeId s : {1, 2, 3}) {
      net::Transport t(net, s);
      t.send(receiver, net::MsgType::kGroupMsgEnvelope, wire);
    }
    sim.run();
  };

  {  // nested envelope type: rejected (envelopes do not recurse)
    ByteWriter w;
    w.varint(1);
    w.u16(static_cast<std::uint16_t>(net::MsgType::kGroupMsgEnvelope));
    w.bytes(inner.data(), inner.size());
    send_all(net::Payload(w.take()));
  }
  {  // zero frames: rejected
    ByteWriter w;
    w.varint(0);
    send_all(net::Payload(w.take()));
  }
  {  // frame count above the cap: rejected before decoding the frames
    ByteWriter w;
    w.varint(SendCoalescer::kMaxFramesPerEnvelope + 1);
    w.u16(static_cast<std::uint16_t>(net::MsgType::kGroupMsgFull));
    w.bytes(inner.data(), inner.size());
    send_all(net::Payload(w.take()));
  }
  {  // truncated tail: the whole envelope is suspect, nothing delivers
    ByteWriter w;
    w.varint(2);
    w.u16(static_cast<std::uint16_t>(net::MsgType::kGroupMsgFull));
    w.bytes(inner.data(), inner.size());
    send_all(net::Payload(w.take()));
  }
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(rx->pending_count(), 0u);
}

TEST_F(GmFixture, EntriesAreFreedAtDeliveryOrAfterTtl) {
  make_receiver();
  rx->set_ttl(seconds(5.0));
  send_from_all(Bytes{0x11}, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 0u);  // freed at delivery
  // Duplicates within the TTL are dropped and mint no entry...
  send_from_all(Bytes{0x11}, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 0u);
  // ...and so are duplicates past it.
  sim.run_until(sim.now() + seconds(6.0));
  send_from_all(Bytes{0x11}, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 0u);

  // An undelivered id (one member's full copy, short of a majority) stays
  // buffered for one TTL after its first frame, then is swept on the next
  // arrival.
  const TimeMicros first = sim.now();
  send_group(1, 50, {receiver}, net::Payload(Bytes{0x22}));
  sim.run();
  EXPECT_EQ(rx->pending_count(), 1u);
  sim.run_until(first + seconds(4.0));
  send_group(1, 50, {receiver}, net::Payload(Bytes{0x22}));
  sim.run();
  EXPECT_EQ(rx->pending_count(), 1u) << "expired before its TTL";
  sim.run_until(first + seconds(6.0));
  send_group(1, 50, {receiver}, net::Payload(Bytes{0x33}));
  sim.run();
  EXPECT_EQ(rx->pending_count(), 1u);  // only the newer undelivered id remains
  EXPECT_EQ(delivered.size(), 1u);
}

// An entry lives one TTL from its first frame. A frame that arrives later
// finds no entry, as if the entry had been swept at once: the votes cast
// before the TTL do not count toward a majority after it.
TEST_F(GmFixture, AVoteCastBeforeTheTtlDoesNotCountAfterIt) {
  known[50] = {1, 2, 3};  // a majority is 2
  make_receiver();
  rx->set_ttl(seconds(1.0));
  const net::Payload body(Bytes{0x7c});
  send_group(1, 50, {receiver}, body);
  sim.run();
  sim.run_until(sim.now() + seconds(2.0));
  send_group(2, 50, {receiver}, body);
  sim.run();
  EXPECT_TRUE(delivered.empty()) << "a vote cast before the TTL counted after it";
  send_group(3, 50, {receiver}, body);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// An id whose entry expired opens a fresh entry on its next frame. A sweep
// of expired entries must not erase the fresh one.
TEST_F(GmFixture, AStaleGcItemDoesNotEraseANewerEntryForTheSameId) {
  make_receiver();  // a majority is 3
  rx->set_ttl(seconds(1.0));
  const Bytes content{0x5e};
  const net::Payload body(content);
  send_group(1, 50, {receiver}, body);  // its entry expires after 1 s
  sim.run();
  sim.run_until(sim.now() + seconds(2.0));
  // Past the TTL: member 2's frame opens a fresh entry for the same id.
  send_group(2, 50, {receiver}, body);
  sim.run();
  // A new id opens an entry too, with or without a sweep.
  send_group(1, 50, {receiver}, net::Payload(Bytes{0x5f}));
  sim.run();
  // Within the fresh entry's TTL, two more members complete its majority.
  send_group(3, 50, {receiver}, body);
  send_group(4, 50, {receiver}, body);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u) << "a sweep erased the fresh entry";
  EXPECT_EQ(delivered[0].first, content_id(50, content));
}

// Opening an entry sweeps the expired ones only once half a TTL has passed
// since the last sweep. Each entry here is one member's full copy, short
// of a majority, so only expiry or a sweep ends it.
TEST_F(GmFixture, OpeningAnEntrySweepsAtMostOncePerHalfTtl) {
  make_receiver();
  rx->set_ttl(seconds(2.0));  // a sweep at most once a second
  auto open_at = [&](double at, std::uint8_t tag) {
    sim.run_until(seconds(at));
    send_group(1, 50, {receiver}, net::Payload(Bytes{0x5b, tag}));
    sim.run();
  };
  open_at(0.0, 1);  // expires at 2.0 s
  open_at(1.3, 2);  // 1.3 s after the start: sweeps, and nothing has expired
  ASSERT_EQ(rx->pending_count(), 2u);
  open_at(2.1, 3);  // 0.8 s after that sweep: the first entry has expired...
  EXPECT_EQ(rx->pending_count(), 3u) << "swept sooner than half a TTL after the last sweep";
  open_at(2.4, 4);  // ...and 1.1 s after it, a sweep erases the first entry
  EXPECT_EQ(rx->pending_count(), 3u) << "no sweep half a TTL after the last";
  EXPECT_TRUE(delivered.empty());
}

// A flood of fresh ids at a known rate: the table holds at most the
// entries opened within 1.5 TTLs, and at least the live ones.
TEST_F(GmFixture, FloodKeepsEntriesWithinOneAndAHalfTtls) {
  make_receiver();
  rx->set_ttl(seconds(2.0));
  // One fresh id per 100 ms: 20 live entries per TTL, 30 ids opened
  // within 1.5 TTLs, 31 when arrival jitter shortens the span.
  std::size_t most = 0;
  for (std::uint8_t n = 0; n < 200; ++n) {
    send_group(1, 50, {receiver}, net::Payload(Bytes{0xf1, n}));
    sim.run();
    if (n >= 20) {
      EXPECT_GE(rx->pending_count(), 20u) << "a live entry went";
    }
    most = std::max(most, rx->pending_count());
    sim.run_until(sim.now() + millis(100));
  }
  EXPECT_LE(most, 31u);
  EXPECT_TRUE(delivered.empty());
}

TEST_F(GmFixture, UndeliveredFloodFromByzantineSenderIsBounded) {
  make_receiver();
  rx->set_ttl(seconds(2.0));
  // One Byzantine member of a known group mints a fresh id per tick and
  // sends digest-only frames that can never deliver (no full copy, no
  // majority). Undelivered buffering must expire after its TTL —
  // otherwise this grows the entry table by one entry per id forever.
  net::Transport t(net, 1);
  for (std::uint64_t n = 0; n < 300; ++n) {
    const Bytes body{static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)};
    ByteWriter w;
    w.u64(50);
    w.u64(content_id(50, body).seq);
    crypto::Digest d = crypto::sha256(body);
    w.raw(d.data(), d.size());
    t.send(receiver, net::MsgType::kGroupMsgDigest, w.take());
    sim.run_until(sim.now() + millis(100));
  }
  sim.run();
  EXPECT_TRUE(delivered.empty());
  // 2 s TTL at one fresh id per 100 ms: ~20 live entries, never 300.
  EXPECT_LT(rx->pending_count(), 40u);
}

TEST_F(GmFixture, PendingStaysBoundedUnderSustainedBroadcast) {
  make_receiver();
  rx->set_ttl(seconds(2.0));
  constexpr std::uint8_t kRounds = 200;
  for (std::uint8_t n = 0; n < kRounds; ++n) {
    const net::Payload body(Bytes{0x33, n});  // distinct content per round
    for (NodeId s : group_a) send_group(s, 50, {receiver}, body);
    sim.run_until(sim.now() + millis(100));
  }
  sim.run();
  EXPECT_EQ(delivered.size(), std::size_t{kRounds});
  // Every id delivered, and a delivered id keeps no entry.
  EXPECT_EQ(rx->pending_count(), 0u);
}

// The delivered set rotates only where it grows, at a delivery. Frames that
// deliver nothing new, for three windows on end, leave it as it was, so a
// late copy of content delivered before them is still dropped.
TEST_F(GmFixture, ASpellWithoutDeliveriesKeepsTheDeliveredSet) {
  make_receiver();
  rx->set_ttl(seconds(1.0));  // 8 s dedup window
  const Bytes body{0xd1, 0x5e};
  send_from_all(body, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  // 25 s of frames from one member, each short of a majority.
  for (std::uint8_t n = 0; n < 50; ++n) {
    send_group(1, 50, {receiver}, net::Payload(Bytes{0x5b, n}));
    sim.run_until(sim.now() + millis(500));
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  send_from_all(body, group_a);  // the late copy, from a majority
  sim.run();
  EXPECT_EQ(delivered.size(), 1u) << "a late copy was delivered again";
}

TEST_F(GmFixture, DeliveredIdSetIsBoundedByTwoWindows) {
  make_receiver();
  rx->set_ttl(seconds(1.0));  // 8 s dedup window
  constexpr std::uint64_t kRounds = 300;  // 30 s: more than three windows
  for (std::uint64_t n = 0; n < kRounds; ++n) {
    const net::Payload body(
        Bytes{0x44, static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)});
    for (NodeId s : group_a) send_group(s, 50, {receiver}, body);
    sim.run_until(sim.now() + millis(100));
  }
  sim.run();
  EXPECT_EQ(delivered.size(), kRounds);
  // One delivery per 100 ms: at most two 8 s windows' worth, never 300.
  EXPECT_LE(rx->delivered_dedup_count(), 170u);
}

// ---------------------------------------------------------------------------
// Vouch-path digest caching: SHA-256 at most once per frame, regardless of
// how many receivers, relays, or digest-rank senders touch it.
// ---------------------------------------------------------------------------

TEST_F(GmFixture, SameFrameVouchedAtManyReceiversHashesOnce) {
  make_receiver();
  GroupMessageReceiver rx2(net::Transport(net, 101), members_of(),
                           [&](const GroupMessageId&, net::Payload) {});

  // Member 1 has rank 0 of 5: a full-payload sender. One frozen wire frame
  // fans out to both receivers. Preparing it hashes the payload once for
  // the id; the count starts after that.
  net::Payload payload(Bytes(512, 0xEE));
  SendCoalescer c(net::Transport(net, 1), rng);
  const PreparedGroupMessage msg(group_a, 1, 50, payload);
  const std::uint64_t base = crypto::sha256_digest_count();
  msg.send_to(c, {receiver, 101});
  c.flush();
  sim.run();
  // Both receivers vouched for the SAME frame slice; the digest memo on
  // the frame's control block means exactly one SHA-256 ran.
  EXPECT_EQ(crypto::sha256_digest_count(), base + 1);
}

TEST_F(GmFixture, FullGroupSendHashesOncePerFrameAndOncePerSharedPayload) {
  make_receiver();
  std::vector<net::Payload> got2;
  GroupMessageReceiver rx2(net::Transport(net, 101), members_of(),
                           [&](const GroupMessageId&, net::Payload p) {
                             got2.push_back(std::move(p));
                           });

  // All five members send the same frozen payload to both receivers: ranks
  // 0-2 send full frames (one frozen frame each), ranks 3-4 send digests
  // derived from the SHARED payload buffer.
  net::Payload payload(Bytes(512, 0xEE));
  const std::uint64_t base = crypto::sha256_digest_count();
  for (NodeId s : group_a) send_group(s, 50, {receiver, 101}, payload);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_EQ(delivered[0].second, payload);
  // 3 full frames hashed once each (both receivers share each frame's
  // memo) + 1 digest for the shared payload reused by both digest-rank
  // senders. The uncached path would hash 3*2 (vouches) + 2 (senders) = 8.
  EXPECT_EQ(crypto::sha256_digest_count(), base + 4);
}

// ---------------------------------------------------------------------------
// Random walks
// ---------------------------------------------------------------------------

TEST(WalkState, StartMintsBulkRandomness) {
  Rng rng(3);
  auto w = WalkState::start(WalkId{5, 9}, WalkPurpose::kSample, 12, Bytes{1}, rng);
  EXPECT_EQ(w.randomness.size(), 12u);
  EXPECT_EQ(w.step, 0u);
  EXPECT_FALSE(w.done());
  EXPECT_EQ(w.path, std::vector<GroupId>{5});
}

TEST(WalkState, EncodeDecodeRoundTrip) {
  Rng rng(4);
  auto w = WalkState::start(WalkId{1, 2}, WalkPurpose::kJoinPlacement, 7, Bytes{9, 8}, rng);
  w.step = 3;
  w.path = {1, 4, 6};
  auto d = WalkState::decode(w.encode());
  EXPECT_EQ(d.id, w.id);
  EXPECT_EQ(d.purpose, WalkPurpose::kJoinPlacement);
  EXPECT_EQ(d.rwl, 7u);
  EXPECT_EQ(d.step, 3u);
  EXPECT_EQ(d.randomness, w.randomness);
  EXPECT_EQ(d.payload, w.payload);
  EXPECT_EQ(d.path, w.path);
}

TEST(WalkState, DecodeRejectsCorruptStates) {
  Rng rng(5);
  auto w = WalkState::start(WalkId{1, 2}, WalkPurpose::kSample, 5, {}, rng);
  Bytes wire = w.encode();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(WalkState::decode(wire), SerdeError);
}

TEST(WalkState, PickLinkIsDeterministic) {
  Rng rng(6);
  auto w = WalkState::start(WalkId{1, 1}, WalkPurpose::kSample, 4, {}, rng);
  EXPECT_EQ(w.pick_link(10), w.pick_link(10));
  w.step = 1;
  // Different step uses a different pre-minted number (almost surely
  // different index for a large modulus).
  EXPECT_EQ(w.pick_link(1), 0u);
}

TEST(WalkState, ExhaustedWalkThrows) {
  Rng rng(7);
  auto w = WalkState::start(WalkId{1, 1}, WalkPurpose::kSample, 2, {}, rng);
  w.step = 2;
  EXPECT_TRUE(w.done());
  EXPECT_THROW(w.pick_link(3), std::logic_error);
}

struct CertFixture : ::testing::Test {
  crypto::KeyStore keys{42};
  WalkId id{10, 77};
  std::map<GroupId, std::vector<NodeId>> groups{
      {10, {1, 2, 3}}, {11, {4, 5, 6}}, {12, {7, 8, 9}}};

  HopCert make_cert(GroupId g, GroupId next, std::uint32_t step, std::size_t signer_count) {
    HopCert h;
    h.group = g;
    h.next_group = next;
    h.step = step;
    for (std::size_t i = 0; i < signer_count; ++i) {
      NodeId n = groups[g][i];
      h.sigs.emplace_back(n, sign_hop(id, step, g, next, keys.key_of(n)));
    }
    return h;
  }

  auto members_fn() {
    return [this](GroupId g) -> std::optional<std::vector<NodeId>> {
      auto it = groups.find(g);
      if (it == groups.end()) return std::nullopt;
      return it->second;
    };
  }
};

TEST_F(CertFixture, ValidChainVerifies) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  c.hops.push_back(make_cert(11, 12, 1, 2));
  auto selected = c.verify(id, 10, members_fn(), keys);
  ASSERT_TRUE(selected.has_value());
  EXPECT_EQ(*selected, 12u);
}

TEST_F(CertFixture, ChainRoundTripsThroughWire) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  auto decoded = CertChain::decode(c.encode());
  EXPECT_EQ(decoded.hops.size(), 1u);
  EXPECT_TRUE(decoded.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsInsufficientSigners) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 1));  // 1 of 3 < majority
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsBrokenLinkage) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  c.hops.push_back(make_cert(12, 11, 1, 2));  // hop from the wrong group
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsForgedSignature) {
  CertChain c;
  HopCert h = make_cert(10, 11, 0, 2);
  h.sigs[0].second[0] ^= 0x01;
  c.hops.push_back(h);
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsDuplicateSigners) {
  CertChain c;
  HopCert h = make_cert(10, 11, 0, 1);
  h.sigs.push_back(h.sigs[0]);  // same node twice
  c.hops.push_back(h);
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsWrongWalkId) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  WalkId other{10, 78};
  EXPECT_FALSE(c.verify(other, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, VerificationCostGrowsWithChain) {
  CertChain c1, c3;
  c1.hops.push_back(make_cert(10, 11, 0, 2));
  c3.hops.push_back(make_cert(10, 11, 0, 2));
  c3.hops.push_back(make_cert(11, 12, 1, 2));
  c3.hops.push_back(make_cert(12, 10, 2, 2));
  EXPECT_LT(c1.verification_count(), c3.verification_count());
}

TEST(WalkUniformity, LongWalksPassChiSquare) {
  Rng rng(99);
  auto counts = simulate_walk_endpoints(32, 6, 12, 32000, rng);
  EXPECT_TRUE(passes_uniformity_test(counts, 0.99));
}

TEST(WalkUniformity, OneHopWalksAreNotUniform) {
  Rng rng(100);
  // A single hop can only reach direct neighbors: wildly non-uniform.
  auto counts = simulate_walk_endpoints(64, 3, 1, 64000, rng);
  EXPECT_FALSE(passes_uniformity_test(counts, 0.99));
}

TEST(WalkUniformity, OptimalLengthGrowsWithGroupCount) {
  Rng rng(101);
  std::size_t small = optimal_walk_length(8, 4, 0.99, 8000, 20, rng);
  std::size_t large = optimal_walk_length(512, 4, 0.99, 8000, 20, rng);
  EXPECT_LE(small, large);
  EXPECT_GE(large, 4u);
}

TEST(WalkUniformity, DenserGraphNeedsShorterWalks) {
  Rng rng(102);
  std::size_t sparse = optimal_walk_length(256, 2, 0.99, 8000, 25, rng);
  std::size_t dense = optimal_walk_length(256, 10, 0.99, 8000, 25, rng);
  EXPECT_LE(dense, sparse);
}

// ---------------------------------------------------------------------------
// Gossip policies
// ---------------------------------------------------------------------------

NeighborRefs three_cycle_neighbors() {
  NeighborRefs refs;
  for (const NeighborRef& n : std::vector<NeighborRef>{
           {100, 0, 0}, {101, 0, 1}, {102, 1, 0}, {103, 1, 1}, {104, 2, 0}, {105, 2, 1}}) {
    refs.push_back(n);
  }
  return refs;
}

TEST(Gossip, FloodRelaysEverywhere) {
  auto r = choose_relays(forward_flood(), BroadcastId{1, 1}, {}, three_cycle_neighbors());
  EXPECT_EQ(r.size(), 6u);
}

TEST(Gossip, CyclePolicyRestrictsButKeepsMandatoryLink) {
  auto r = choose_relays(forward_cycles({1}), BroadcastId{1, 1}, {}, three_cycle_neighbors());
  // Cycle 1 both directions + the mandatory cycle-0 successor.
  ASSERT_EQ(r.size(), 3u);
  std::set<GroupId> targets;
  for (const auto& n : r) targets.insert(n.group);
  EXPECT_TRUE(targets.contains(100));  // mandatory deterministic link
  EXPECT_TRUE(targets.contains(102));
  EXPECT_TRUE(targets.contains(103));
}

TEST(Gossip, NonePolicyStillGuaranteesDelivery) {
  auto r = choose_relays(forward_none(), BroadcastId{1, 1}, {}, three_cycle_neighbors());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].group, 100u);
  EXPECT_EQ(r[0].cycle, 0u);
  EXPECT_EQ(r[0].direction, 0);
}

TEST(Gossip, RandomPolicyIsDeterministicPerBroadcast) {
  auto n = three_cycle_neighbors();
  auto r1 = choose_relays(forward_random(0.5, 7), BroadcastId{3, 9}, {}, n);
  auto r2 = choose_relays(forward_random(0.5, 7), BroadcastId{3, 9}, {}, n);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i].group, r2[i].group);
}

TEST(Gossip, RandomPolicyVariesAcrossBroadcasts) {
  const ForwardFn f = forward_random(0.5, 7);
  auto n = three_cycle_neighbors();
  std::set<std::size_t> sizes;
  for (std::uint64_t s = 0; s < 32; ++s) {
    sizes.insert(choose_relays(f, BroadcastId{1, s}, {}, n).size());
  }
  EXPECT_GT(sizes.size(), 1u);
}

// ---------------------------------------------------------------------------
// TwoGenerationSet: the receiver's record of delivered content
// ---------------------------------------------------------------------------

TEST(TwoGenerationSet, IsBoundedByTwoPeriods) {
  // The record gates delivery and relaying, so it may forget an id only
  // after a full period; it must not grow with the node's lifetime.
  const DurationMicros period = kDedupWindowTtls * kGroupMessageTtl;
  TwoGenerationSet<std::uint64_t> set;
  auto first_sighting = [&set, period](std::uint64_t id, TimeMicros now) {
    set.rotate(now, period);
    return set.insert(id);
  };
  // Ten fresh ids per period, for six periods.
  const std::uint64_t per_period = 10;
  std::size_t max_count = 0;
  for (std::uint64_t s = 0; s < 6 * per_period; ++s) {
    TimeMicros now = static_cast<TimeMicros>(s) * period / static_cast<TimeMicros>(per_period);
    EXPECT_TRUE(first_sighting(s, now)) << "id " << s;
    max_count = std::max(max_count, set.size());
  }
  EXPECT_LE(max_count, 2 * per_period);
  // Inserted more than two periods ago: forgotten.
  EXPECT_FALSE(set.contains(0));

  // An id seen again within one period of its first sighting is still not
  // a first sighting, even with a rotation in between.
  const TimeMicros t = 6 * period - period / 20;  // just before a rotation
  EXPECT_TRUE(first_sighting(1001, t));
  EXPECT_TRUE(first_sighting(1002, 6 * period));  // rotates
  EXPECT_FALSE(first_sighting(1001, t + period - 1));
  EXPECT_TRUE(set.contains(1001));
}

}  // namespace
}  // namespace atum::overlay
