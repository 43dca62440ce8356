// Microbenchmarks for the substrates (google-benchmark): crypto, wire
// serialization, the event queue, H-graph maintenance, and walk stepping.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "common/binomial.h"
#include "common/rng.h"
#include "common/serde.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "overlay/gossip.h"
#include "overlay/group_message.h"
#include "overlay/hgraph.h"
#include "overlay/random_walk.h"
#include "sim/simulator.h"
#include "smr/pbft.h"

using namespace atum;

// SHA-256 on the kernel this CPU dispatches to, and on the portable kernel
// for the ratio. 1297 bytes is the ops region of a 16-op batch of 64-byte
// ops: PBFT hashes it as the batch digest and again, behind the previous
// state digest, as each replica folds the executed batch.
static void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1297)->Arg(4096)->Arg(1 << 20);

// The portable kernel over as many blocks as a full hash of the same
// length compresses, padding included; block content does not change the
// timing.
static void BM_Sha256Portable(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const Bytes blocks((len + 9 + 63) / 64 * 64, 0xAB);
  for (auto _ : state) {
    std::array<std::uint32_t, 8> h = crypto::detail::kInitialState;
    crypto::detail::compress_portable(h, blocks.data(), blocks.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1297)->Arg(4096)->Arg(1 << 20);

static void BM_HmacSign(benchmark::State& state) {
  crypto::KeyStore ks(1);
  const crypto::SigningKey& key = ks.key_of(7);
  Bytes msg(256, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_HmacSign);

static void BM_SerdeRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    ByteWriter w;
    for (int i = 0; i < 16; ++i) {
      w.u64(static_cast<std::uint64_t>(i));
      w.varint(static_cast<std::uint64_t>(i * 1000));
    }
    ByteReader r(w.data());
    std::uint64_t sum = 0;
    for (int i = 0; i < 16; ++i) {
      sum += r.u64();
      sum += r.varint();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_SerdeRoundTrip);

// The event queue under a delivery-shaped load. range(0) chains of events
// stay pending, one event each: every 50th chain is a timer that re-arms
// 5-10 s ahead, and the others are deliveries that re-arm 0-2 ms ahead,
// bcast_steady's spread under receiver ingress queueing (49% under 1 ms,
// 51% at 1-2 ms). After warm-up 980 of 1000 and 19,600 of 20,000 pending
// events are due within the queue's 4096 us near-future ring, as in
// bcast_steady, which peaks at 19,205 pending events. Each closure captures
// 64 bytes, as SimNetwork's delivery closure does, so it stays in
// EventFn's inline storage. One iteration fires 1000 events.
namespace {
struct DeliveryMix {
  sim::Simulator sim;
  Rng rng{0x51u};
  std::uint64_t fired = 0;
  std::uint64_t chains = 0;

  void add_chain() { schedule_next(chains++ % 50 == 0); }

  void schedule_next(bool timer) {
    const DurationMicros delay =
        timer ? rng.next_in(seconds(5.0), seconds(10.0)) : rng.next_in(0, 2000);
    std::array<std::uint64_t, 7> pad{};
    pad[0] = 1;
    pad[1] = timer ? 1 : 0;
    sim.schedule_after(delay, [this, pad] {
      fired += pad[0];
      schedule_next(pad[1] != 0);
    });
  }
};
}  // namespace

static void BM_SimulatorThroughput(benchmark::State& state) {
  DeliveryMix mix;
  for (int64_t i = 0; i < state.range(0); ++i) mix.add_chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.sim.run(1000));
  }
  benchmark::DoNotOptimize(mix.fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorThroughput)->Arg(1000)->Arg(20000);

// Arm and cancel one timer over range(0) delivery-shaped pending events.
// range(1) is the timer's delay in us: 0 is the coalescer's
// schedule_after(0) flush, which lands in the queue's near-future ring and
// is unlinked on cancel; 5000 is PBFT's 5 ms batch timer, which lands in
// the heap and leaves a stale entry for compaction to sweep.
static void BM_SimulatorTimerCancel(benchmark::State& state) {
  DeliveryMix mix;
  for (int64_t i = 0; i < state.range(0); ++i) mix.add_chain();
  const DurationMicros delay = state.range(1);
  for (auto _ : state) {
    const sim::EventId timer = mix.sim.schedule_after(delay, [] {});
    benchmark::DoNotOptimize(timer);
    mix.sim.cancel(timer);
  }
  benchmark::DoNotOptimize(mix.sim.heap_size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorTimerCancel)->ArgsProduct({{1000, 20000}, {0, 5000}});

// Group broadcast fan-out: one 4 KiB payload sent to N recipients through
// the simulated network, then delivered. This is Atum's hot path (every
// group message is sent to every member of the destination vgroup).
namespace {
constexpr std::size_t kFanoutPayloadBytes = 4096;

template <typename SendFn>
void run_fanout_bench(benchmark::State& state, SendFn&& send_one) {
  const auto recipients = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter());
  std::uint64_t delivered = 0;
  for (NodeId n = 1; n <= recipients; ++n) {
    net.attach(n, net::MsgType::kAppData, [&delivered](const net::Message&) { ++delivered; });
  }
  for (auto _ : state) {
    for (NodeId n = 1; n <= recipients; ++n) send_one(net, n);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(recipients * kFanoutPayloadBytes));
}
}  // namespace

// The seed behavior: each recipient gets its own deep copy of the payload.
static void BM_BroadcastFanoutDeepCopy(benchmark::State& state) {
  Bytes payload(kFanoutPayloadBytes, 0xCD);
  run_fanout_bench(state, [&payload](net::SimNetwork& net, NodeId n) {
    net.send(net::Message{0, n, net::MsgType::kAppData, payload});  // freezes a fresh copy
  });
}
BENCHMARK(BM_BroadcastFanoutDeepCopy)->Arg(8)->Arg(64)->Arg(512);

// The overhauled path: freeze once, share the buffer across all recipients.
static void BM_BroadcastFanoutShared(benchmark::State& state) {
  net::Payload payload(Bytes(kFanoutPayloadBytes, 0xCD));
  run_fanout_bench(state, [&payload](net::SimNetwork& net, NodeId n) {
    net.send(net::Message{0, n, net::MsgType::kAppData, payload});
  });
}
BENCHMARK(BM_BroadcastFanoutShared)->Arg(8)->Arg(64)->Arg(512);

// Per-frame digest cache (net::Payload::digest). The cached variant is the
// group-message vouch path after PR 3: one SHA-256 per frame, then memo
// hits. The uncached variant is the old per-call cost for comparison.
static void BM_PayloadDigestUncached(benchmark::State& state) {
  net::Payload p(Bytes(static_cast<std::size_t>(state.range(0)), 0x5f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(p.data(), p.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PayloadDigestUncached)->Arg(128)->Arg(4096);

static void BM_PayloadDigestCached(benchmark::State& state) {
  net::Payload p(Bytes(static_cast<std::size_t>(state.range(0)), 0x5f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.digest());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PayloadDigestCached)->Arg(128)->Arg(4096);

// Vouch fan-out: one 4 KiB frame delivered to N receivers, every receiver
// needs its digest (what GroupMessageReceiver does to vouch). Cached: the
// first receiver hashes, the rest hit the frame memo.
namespace {
template <typename DigestFn>
void run_vouch_bench(benchmark::State& state, DigestFn&& digest_of) {
  const auto recipients = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter());
  std::uint64_t sink = 0;
  for (NodeId n = 1; n <= recipients; ++n) {
    net.attach(n, net::MsgType::kAppData,
               [&](const net::Message& m) { sink += digest_of(m.payload)[0]; });
  }
  for (auto _ : state) {
    net::Payload frame(Bytes(kFanoutPayloadBytes, 0xCD));  // fresh frame per round
    for (NodeId n = 1; n <= recipients; ++n) {
      net.send(net::Message{0, n, net::MsgType::kAppData, frame});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(recipients * kFanoutPayloadBytes));
}
}  // namespace

static void BM_VouchFanoutUncached(benchmark::State& state) {
  run_vouch_bench(state, [](const net::Payload& p) { return crypto::sha256(p.data(), p.size()); });
}
BENCHMARK(BM_VouchFanoutUncached)->Arg(8)->Arg(64);

static void BM_VouchFanoutCached(benchmark::State& state) {
  run_vouch_bench(state, [](const net::Payload& p) { return p.digest(); });
}
BENCHMARK(BM_VouchFanoutCached)->Arg(8)->Arg(64);

// One PBFT group of 4 deciding a backlog of 256 64-byte ops at the given
// batch cap, wall-clock per decided op. batch 1 is classic PBFT; 4 and 16
// show the host-side amortization (fewer messages, fewer digests, fewer
// quorum scans per op) on top of the simulated-time win
// bench_smr_throughput measures. With 1 proposer replica 0 proposes every
// op; with 4 each replica proposes a quarter of them, so batches, pending
// requests and the request ledgers interleave origins.
static void BM_PbftBatchDecide(benchmark::State& state) {
  const auto batch_cap = static_cast<std::size_t>(state.range(0));
  const auto proposers = static_cast<std::size_t>(state.range(1));
  constexpr std::uint64_t kOps = 256;
  std::uint64_t decided_total = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::SimNetwork net(sim, net::NetworkConfig::datacenter(), 0x5417);
    crypto::KeyStore keys(11);
    smr::GroupConfig cfg;
    for (NodeId i = 0; i < 4; ++i) cfg.members.push_back(i);
    smr::PbftOptions opt;
    opt.batch_max_ops = batch_cap;
    opt.view_change_timeout = seconds(60.0);
    std::vector<std::unique_ptr<smr::PbftSmr>> replicas;
    std::uint64_t decided = 0;
    for (NodeId i = 0; i < 4; ++i) {
      auto r = std::make_unique<smr::PbftSmr>(net::Transport(net, i), cfg, keys, opt);
      r->set_decide_handler(
          [&decided](std::uint64_t, NodeId, const net::Payload&) { ++decided; });
      replicas.push_back(std::move(r));
    }
    for (std::uint64_t i = 0; i < kOps; ++i) {
      replicas[i % proposers]->propose(Bytes(64, static_cast<std::uint8_t>(i)));
    }
    sim.run_until(sim.now() + seconds(120.0));
    decided_total += decided;
    for (auto& r : replicas) r->stop();
  }
  benchmark::DoNotOptimize(decided_total);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kOps));
}
BENCHMARK(BM_PbftBatchDecide)
    ->ArgNames({"batch", "proposers"})
    ->ArgsProduct({{1, 4, 16}, {1, 4}});

// Coalesced group-message fan-out: N same-tick frames to each of D
// destinations leave as one envelope per destination instead of N messages
// each. Wall-clock cost of the enqueue + flush + decode round trip. D = 40
// is a relay's fan-out to four neighbor vgroups of ~10 members, where the
// coalescer's per-destination bookkeeping shows.
static void BM_GossipCoalescedSend(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const auto dests = static_cast<NodeId>(state.range(1));
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter(), 0x5417);
  Rng rng(9);
  std::uint64_t delivered = 0;
  for (NodeId d = 1; d <= dests; ++d) {
    for (net::MsgType type : {net::MsgType::kGroupMsgFull, net::MsgType::kGroupMsgEnvelope}) {
      net.attach(d, type, [&delivered](const net::Message&) { ++delivered; });
    }
  }
  overlay::SendCoalescer coalescer(net::Transport(net, 0), rng);
  std::vector<net::Payload> payloads;
  for (std::size_t i = 0; i < frames; ++i) {
    ByteWriter w;
    w.u64(i);  // GroupMessageId-shaped prefix keeps frames distinct
    w.u64(0);
    w.bytes(Bytes(256, static_cast<std::uint8_t>(i)));
    payloads.emplace_back(w.take());
  }
  for (auto _ : state) {
    for (const net::Payload& p : payloads) {
      for (NodeId d = 1; d <= dests; ++d) coalescer.enqueue(d, net::MsgType::kGroupMsgFull, p);
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frames * dests));
}
BENCHMARK(BM_GossipCoalescedSend)
    ->ArgNames({"frames", "dests"})
    ->ArgsProduct({{1, 8, 32}, {1, 40}});

// Group-message acceptance: each member of one or more 10-member vgroups
// sends one frame per id to every receiver over the simulated network, six
// members of each vgroup the full 128-byte payload and four its digest.
// Every vgroup sends the same content, one vgroup after another, as
// neighbor vgroups relay one broadcast. Each receiver is a
// GroupMessageReceiver on its own node that knows every sending vgroup. A
// majority is six, so every id delivers on the first vgroup's sixth frame
// and the rest carry delivered content, which the delivered set drops:
// with one vgroup 4 of 10 frames per id, with four vgroups 34 of 40, near
// the 78.7% of frames that carry delivered content on bcast_steady. With
// one receiver its tables stay in the core's caches; with 1000 they do
// not, which is the regime of a 1000-node system such as bcast_steady.
// Wall-clock per frame, with about 40k frames per iteration at 1000
// receivers (64 fresh ids, or 16 with four vgroups, at one); building the
// frames is not timed. The 50 ms TTL expires entries and rotates the
// delivered sets as simulated time passes.
static void BM_GroupMessageAccept(benchmark::State& state) {
  constexpr std::size_t kMembers = 10;
  constexpr std::size_t kFullSenders = kMembers / 2 + 1;
  constexpr GroupId kFirstGroup = 50;
  constexpr NodeId kFirstReceiver = 100;
  const auto receivers = static_cast<std::size_t>(state.range(0));
  const auto vgroups = static_cast<std::size_t>(state.range(1));
  const std::size_t ids_per_iteration =
      std::clamp<std::size_t>(40'000 / (kMembers * vgroups * receivers), 1, 64 / vgroups);
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter(), 0x5417);
  std::uint64_t delivered = 0;
  // Vgroup g's members are nodes g * kMembers .. g * kMembers + 9.
  std::vector<std::vector<NodeId>> members(vgroups);
  for (std::size_t g = 0; g < vgroups; ++g) {
    for (NodeId m = 0; m < kMembers; ++m) members[g].push_back(g * kMembers + m);
  }
  std::vector<std::unique_ptr<overlay::GroupMessageReceiver>> rx;
  for (std::size_t r = 0; r < receivers; ++r) {
    rx.push_back(std::make_unique<overlay::GroupMessageReceiver>(
        net::Transport(net, kFirstReceiver + r),
        [&members](GroupId g) -> const std::vector<NodeId>* {
          return g >= kFirstGroup && g - kFirstGroup < members.size() ? &members[g - kFirstGroup]
                                                                      : nullptr;
        },
        [&delivered](const overlay::GroupMessageId&, net::Payload) { ++delivered; }));
    rx.back()->set_ttl(millis(50));
  }
  const Bytes body(128, 0x5a);
  std::uint64_t seq = 0;
  // One full and one digest frame per (id, vgroup); the members of each
  // kind share it.
  std::vector<std::pair<net::Payload, net::Payload>> frames(ids_per_iteration * vgroups);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < ids_per_iteration; ++i) {
      Bytes b = body;
      std::memcpy(b.data(), &seq, sizeof seq);  // distinct content per id
      // The id's seq is the content's digest prefix, as every sender's is.
      const crypto::Digest d = crypto::sha256(b);
      for (std::size_t g = 0; g < vgroups; ++g) {
        ByteWriter fw;
        fw.u64(kFirstGroup + g);
        fw.u64(crypto::digest_prefix64(d));
        fw.bytes(b);
        ByteWriter dw;
        dw.u64(kFirstGroup + g);
        dw.u64(crypto::digest_prefix64(d));
        dw.raw(d.data(), d.size());
        frames[i * vgroups + g] = {net::Payload(fw.take()), net::Payload(dw.take())};
      }
      ++seq;
    }
    state.ResumeTiming();
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const auto& [full, digest] = frames[f];
      for (NodeId m = 0; m < kMembers; ++m) {
        net::Transport t(net, members[f % vgroups][m]);
        const bool is_full = m < kFullSenders;
        for (std::size_t r = 0; r < receivers; ++r) {
          t.send(kFirstReceiver + r,
                 is_full ? net::MsgType::kGroupMsgFull : net::MsgType::kGroupMsgDigest,
                 is_full ? full : digest);
        }
      }
    }
    sim.run();
  }
  if (delivered != seq * receivers) state.SkipWithError("an id did not deliver exactly once");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frames.size() * kMembers * receivers));
}
BENCHMARK(BM_GroupMessageAccept)
    ->ArgNames({"receivers", "vgroups"})
    ->ArgsProduct({{1, 1000}, {1, 4}});

// Observability cells (ISSUE 9). The instrumentation contract is "near
// zero when idle": a cached Counter* bump is one relaxed fetch_add, a
// histogram record is two fetch_adds plus the bucket math, and a disabled
// tracer call is one relaxed bool load + branch. These pin those costs.
static void BM_CounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

static void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 32;  // vary the bucket
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

static void BM_TraceDisabled(benchmark::State& state) {
  obs::Tracer tracer;  // default: disabled — the cost every hop pays always
  std::int64_t t = 0;
  for (auto _ : state) {
    tracer.record(++t, 7, obs::TracePoint::kRelay, 0x9e3779b97f4a7c15ULL, 12, 3);
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_TraceDisabled);

static void BM_TraceEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.enable(/*ring_capacity=*/4096);
  std::int64_t t = 0;
  for (auto _ : state) {
    tracer.record(++t, 7, obs::TracePoint::kRelay, 0x9e3779b97f4a7c15ULL, 12, 3);
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_TraceEnabled);

static void BM_HGraphInsert(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(1);
    overlay::HGraph g(5);
    for (GroupId v = 0; v < 256; ++v) {
      if (v == 0) {
        g.add_first(v);
      } else {
        g.insert_random(v, rng);
      }
    }
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_HGraphInsert);

static void BM_WalkEndpoints(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        overlay::simulate_walk_endpoints(128, 5, 10, 10'000, rng));
  }
}
BENCHMARK(BM_WalkEndpoints);

static void BM_BinomialTail(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(binomial_tail_geq(56, 28, 0.06));
  }
}
BENCHMARK(BM_BinomialTail);
