// 100k-node soak: the event engine and message hot path at the ROADMAP's
// target scale. Three phases:
//
//   join   — grows the system to 100k nodes through the vgroup-granularity
//            cluster simulator (full join protocol cost model: walks,
//            agreements, shuffles, splits);
//   bcast  — every vgroup fans one 1 KiB frame out to all of its members
//            and its successor group over the simulated network, sharing
//            ONE frozen Payload buffer per group (the §3.1 send pattern);
//   churn  — 1M heartbeat-timeout cycles (schedule + cancel) across the
//            population, the pattern that made the seed's tombstone set
//            grow without bound.
//
// The bench FAILS (non-zero exit) if simulator memory is not bounded: the
// slot arena must track peak concurrency and the heap must stay within a
// small multiple of live events, regardless of how many events were ever
// scheduled or cancelled.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "group/cluster_sim.h"
#include "net/network.h"
#include "sim/simulator.h"

using namespace atum;

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Scaled-down runs for smoke testing: bench_soak_100k [nodes].
  std::size_t target_nodes = 100'000;
  if (argc > 1) {
    char* end = nullptr;
    target_nodes = static_cast<std::size_t>(std::strtoull(argv[1], &end, 10));
    // Below ~2 vgroups the phase assertions are meaningless.
    if (end == argv[1] || *end != '\0' || target_nodes < 100) {
      std::fprintf(stderr, "usage: %s [nodes >= 100]\n", argv[0]);
      return 2;
    }
  }
  bool ok = true;

  // ------------------------------------------------------------------ join
  sim::Simulator sim;
  group::ClusterSimConfig cfg;
  cfg.gmax = 14;
  cfg.hc = 3;
  cfg.rwl = 6;
  cfg.kind = smr::EngineKind::kAsync;
  cfg.shuffle_enabled = false;  // keep the growth phase about joins
  group::ClusterSim cluster(sim, cfg);
  cluster.bootstrap(0);

  std::size_t completed = 1;
  std::size_t next_node = 1;
  // One outstanding join per free vgroup, reissued as each completes.
  while (completed < target_nodes) {
    std::size_t batch = std::min<std::size_t>(cluster.group_count(), target_nodes - completed);
    for (std::size_t i = 0; i < batch; ++i) {
      cluster.request_join(next_node++, [&completed] { ++completed; });
    }
    sim.run();
  }
  std::printf("join:   %zu nodes in %zu vgroups, sim time %.1fs, %llu events, "
              "queue %zu entries / arena %zu slots\n",
              cluster.node_count(), cluster.group_count(), to_seconds(sim.now()),
              static_cast<unsigned long long>(sim.executed_events()), sim.heap_size(),
              sim.slot_count());
  ok &= check(cluster.node_count() == target_nodes, "all joins completed");
  ok &= check(sim.live_events() == 0, "join phase drained the queue");
  // Arena is bounded by peak concurrent events, far below total executed.
  ok &= check(sim.slot_count() < sim.executed_events() / 4 + 1024,
              "join: slot arena stayed far below event count");

  // ----------------------------------------------------------------- bcast
  net::SimNetwork net(sim, net::NetworkConfig::datacenter(), /*seed=*/7);
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < target_nodes; ++n) {
    net.attach(n, net::MsgType::kAppData, [&delivered](const net::Message&) { ++delivered; });
  }
  const Bytes frame(1024, 0x5a);
  std::uint64_t frames_sent = 0;
  long max_share = 0;
  for (NodeId n = 0; n < target_nodes; ++n) {
    auto gid = cluster.group_of(n);
    if (!gid) continue;
    std::vector<NodeId> members = cluster.members_of(*gid);
    if (members.empty() || members.front() != n) continue;  // one sender per group
    std::vector<NodeId> successor = cluster.members_of(cluster.graph().successor(0, *gid));
    // Freeze once; the whole group + successor fan-out shares the buffer.
    net::Payload payload(frame);
    for (NodeId to : members) {
      net.send(net::Message{n, to, net::MsgType::kAppData, payload});
    }
    for (NodeId to : successor) {
      net.send(net::Message{n, to, net::MsgType::kAppData, payload});
    }
    frames_sent += members.size() + successor.size();
    max_share = std::max(max_share, payload.use_count());
  }
  sim.run();
  std::printf("bcast:  %llu frames from %zu vgroups, %llu delivered, peak %ld-way "
              "buffer sharing, %.1f MB on the wire\n",
              static_cast<unsigned long long>(frames_sent), cluster.group_count(),
              static_cast<unsigned long long>(delivered), max_share,
              static_cast<double>(net.stats().bytes_sent) / 1e6);
  ok &= check(delivered == frames_sent, "every broadcast frame delivered");
  ok &= check(max_share > 10, "fan-out shared one payload buffer");

  // ----------------------------------------------------------------- churn
  // Heartbeat-timeout pattern: every armed timeout is cancelled and re-armed
  // when the next heartbeat lands. With the seed engine each of these 1M
  // cancels left a tombstone behind forever.
  constexpr std::size_t kCycles = 1'000'000;
  const std::size_t window = std::max<std::size_t>(target_nodes / 10, 1);
  // The arena tracks peak concurrency and never shrinks; the broadcast
  // phase above legitimately peaked it at one slot per in-flight frame.
  // Churn must not grow it beyond that high-water mark plus its own window.
  const std::size_t slots_before_churn = sim.slot_count();
  std::vector<sim::EventId> pending(window, 0);
  Rng rng(42);
  // heap_size() counts every queued entry: the heap's, stale ones
  // included, and the near-future ring's.
  std::size_t peak_queue = 0, peak_slots = 0;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < kCycles; ++i) {
    std::size_t slot = i % window;
    sim.cancel(pending[slot]);  // no-op for 0 / already-fired handles
    pending[slot] =
        sim.schedule_after(static_cast<DurationMicros>(1 + rng.next_u64() % 1000),
                           [&fired] { ++fired; });
    if ((i & 0xFF) == 0) sim.run_until(sim.now() + 10);  // let some timeouts fire
    peak_queue = std::max(peak_queue, sim.heap_size());
    peak_slots = std::max(peak_slots, sim.slot_count());
  }
  sim.run();
  std::printf("churn:  %zu schedule/cancel cycles, %llu timeouts fired, peak queue %zu "
              "entries, peak arena %zu slots (live window %zu, pre-churn arena %zu)\n",
              kCycles, static_cast<unsigned long long>(fired), peak_queue, peak_slots, window,
              slots_before_churn);
  ok &= check(peak_slots <= slots_before_churn + 2 * window + 1024,
              "churn: slot arena bounded by live window, not cycle count");
  ok &= check(peak_queue <= 4 * window + slots_before_churn + 1024,
              "churn: queue bounded (stale entries swept)");
  ok &= check(sim.live_events() == 0, "churn phase drained the queue");

  std::printf("%s\n", ok ? "soak PASSED" : "soak FAILED");
  return ok ? 0 : 1;
}
