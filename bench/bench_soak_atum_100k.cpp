// Node-level soak, 100k nodes by default: where bench_soak_100k drives
// joins through the vgroup-granularity cluster simulator, this one runs the
// REAL per-node runtime (AtumSystem/AtumNode) — SMR engines, heartbeat
// timers, group messages, gossip relays — at the scale the per-frame digest
// cache and the zero-copy PBFT/AShare tails were built for, four orders of
// magnitude above the unit tests. A node count argument scales it down for
// smoke runs. Phases:
//
//   deploy — instant deployment of N nodes into vgroups + H-graph;
//   beat   — two heartbeat periods across the whole population
//            (every node pings its vgroup peers; nobody may be evicted);
//   bcast  — broadcasts that must reach every node through SMR + gossip,
//            sharing frozen payload buffers AND cached per-frame digests
//            along the way;
//   churn  — node-level joins (full §3.3.2 protocol: contact, vgroup
//            agreement, placement walk, SMR reconfig, state sync) and
//            leaves.
//
// The bench FAILS (non-zero exit) if protocol guarantees or the memory /
// hashing bounds don't hold: every broadcast delivered everywhere, no
// spurious evictions, joins/leaves complete, simulator arena bounded by
// peak concurrency, network flow table bounded by active nodes, and — the
// PR 3 invariant — SHA-256 computations stay far below message count
// (without the per-frame digest memo every delivered full frame would be
// hashed again at every receiver).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_soak_common.h"
#include "core/atum.h"
#include "crypto/sha256.h"
#include "net/network.h"

using namespace atum;
using core::AtumSystem;

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

std::size_t joined_count(AtumSystem& sys) {
  std::size_t n = 0;
  for (NodeId id : sys.node_ids()) {
    if (sys.node(id).joined()) ++n;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  // Scaled-down runs for smoke testing (CI runs 20k): bench_soak_atum_100k [nodes].
  std::size_t target_nodes = 100'000;
  if (argc > 1) {
    char* end = nullptr;
    target_nodes = static_cast<std::size_t>(std::strtoull(argv[1], &end, 10));
    if (end == argv[1] || *end != '\0' || target_nodes < 200) {
      std::fprintf(stderr, "usage: %s [nodes >= 200]\n", argv[0]);
      return 2;
    }
  }
  bool ok = true;

  const core::Params p = soak_bench::soak_params();
  AtumSystem sys(p, net::NetworkConfig::datacenter(), /*seed=*/0x100a);

  // ---------------------------------------------------------------- deploy
  const std::vector<NodeId> ids = soak_bench::deploy_soak(sys, target_nodes);
  std::uint64_t delivered_total = 0;
  for (NodeId i : ids) {
    sys.node(i).set_deliver(
        [&delivered_total](NodeId, const net::Payload&) { ++delivered_total; });
  }
  std::map<GroupId, std::vector<NodeId>> groups = sys.group_map();
  std::size_t covered = 0;
  for (const auto& [g, members] : groups) covered += members.size();
  std::printf("deploy: %zu nodes in %zu vgroups\n", covered, groups.size());
  ok &= check(covered == target_nodes, "deploy covered every node");

  // ------------------------------------------------------------------ beat
  sys.simulator().run_until(sys.simulator().now() + 2 * p.heartbeat_period);
  std::printf("beat:   2 heartbeat periods, %llu events, %llu msgs, flow table %zu\n",
              static_cast<unsigned long long>(sys.simulator().executed_events()),
              static_cast<unsigned long long>(sys.network().stats().messages_sent),
              sys.network().flow_count());
  ok &= check(joined_count(sys) == target_nodes, "beat: no spurious evictions");
  ok &= check(sys.network().flow_count() <= target_nodes + 1024,
              "beat: flow table bounded by active nodes");

  // ----------------------------------------------------------------- bcast
  constexpr std::size_t kBroadcasts = 3;
  const Bytes frame(128, 0x5a);
  const std::uint64_t msgs_before = sys.network().stats().messages_sent;
  const std::uint64_t hashes_before = crypto::sha256_digest_count();
  for (std::size_t b = 0; b < kBroadcasts; ++b) {
    NodeId origin = static_cast<NodeId>((b * 997) % target_nodes);
    sys.node(origin).broadcast(frame);
    sys.simulator().run_until(sys.simulator().now() + seconds(60.0));
  }
  const std::uint64_t bcast_msgs = sys.network().stats().messages_sent - msgs_before;
  const std::uint64_t bcast_hashes = crypto::sha256_digest_count() - hashes_before;
  std::printf("bcast:  %zu broadcasts, %llu deliveries (want %zu), %llu msgs, "
              "%llu sha256 (%.3f per msg), sim %.1fs\n",
              kBroadcasts, static_cast<unsigned long long>(delivered_total),
              kBroadcasts * target_nodes, static_cast<unsigned long long>(bcast_msgs),
              static_cast<unsigned long long>(bcast_hashes),
              static_cast<double>(bcast_hashes) / static_cast<double>(bcast_msgs),
              to_seconds(sys.simulator().now()));
  ok &= check(delivered_total == kBroadcasts * target_nodes,
              "bcast: every broadcast delivered at every node exactly once");
  // Per-frame digest caching: hashes must track FRAMES (one per relay
  // fan-out), not messages. Without the memo every full-frame delivery
  // would hash at the receiver and this ratio would sit near 1.
  ok &= check(bcast_hashes * 2 < bcast_msgs,
              "bcast: SHA-256 count stays below half the message count "
              "(per-frame digest cache active)");

  // ----------------------------------------------------------------- churn
  constexpr std::size_t kJoiners = 8;
  constexpr std::size_t kLeavers = 8;
  for (std::size_t j = 0; j < kJoiners; ++j) {
    NodeId fresh = static_cast<NodeId>(target_nodes + j);
    NodeId contact = static_cast<NodeId>((j * 101) % target_nodes);
    sys.add_node(fresh).join(contact);
    sys.simulator().run_until(sys.simulator().now() + seconds(45.0));
    if (!sys.node(fresh).joined()) {
      std::printf("join %zu via contact %llu did not complete\n", j,
                  static_cast<unsigned long long>(contact));
      ok = false;
    }
  }
  std::size_t before_leave = joined_count(sys);
  for (std::size_t l = 0; l < kLeavers; ++l) {
    sys.node(static_cast<NodeId>((l * 211 + 5) % target_nodes)).leave();
    sys.simulator().run_until(sys.simulator().now() + seconds(20.0));
  }
  std::size_t after_leave = joined_count(sys);
  std::printf("churn:  %zu joins, %zu leaves (joined %zu -> %zu), sim %.1fs\n", kJoiners,
              kLeavers, before_leave, after_leave, to_seconds(sys.simulator().now()));
  ok &= check(before_leave == target_nodes + kJoiners, "churn: all joins landed");
  ok &= check(after_leave == before_leave - kLeavers, "churn: all leaves completed");

  // ---------------------------------------------------------------- memory
  std::printf("memory: arena %zu slots, queue %zu entries, %llu events executed, "
              "flow table %zu\n",
              sys.simulator().slot_count(), sys.simulator().heap_size(),
              static_cast<unsigned long long>(sys.simulator().executed_events()),
              sys.network().flow_count());
  ok &= check(sys.simulator().slot_count() < sys.simulator().executed_events() / 4 + 4096,
              "memory: slot arena tracks peak concurrency, not history");
  ok &= check(sys.network().flow_count() <= target_nodes + kJoiners + 1024,
              "memory: flow table bounded");

  std::printf("%s\n", ok ? "soak PASSED" : "soak FAILED");
  return ok ? 0 : 1;
}
