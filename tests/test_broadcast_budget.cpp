// The heap allocations the broadcast path costs: a node-level system under
// steady broadcast, counted by a global operator new. This binary holds the
// only override, so every allocation of the run is counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "core/atum.h"
#include "core/params.h"
#include "overlay/gossip.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};

}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// All three out of line: inlined into a caller, GCC would take the
// malloc() or free() behind them for a new/delete mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace atum::core {
namespace {

// The broadcast path allocates per relay and per entry, not per frame. A
// 100-node system on the ledger's broadcast parameters (async engine,
// hc = 3, vgroups of 7..14, relays on cycles {0, 1}) takes one 128-byte
// broadcast every 50 ms from rotating origins. Over a 4 s window after a
// 2 s warm-up, heap allocations per (node, delivered broadcast), the
// agreement and every frame included, must stay within budget: it
// measures 5.518, and the budget sits just above.
TEST(BroadcastBudget, AllocationsPerDeliveryStayWithinBudget) {
  constexpr std::size_t kNodes = 100;
  constexpr DurationMicros kGap = millis(50);
  constexpr double kBudget = 5.55;
  Params p;
  p.hc = 3;
  p.rwl = 6;
  p.gmin = 7;
  p.gmax = 14;
  p.engine = smr::EngineKind::kAsync;
  p.heartbeat_period = seconds(10.0);
  p.verify_signatures = false;
  AtumSystem sys(p, net::NetworkConfig::datacenter(), 0xb0d9e7);
  std::vector<NodeId> ids(kNodes);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  sys.deploy(ids);
  std::uint64_t deliveries = 0;
  for (NodeId id : ids) {
    sys.node(id).set_forward(overlay::forward_cycles({0, 1}));
    sys.node(id).set_deliver([&deliveries](NodeId, const net::Payload&) { ++deliveries; });
  }
  std::uint64_t sent = 0;
  sim::PeriodicTimer source(sys.simulator(), kGap, [&] {
    sys.node(ids[(sent * 37) % kNodes]).broadcast(Bytes(128, 0x5a));
    ++sent;
  });
  sim::Simulator& sim = sys.simulator();
  sim.run_until(sim.now() + seconds(2.0));
  const std::uint64_t deliveries_before = deliveries;
  const std::uint64_t allocations_before = g_heap_allocations.load();
  sim.run_until(sim.now() + seconds(4.0));
  const std::uint64_t window_deliveries = deliveries - deliveries_before;
  ASSERT_GT(window_deliveries, 7'000u) << "broadcasts stopped delivering";
  const double per_delivery =
      static_cast<double>(g_heap_allocations.load() - allocations_before) /
      static_cast<double>(window_deliveries);
  std::printf("heap allocations per (node, delivered broadcast): %.3f over %llu deliveries\n",
              per_delivery, static_cast<unsigned long long>(window_deliveries));
  EXPECT_LT(per_delivery, kBudget);
}

}  // namespace
}  // namespace atum::core
