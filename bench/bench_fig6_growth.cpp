// Figure 6: system growth speed. Joins are driven as fast as the system
// admits them (one outstanding join per free vgroup); the curve of system
// size over time shows the exponential growth rate the paper reports, with
// the larger-rwl (larger target size) configuration starting slower.
//
// Paper shape: exponential growth well beyond 1000 nodes; systems sized for
// 1400 nodes grow slightly slower early on than systems sized for 800.
#include <cstdio>
#include <memory>

#include "core/params.h"
#include "group/cluster_sim.h"

using namespace atum;
using namespace atum::group;

namespace {

void run_growth(const char* label, smr::EngineKind kind, std::size_t target_nodes) {
  sim::Simulator sim;
  // Table 1 sizing (gmax 8..20), as deployed in §6: e.g. 800 nodes in
  // "roughly 120 vgroups" means g ~ 7-10, not the k*log2(N) upper bound.
  ClusterSimConfig cfg;
  cfg.gmax = 14;
  std::size_t expected_groups = target_nodes / 8;
  cfg.hc = 5;
  cfg.rwl = core::guideline_rwl(expected_groups, cfg.hc);
  cfg.kind = kind;
  cfg.round_duration = seconds(1.0);  // §6.1.1: rounds of 1 second
  cfg.net_rtt = millis(150);          // Async ran across 8 WAN regions
  cfg.seed = 0xF16'6ULL ^ target_nodes;
  ClusterSim cs(sim, cfg);
  cs.bootstrap(0);

  NodeId next = 1;
  std::uint64_t outstanding = 0;
  std::printf("--- %s, target N=%zu (hc=%zu rwl=%zu gmax=%zu) ---\n", label, target_nodes,
              cfg.hc, cfg.rwl, cfg.gmax);
  std::printf("%-12s %-10s %-10s\n", "seconds", "nodes", "vgroups");

  TimeMicros next_report = 0;
  while (cs.node_count() < target_nodes && sim.now() < seconds(40000.0)) {
    // Admission control: one outstanding join per vgroup keeps every group
    // saturated, which is the fastest the protocol can absorb members.
    while (outstanding < cs.group_count() && next <= target_nodes * 2) {
      ++outstanding;
      cs.request_join(next++, [&outstanding] { --outstanding; });
    }
    sim.run_until(sim.now() + seconds(1.0));
    if (sim.now() >= next_report) {
      std::printf("%-12.0f %-10zu %-10zu\n", to_seconds(sim.now()), cs.node_count(),
                  cs.group_count());
      next_report = sim.now() + seconds(300.0);
    }
  }
  std::printf("%-12.0f %-10zu %-10zu   <- reached target\n", to_seconds(sim.now()),
              cs.node_count(), cs.group_count());
  const auto& st = cs.stats();
  std::printf("joins=%llu splits=%llu exchanges(ok/suppressed)=%llu/%llu\n\n",
              static_cast<unsigned long long>(st.joins_completed),
              static_cast<unsigned long long>(st.splits),
              static_cast<unsigned long long>(st.exchanges_completed),
              static_cast<unsigned long long>(st.exchanges_suppressed));
}

}  // namespace

int main() {
  std::printf("=== Figure 6: growth speed for systems with up to 1400 nodes ===\n\n");
  run_growth("SYNC", smr::EngineKind::kSync, 800);
  run_growth("SYNC", smr::EngineKind::kSync, 1400);
  run_growth("ASYNC", smr::EngineKind::kAsync, 800);
  run_growth("ASYNC", smr::EngineKind::kAsync, 1400);
  return 0;
}
