// Figure 13: exchange completion rate vs join rate while growing to N=400.
//
// Joining nodes at 8% / 20% / 24% of the current system size per minute
// generates concurrent shuffles; exchanges whose selected partner vgroup is
// already busy are suppressed. Paper shape: faster growth -> lower fraction
// of completed exchanges (flexibility bought at the cost of random vgroup
// composition quality), and the faster rates reach N=400 sooner.
#include <cstdio>
#include <vector>

#include "group/cluster_sim.h"

using namespace atum;
using namespace atum::group;

namespace {

void run_rate(double pct_per_minute) {
  sim::Simulator sim;
  ClusterSimConfig cfg;
  cfg.hc = 5;
  cfg.rwl = 10;
  cfg.gmax = 14;
  cfg.kind = smr::EngineKind::kSync;
  cfg.round_duration = seconds(1.0);
  cfg.seed = 0xF16'13ULL ^ static_cast<std::uint64_t>(pct_per_minute * 100);
  ClusterSim cs(sim, cfg);
  cs.bootstrap(0);
  // Seed population so percentage rates are meaningful from the start.
  NodeId next = 1;
  std::uint64_t outstanding = 0;
  while (cs.node_count() < 40 && sim.now() < seconds(20000.0)) {
    while (outstanding < cs.group_count()) {
      ++outstanding;
      cs.request_join(next++, [&outstanding] { --outstanding; });
    }
    sim.run_until(sim.now() + seconds(1.0));
  }

  std::printf("--- join rate %.0f%% of system size per minute ---\n", pct_per_minute);
  std::printf("%-12s %-8s %-12s %-14s\n", "seconds", "nodes", "exch.compl.", "window compl.");

  double carry = 0.0;
  std::uint64_t last_completed = 0, last_attempted = 0;
  TimeMicros start = sim.now();
  TimeMicros next_report = sim.now();
  while (cs.node_count() < 400 && sim.now() < start + seconds(30000.0)) {
    carry += pct_per_minute / 100.0 * static_cast<double>(cs.node_count()) / 60.0;
    while (carry >= 1.0) {
      cs.request_join(next++);
      carry -= 1.0;
    }
    sim.run_until(sim.now() + seconds(1.0));
    if (sim.now() >= next_report) {
      const auto& st = cs.stats();
      double overall = st.exchanges_attempted == 0
                           ? 1.0
                           : static_cast<double>(st.exchanges_completed) /
                                 static_cast<double>(st.exchanges_attempted);
      std::uint64_t dc = st.exchanges_completed - last_completed;
      std::uint64_t da = st.exchanges_attempted - last_attempted;
      double window = da == 0 ? 1.0 : static_cast<double>(dc) / static_cast<double>(da);
      std::printf("%-12.0f %-8zu %-12.2f %-14.2f\n", to_seconds(sim.now() - start),
                  cs.node_count(), overall, window);
      last_completed = st.exchanges_completed;
      last_attempted = st.exchanges_attempted;
      next_report = sim.now() + seconds(250.0);
    }
  }
  const auto& st = cs.stats();
  double overall = st.exchanges_attempted == 0
                       ? 1.0
                       : static_cast<double>(st.exchanges_completed) /
                             static_cast<double>(st.exchanges_attempted);
  std::printf("reached N=%zu at t=%.0fs; overall exchange completion %.2f "
              "(completed=%llu suppressed=%llu)\n\n",
              cs.node_count(), to_seconds(sim.now() - start), overall,
              static_cast<unsigned long long>(st.exchanges_completed),
              static_cast<unsigned long long>(st.exchanges_suppressed));
}

}  // namespace

int main() {
  std::printf("=== Figure 13: exchange completion rate vs join rate (grow to N=400) ===\n\n");
  run_rate(8.0);
  run_rate(20.0);
  run_rate(24.0);
  return 0;
}
