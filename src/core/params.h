// System parameters (Table 1) and the configuration guideline (Figure 4).
#pragma once

#include <cstddef>
#include <string>

#include "common/types.h"
#include "smr/smr.h"

namespace atum::core {

// Table 1: the parameters an administrator sets at bootstrap. Only gmin and
// gmax steer the deployment (g and k exist to reason about robustness).
struct Params {
  std::size_t hc = 5;     // H-graph cycles, typical 2..12
  std::size_t rwl = 10;   // random walk length, typical 4..15
  std::size_t gmax = 14;  // max vgroup size, typical 8,14,20,...
  std::size_t gmin = 7;   // min vgroup size, default 0.5*gmax

  smr::EngineKind engine = smr::EngineKind::kSync;
  DurationMicros round_duration = seconds(1.0);          // sync rounds (§6: 1-1.5 s)
  DurationMicros view_change_timeout = seconds(2.0);     // async liveness timer
  // PBFT checkpoint cadence: every this-many executed seqs the replicas
  // exchange checkpoint digests; stability truncates the log and the
  // executed history (the per-epoch memory bound). Scenario presets shrink
  // it so short runs cross many boundaries.
  std::uint64_t checkpoint_interval = 64;
  DurationMicros heartbeat_period = seconds(60.0);       // §5.1: coarse, ~1/min
  bool verify_signatures = true;

  // Throws std::invalid_argument when inconsistent.
  void validate() const;

  // Derives a configuration for an expected system size following the
  // Figure 4 guideline and k*log2(N) sizing with the default k = 4 (§3.1).
  static Params recommended(std::size_t expected_nodes, smr::EngineKind engine);
};

// Figure 4 guideline: walk length needed for uniform sampling on an H-graph
// with `num_vgroups` vertices and `hc` cycles. Derived from the mixing time
// of 2hc-regular expanders and calibrated against the paper's plotted grid;
// bench_fig4_guideline regenerates the plot empirically via simulation.
std::size_t guideline_rwl(std::size_t num_vgroups, std::size_t hc);

// §3.1: vgroup size target g = k*log2(N).
std::size_t target_group_size(std::size_t expected_nodes, std::size_t k = 4);

std::string to_string(const Params& p);

}  // namespace atum::core
