#include "core/params.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "overlay/gossip.h"

namespace atum::core {

void Params::validate() const {
  if (hc < 1 || hc > overlay::kMaxCycles) {
    throw std::invalid_argument("Params: hc out of range [1,16]");
  }
  if (rwl < 1 || rwl > 64) throw std::invalid_argument("Params: rwl out of range [1,64]");
  if (gmin < 1) throw std::invalid_argument("Params: gmin must be positive");
  if (gmin >= gmax) throw std::invalid_argument("Params: gmin must be below gmax");
  if (round_duration <= 0) throw std::invalid_argument("Params: round_duration must be positive");
  if (checkpoint_interval < 1) throw std::invalid_argument("Params: checkpoint_interval must be >= 1");
  if (heartbeat_period <= 0) throw std::invalid_argument("Params: heartbeat_period must be positive");
}

std::size_t target_group_size(std::size_t expected_nodes, std::size_t k) {
  double n = std::max<double>(2.0, static_cast<double>(expected_nodes));
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(static_cast<double>(k) * std::log2(n))));
}

std::size_t guideline_rwl(std::size_t num_vgroups, std::size_t hc) {
  if (num_vgroups <= 1) return 1;
  hc = std::max<std::size_t>(hc, 1);
  // Random 2hc-regular multigraphs mix in ~log(n)/log(2hc-1) steps; the
  // constant and the floor are fit to the paper's Figure 4 grid (e.g. 128
  // vgroups with hc=6 -> rwl=9).
  double n = static_cast<double>(num_vgroups);
  double degree = std::max(2.0, 2.0 * static_cast<double>(hc) - 1.0);
  double mixing = std::log(n) / std::log(degree);
  auto rwl = static_cast<std::size_t>(std::lround(4.0 + 2.6 * mixing));
  return std::clamp<std::size_t>(rwl, 4, 15);
}

Params Params::recommended(std::size_t expected_nodes, smr::EngineKind engine) {
  Params p;
  p.engine = engine;
  // Async tolerates fewer faults per group; the paper compensates with a
  // larger robustness parameter (k=7 in §6.1.3).
  std::size_t k = engine == smr::EngineKind::kSync ? 4 : 7;
  std::size_t g = target_group_size(expected_nodes, k);
  p.gmax = std::max<std::size_t>(4, g + g / 3);
  p.gmin = std::max<std::size_t>(2, p.gmax / 2);
  std::size_t groups = std::max<std::size_t>(1, expected_nodes / std::max<std::size_t>(1, g));
  p.hc = groups < 64 ? 4 : (groups < 1024 ? 5 : 6);
  p.rwl = guideline_rwl(groups, p.hc);
  p.validate();
  return p;
}

std::string to_string(const Params& p) {
  std::ostringstream os;
  os << "Params{hc=" << p.hc << ", rwl=" << p.rwl << ", gmax=" << p.gmax << ", gmin=" << p.gmin
     << ", engine=" << (p.engine == smr::EngineKind::kSync ? "sync" : "async")
     << ", round=" << to_seconds(p.round_duration) << "s}";
  return os.str();
}

}  // namespace atum::core
