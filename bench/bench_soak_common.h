// Shared node-level soak profile: bench_soak_atum_100k and
// bench_smr_throughput's soak phase run the real per-node runtime with the
// same parameters and the same relay policy. Each harness keeps its own
// seed, load and checks.
#pragma once

#include <cstddef>
#include <vector>

#include "core/atum.h"
#include "core/params.h"

namespace atum::soak_bench {

inline core::Params soak_params() {
  core::Params p;
  p.hc = 3;
  p.rwl = 6;
  p.gmax = 14;
  p.gmin = 7;
  p.engine = smr::EngineKind::kAsync;  // PBFT: quiescent between requests
  p.heartbeat_period = seconds(5.0);
  p.verify_signatures = false;  // soak the protocol paths, not HMAC
  return p;
}

// Deploys nodes 0..nodes-1 instantly and returns their ids. Every node
// relays along one cycle only: the deterministic ring plus one extra
// direction keeps a soak about path coverage, not flood volume.
inline std::vector<NodeId> deploy_soak(core::AtumSystem& sys, std::size_t nodes) {
  std::vector<NodeId> ids;
  ids.reserve(nodes);
  for (NodeId i = 0; i < nodes; ++i) ids.push_back(i);
  sys.deploy(ids);
  for (NodeId i : ids) sys.node(i).set_forward(overlay::forward_cycles({0}));
  return ids;
}

}  // namespace atum::soak_bench
