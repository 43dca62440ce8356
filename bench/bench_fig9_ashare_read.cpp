// Figure 9: AShare read performance (latency per MB, normalized to file
// size) — NFS4 baseline vs "AShare simple" (one chunk, one holder) vs
// "AShare parallel" (10 chunks pulled from multiple holders in parallel).
//
// Network model: servers are egress-constrained relative to client ingress
// (EC2 micro burst behaviour), so parallel pull from several replicas can
// double throughput — the paper's "up to 100% over NFS4 for files over
// 512MB". Shape: latency/MB falls with file size as per-transfer setup
// amortizes; parallel wins at large sizes.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/ashare/ashare.h"

using namespace atum;
using namespace atum::ashare;

namespace {

core::Params bench_params() {
  core::Params p;
  p.hc = 3;
  p.rwl = 4;
  p.gmax = 8;
  p.gmin = 4;
  p.round_duration = millis(100);
  p.heartbeat_period = seconds(120);
  return p;
}

net::NetworkConfig bench_net() {
  auto n = net::NetworkConfig::datacenter();
  n.egress_bytes_per_sec = 6e6;    // server-side cap: 6 MB/s
  n.ingress_bytes_per_sec = 12e6;  // client ingress: 12 MB/s
  n.jitter_mean = 200;
  return n;
}

// Raw single-server read over the same network: the NFS4 stand-in.
double nfs_latency_per_mb(std::size_t mb) {
  sim::Simulator sim;
  net::SimNetwork net(sim, bench_net(), 1);
  TimeMicros done = -1;
  net.attach(2, net::MsgType::kChunkReply, [&](const net::Message&) { done = sim.now(); });
  net.send(net::Message{1, 2, net::MsgType::kChunkReply, Bytes(mb * 1'000'000, 0x11)});
  sim.run();
  return to_seconds(done) / static_cast<double>(mb);
}

struct ShareHarness {
  std::unique_ptr<core::AtumSystem> sys;
  std::vector<std::unique_ptr<AShareNode>> nodes;

  ShareHarness() {
    sys = std::make_unique<core::AtumSystem>(bench_params(), bench_net(), 0xF16'9ULL);
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < 8; ++i) {
      ids.push_back(i);
      sys->add_node(i);
    }
    sys->deploy(ids);
    for (NodeId i = 0; i < 8; ++i) {
      nodes.push_back(std::make_unique<AShareNode>(*sys, i, 3, 8));
      nodes.back()->set_auto_replication(false);
    }
  }

  void settle(DurationMicros d) { sys->simulator().run_until(sys->simulator().now() + d); }

  double measure_get(const FileKey& key, NodeId reader, std::size_t mb) {
    GetStats stats;
    nodes[reader]->get(key, [&](Bytes, const GetStats& s) { stats = s; });
    settle(seconds(3600));
    if (!stats.ok) return -1;
    return to_seconds(stats.elapsed) / static_cast<double>(mb);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Default caps at 128 MB to keep the full bench sweep quick; pass a
  // larger cap (e.g. "bench_fig9_ashare_read 512") for the full curve.
  std::size_t cap = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 128;
  std::vector<std::size_t> sizes_mb;
  for (std::size_t s : {2u, 8u, 32u, 128u, 512u}) {
    if (s <= cap) sizes_mb.push_back(s);
  }

  std::printf("=== Figure 9: AShare read performance (latency per MB, seconds) ===\n\n");
  std::printf("%-10s %-10s %-14s %-16s\n", "size(MB)", "NFS4", "AShare simple", "AShare parallel");

  for (std::size_t mb : sizes_mb) {
    double nfs = nfs_latency_per_mb(mb);

    // AShare simple: single chunk, single remote holder (fair vs NFS4).
    ShareHarness simple;
    simple.nodes[0]->put("f.bin", Bytes(mb * 1'000'000, 0x22), 1);
    simple.settle(seconds(60));
    double s_lat = simple.measure_get(FileKey{0, "f.bin"}, 5, mb);

    // AShare parallel: 10 chunks, two extra replicas -> 3 holders.
    ShareHarness parallel;
    parallel.nodes[0]->put("f.bin", Bytes(mb * 1'000'000, 0x22), 10);
    parallel.settle(seconds(60));
    parallel.nodes[1]->force_replicate(FileKey{0, "f.bin"});
    parallel.settle(seconds(3600));
    parallel.nodes[2]->force_replicate(FileKey{0, "f.bin"});
    parallel.settle(seconds(3600));
    double p_lat = parallel.measure_get(FileKey{0, "f.bin"}, 5, mb);

    std::printf("%-10zu %-10.3f %-14.3f %-16.3f\n", mb, nfs, s_lat, p_lat);
  }
  std::printf("\n(parallel < NFS4 at large sizes: multi-holder pull beats one egress-capped"
              " server)\n");
  return 0;
}
