#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/registry.h"

namespace atum::net {

namespace {
std::pair<NodeId, NodeId> link_key(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}
}  // namespace

NetworkConfig NetworkConfig::datacenter() { return NetworkConfig{}; }

void NetworkConfig::validate() const {
  auto positive_rate = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!positive_rate(egress_bytes_per_sec)) {
    throw std::invalid_argument("NetworkConfig: egress_bytes_per_sec must be finite and > 0");
  }
  if (!positive_rate(ingress_bytes_per_sec)) {
    throw std::invalid_argument("NetworkConfig: ingress_bytes_per_sec must be finite and > 0");
  }
  if (!(drop_probability >= 0.0 && drop_probability <= 1.0)) {  // rejects NaN too
    throw std::invalid_argument("NetworkConfig: drop_probability must be in [0,1]");
  }
  if (base_latency < 0) throw std::invalid_argument("NetworkConfig: negative base_latency");
  if (jitter_mean < 0) throw std::invalid_argument("NetworkConfig: negative jitter_mean");
  if (per_message_cpu < 0) throw std::invalid_argument("NetworkConfig: negative per_message_cpu");
  for (const auto& row : region_latency) {
    if (row.size() != region_latency.size()) {
      throw std::invalid_argument("NetworkConfig: region_latency must be square");
    }
    for (DurationMicros d : row) {
      if (d < 0) throw std::invalid_argument("NetworkConfig: negative region latency");
    }
  }
}

NetworkConfig NetworkConfig::wide_area() {
  NetworkConfig c;
  c.wan = true;
  c.jitter_mean = 2'000;
  // One-way latencies in ms between: eu-west, eu-central, us-east, us-west,
  // ap-tokyo, ap-singapore, ap-sydney, sa-east. Values follow public
  // inter-region RTT/2 measurements, rounded.
  const int ms[8][8] = {
      {1, 12, 40, 70, 110, 85, 140, 95},   // eu-west
      {12, 1, 45, 75, 115, 80, 145, 100},  // eu-central
      {40, 45, 1, 35, 75, 110, 100, 60},   // us-east
      {70, 75, 35, 1, 55, 85, 70, 90},     // us-west
      {110, 115, 75, 55, 1, 35, 55, 130},  // ap-tokyo
      {85, 80, 110, 85, 35, 1, 45, 160},   // ap-singapore
      {140, 145, 100, 70, 55, 45, 1, 160}, // ap-sydney
      {95, 100, 60, 90, 130, 160, 160, 1}, // sa-east
  };
  c.region_latency.assign(8, std::vector<DurationMicros>(8));
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) c.region_latency[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = millis(ms[i][j]);
  return c;
}

SimNetwork::SimNetwork(sim::Simulator& sim, NetworkConfig config, std::uint64_t seed)
    : sim_(sim), config_(std::move(config)), rng_(seed) {
  config_.validate();
}

void SimNetwork::bind_metrics(obs::Registry& registry) {
  registry.probe("net.messages_sent", {}, [this] { return stats_.messages_sent; });
  registry.probe("net.messages_delivered", {}, [this] { return stats_.messages_delivered; });
  registry.probe("net.messages_dropped", {}, [this] { return stats_.messages_dropped; });
  registry.probe("net.messages_blocked", {}, [this] { return stats_.messages_blocked; });
  registry.probe("net.bytes_sent", {}, [this] { return stats_.bytes_sent; });
  registry.probe("net.flows", {}, [this] { return static_cast<std::uint64_t>(flows_.size()); });
}

void SimNetwork::attach(NodeId node, MessageHandler handler) {
  handlers_[node].fallback = std::move(handler);
}

void SimNetwork::attach(NodeId node, MsgType type, MessageHandler handler) {
  auto& typed = handlers_[node].by_type;
  auto it = std::find_if(typed.begin(), typed.end(),
                         [type](const auto& entry) { return entry.first == type; });
  if (it != typed.end()) {
    it->second = std::move(handler);
  } else {
    typed.emplace_back(type, std::move(handler));
  }
}

void SimNetwork::detach(NodeId node) {
  auto it = handlers_.find(node);
  if (it == handlers_.end()) return;
  it->second.fallback = nullptr;
  if (it->second.empty()) handlers_.erase(it);
}

void SimNetwork::detach(NodeId node, MsgType type) {
  auto it = handlers_.find(node);
  if (it == handlers_.end()) return;
  std::erase_if(it->second.by_type, [type](const auto& entry) { return entry.first == type; });
  if (it->second.empty()) handlers_.erase(it);
}

const MessageHandler* SimNetwork::handler_for(NodeId node, MsgType type) const {
  auto it = handlers_.find(node);
  if (it == handlers_.end()) return nullptr;
  for (const auto& [t, handler] : it->second.by_type) {
    if (t == type) return &handler;
  }
  if (it->second.fallback) return &it->second.fallback;
  return nullptr;
}

std::size_t SimNetwork::region_of(NodeId node) const {
  return static_cast<std::size_t>(node % config_.region_latency.size());
}

DurationMicros SimNetwork::latency_between(NodeId from, NodeId to) {
  DurationMicros base;
  if (config_.wan && !config_.region_latency.empty()) {
    base = config_.region_latency[region_of(from)][region_of(to)];
  } else {
    base = config_.base_latency;
  }
  DurationMicros jitter = 0;
  if (config_.jitter_mean > 0) {
    double u = rng_.next_double();
    jitter = static_cast<DurationMicros>(
        -static_cast<double>(config_.jitter_mean) * std::log1p(-u));
  }
  return base + jitter;
}

bool SimNetwork::link_ok(NodeId from, NodeId to) const {
  if (isolated_.contains(from) || isolated_.contains(to)) return false;
  if (!partition_tag_.empty()) {
    auto tag = [this](NodeId n) -> std::uint32_t {
      auto it = partition_tag_.find(n);
      return it == partition_tag_.end() ? 0 : it->second;
    };
    if (tag(from) != tag(to)) return false;
  }
  return !blocked_links_.contains(link_key(from, to));
}

void SimNetwork::partition(const std::vector<std::vector<NodeId>>& sides) {
  partition_tag_.clear();
  std::uint32_t tag = 0;
  for (const auto& side : sides) {
    ++tag;
    for (NodeId n : side) partition_tag_[n] = tag;
  }
}

void SimNetwork::heal_partition() {
  partition_tag_.clear();
  sweep_flows();
}

void SimNetwork::set_link_fault(NodeId a, NodeId b, LinkFault fault) {
  if (fault.none()) {
    clear_link_fault(a, b);
  } else {
    link_faults_[link_key(a, b)] = fault;
  }
}

void SimNetwork::clear_link_fault(NodeId a, NodeId b) {
  link_faults_.erase(link_key(a, b));
}

void SimNetwork::set_node_fault(NodeId node, LinkFault fault) {
  if (fault.none()) {
    clear_node_fault(node);
  } else {
    node_faults_[node] = fault;
  }
}

void SimNetwork::clear_node_fault(NodeId node) { node_faults_.erase(node); }

void SimNetwork::clear_link_faults() {
  link_faults_.clear();
  node_faults_.clear();
  sweep_flows();
}

LinkFault SimNetwork::fault_between(NodeId from, NodeId to) const {
  if (link_faults_.empty() && node_faults_.empty()) return {};
  LinkFault out;
  double pass = 1.0;  // probability the message survives every fault
  auto fold = [&](const LinkFault& f) {
    pass *= 1.0 - f.drop;
    out.extra_latency += f.extra_latency;
  };
  if (auto it = link_faults_.find(link_key(from, to)); it != link_faults_.end()) {
    fold(it->second);
  }
  if (auto it = node_faults_.find(from); it != node_faults_.end()) fold(it->second);
  if (auto it = node_faults_.find(to); it != node_faults_.end()) fold(it->second);
  out.drop = 1.0 - pass;
  return out;
}

std::size_t SimNetwork::sweep_flows() {
  const TimeMicros now = sim_.now();
  // lint: unordered-iter-ok(erase predicate is per-entry, order-free)
  std::size_t evicted = std::erase_if(flows_, [now](const auto& kv) {
    return kv.second.egress_free <= now && kv.second.ingress_free <= now;
  });
  sends_since_flow_prune_ = 0;
  flow_sweep_allowance_ = flows_.size() + kMinFlowSweep;
  return evicted;
}

void SimNetwork::isolate(NodeId node, bool isolated) {
  if (isolated) {
    isolated_.insert(node);
  } else {
    isolated_.erase(node);
  }
}

void SimNetwork::block_link(NodeId a, NodeId b, bool blocked) {
  if (blocked) {
    blocked_links_.insert(link_key(a, b));
  } else {
    blocked_links_.erase(link_key(a, b));
  }
}

void SimNetwork::maybe_prune_flows() {
  // A flow whose serialization horizons are in the past is indistinguishable
  // from a fresh entry (depart/deliver clamp to now), so sweeping idle
  // entries is exact: flows_ stays proportional to the nodes with traffic
  // in flight instead of growing by one entry per node ever seen (unbounded
  // under million-node churn). The allowance is snapshotted at sweep time
  // (not compared against the live size, which can grow one-per-send and
  // outrun any counter), making the sweep O(1) amortized per message.
  if (++sends_since_flow_prune_ < flow_sweep_allowance_) return;
  sweep_flows();
}

void SimNetwork::send(Message msg) {
  ++stats_.messages_sent;
  stats_.bytes_sent += msg.wire_size();
  maybe_prune_flows();

  if (!link_ok(msg.from, msg.to) || !handlers_.contains(msg.to)) {
    ++stats_.messages_blocked;
    return;
  }
  const LinkFault fault = fault_between(msg.from, msg.to);
  if (config_.drop_probability > 0.0 && rng_.chance(config_.drop_probability)) {
    ++stats_.messages_dropped;
    return;
  }
  if (fault.drop > 0.0 && rng_.chance(fault.drop)) {
    ++stats_.messages_dropped;
    return;
  }

  const double size = static_cast<double>(msg.wire_size());
  const TimeMicros now = sim_.now();

  Flow& out = flows_[msg.from];
  auto egress_cost = static_cast<DurationMicros>(
      size / config_.egress_bytes_per_sec * kMicrosPerSecond);
  TimeMicros depart = std::max(now, out.egress_free);
  out.egress_free = depart + egress_cost;

  TimeMicros arrive = out.egress_free + latency_between(msg.from, msg.to);

  Flow& in = flows_[msg.to];
  auto ingress_cost = static_cast<DurationMicros>(
      size / config_.ingress_bytes_per_sec * kMicrosPerSecond);
  TimeMicros deliver = std::max(arrive, in.ingress_free) + ingress_cost + config_.per_message_cpu;
  in.ingress_free = deliver;
  // Injected fault latency is pure propagation: it delays delivery without
  // occupying the ingress horizon, so a cleared fault leaves no far-future
  // flow entries behind (they would be unsweepable until sim time caught
  // up with the inflated horizon).
  deliver += fault.extra_latency;

  sim_.schedule_at(deliver, [this, m = std::move(msg)]() {
    const MessageHandler* handler = handler_for(m.to, m.type);
    if (handler == nullptr || !link_ok(m.from, m.to)) {
      ++stats_.messages_blocked;
      return;
    }
    ++stats_.messages_delivered;
    (*handler)(m);
  });
}

}  // namespace atum::net
