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
  registry.probe("net.flows", {}, [this] { return static_cast<std::uint64_t>(flow_count()); });
}

SimNetwork::Node& SimNetwork::record(NodeId node) {
  if (Node* n = nodes_.find(node)) return *n;
  // lint: unordered-iter-ok(erase predicate is per-entry, order-free)
  nodes_.make_room([now = sim_.now()](const auto& kv) { return kv.second.idle(now); });
  Node& n = nodes_[node];
  if (!config_.region_latency.empty()) {
    n.region = static_cast<std::uint32_t>(node % config_.region_latency.size());
  }
  return n;
}

void SimNetwork::attach(NodeId node, MsgType type, MessageHandler handler) {
  Node& n = record(node);
  if (n.types.empty()) {
    // A full AtumNode registers 16 types: its 3 direct ones, PBFT's 9, the
    // removal notice and the group-message receiver's 3. Reserving them
    // allocates each vector once instead of growing it five times.
    constexpr std::size_t kTypesPerNode = 16;
    n.types.reserve(kTypesPerNode);
    n.handlers.reserve(kTypesPerNode);
  }
  auto it = std::find(n.types.begin(), n.types.end(), type);
  if (it != n.types.end()) {
    n.handlers[static_cast<std::size_t>(it - n.types.begin())] = std::move(handler);
  } else {
    n.types.push_back(type);
    n.handlers.push_back(std::move(handler));
  }
}

// Detaching leaves the record in place: it may still hold a horizon, a cut
// or a fault. Once idle, it goes when the table next makes room.
void SimNetwork::detach(NodeId node, MsgType type) {
  Node* n = nodes_.find(node);
  if (n == nullptr) return;
  auto it = std::find(n->types.begin(), n->types.end(), type);
  if (it == n->types.end()) return;
  n->handlers.erase(n->handlers.begin() + (it - n->types.begin()));
  n->types.erase(it);
}

DurationMicros SimNetwork::latency_between(const Node& from, const Node& to) {
  DurationMicros base;
  if (!config_.region_latency.empty()) {
    base = config_.region_latency[from.region][to.region];
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

bool SimNetwork::link_ok(const Message& m, const Node* from, const Node& to) const {
  const bool from_isolated = from != nullptr && from->isolated;
  const std::uint32_t from_tag = from == nullptr ? 0 : from->tag;
  if (from_isolated || to.isolated || from_tag != to.tag) return false;
  return blocked_links_.empty() || !blocked_links_.contains(link_key(m.from, m.to));
}

void SimNetwork::partition(const std::vector<std::vector<NodeId>>& sides) {
  // lint: unordered-iter-ok(per-record reset, order-free)
  for (auto& [id, n] : nodes_) n.tag = 0;
  std::uint32_t tag = 0;
  for (const auto& side : sides) {
    ++tag;
    for (NodeId id : side) record(id).tag = tag;
  }
}

bool SimNetwork::partitioned() const {
  // lint: unordered-iter-ok(existence test, order-free)
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [](const auto& kv) { return kv.second.tag != 0; });
}

void SimNetwork::set_node_fault(NodeId node, LinkFault fault) {
  if (!fault.none()) {
    record(node).fault = fault;
  } else if (Node* n = nodes_.find(node)) {
    n->fault = {};
  }
}

void SimNetwork::clear_node_faults() {
  // lint: unordered-iter-ok(per-record reset, order-free)
  for (auto& [id, n] : nodes_) n.fault = {};
}

std::size_t SimNetwork::sweep_flows() {
  // lint: unordered-iter-ok(erase predicate is per-entry, order-free)
  return nodes_.erase_if([now = sim_.now()](const auto& kv) { return kv.second.idle(now); });
}

std::size_t SimNetwork::flow_count() const {
  const TimeMicros now = sim_.now();
  auto busy = [now](const auto& kv) { return kv.second.busy(now); };
  // lint: unordered-iter-ok(a count is order-free)
  return static_cast<std::size_t>(std::count_if(nodes_.begin(), nodes_.end(), busy));
}

void SimNetwork::isolate(NodeId node, bool isolated) {
  if (isolated) {
    record(node).isolated = true;
  } else if (Node* n = nodes_.find(node)) {
    n->isolated = false;
  }
}

void SimNetwork::block_link(NodeId a, NodeId b, bool blocked) {
  if (blocked) {
    blocked_links_.insert(link_key(a, b));
  } else {
    blocked_links_.erase(link_key(a, b));
  }
}

void SimNetwork::send(Message msg) {
  ++stats_.messages_sent;
  stats_.bytes_sent += msg.wire_size();

  Node* to = nodes_.find(msg.to);
  Node* from = nodes_.find(msg.from);
  if (to == nullptr || !to->has_handler() || !link_ok(msg, from, *to)) {
    ++stats_.messages_blocked;
    return;
  }
  if (config_.drop_probability > 0.0 && rng_.chance(config_.drop_probability)) {
    ++stats_.messages_dropped;
    return;
  }
  // Both endpoints' faults, sender first: loss as independent events (a
  // missing or cleared fault multiplies by exactly 1.0), latency additively.
  double pass = 1.0;
  DurationMicros extra_latency = 0;
  for (const Node* n : {from, to}) {
    if (n == nullptr) continue;
    pass *= 1.0 - n->fault.drop;
    extra_latency += n->fault.extra_latency;
  }
  const double fault_drop = 1.0 - pass;
  if (fault_drop > 0.0 && rng_.chance(fault_drop)) {
    ++stats_.messages_dropped;
    return;
  }

  const double size = static_cast<double>(msg.wire_size());
  const TimeMicros now = sim_.now();

  if (from == nullptr) {
    // Making the sender's record can erase idle records or grow the table,
    // which moves records: find the receiver's (not idle) again.
    from = &record(msg.from);
    to = nodes_.find(msg.to);
  }
  Node& out = *from;
  auto egress_cost = static_cast<DurationMicros>(
      size / config_.egress_bytes_per_sec * kMicrosPerSecond);
  TimeMicros depart = std::max(now, out.egress_free);
  out.egress_free = depart + egress_cost;

  TimeMicros arrive = out.egress_free + latency_between(out, *to);

  auto ingress_cost = static_cast<DurationMicros>(
      size / config_.ingress_bytes_per_sec * kMicrosPerSecond);
  TimeMicros deliver = std::max(arrive, to->ingress_free) + ingress_cost + config_.per_message_cpu;
  to->ingress_free = deliver;
  // Injected fault latency is pure propagation: it delays delivery without
  // occupying the ingress horizon, so a cleared fault leaves no far-future
  // horizon behind (the record would be unsweepable until sim time caught
  // up with it).
  deliver += extra_latency;

  sim_.schedule_at(deliver, [this, m = std::move(msg)]() {
    const Node* to = nodes_.find(m.to);
    const MessageHandler* handler = to == nullptr ? nullptr : to->handler_for(m.type);
    if (handler == nullptr || !link_ok(m, nodes_.find(m.from), *to)) {
      ++stats_.messages_blocked;
      return;
    }
    ++stats_.messages_delivered;
    // The handler may make records, which can move `to`; nothing here
    // touches the record after the call.
    (*handler)(m);
  });
}

}  // namespace atum::net
