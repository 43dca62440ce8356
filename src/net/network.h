// Simulated network: the substrate standing in for EC2's datacenter (Sync
// experiments) and the 8-region WAN (Async experiments).
//
// Model per message:
//   depart  = max(now, sender egress free)        (egress serialization)
//   arrive  = depart + size/egress_bw + latency(from,to)
//   deliver = max(arrive, receiver ingress free) + size/ingress_bw
// plus optional drop probability and link/node partitions. Latency is
// base + exponential jitter, or a region matrix in WAN mode. A message is
// delivered to the receiver's handler for its type, or blocked.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace atum::obs {
class Registry;
}  // namespace atum::obs

namespace atum::net {

struct NetworkConfig {
  // Intra-datacenter defaults (EC2 micro-ish): 0.25 ms base one-way latency.
  DurationMicros base_latency = 250;
  DurationMicros jitter_mean = 100;       // exponential jitter added per message
  double drop_probability = 0.0;          // applied before delivery
  double egress_bytes_per_sec = 12.5e6;   // ~100 Mbit/s
  double ingress_bytes_per_sec = 12.5e6;
  // Per-message processing cost at the receiver; models the micro
  // instance's limited CPU. 0 disables the model.
  DurationMicros per_message_cpu = 15;

  // WAN mode, on whenever the matrix is non-empty: nodes are assigned to
  // regions round-robin, and latency(from,to) comes from the matrix
  // (micros, one-way) instead of base_latency.
  std::vector<std::vector<DurationMicros>> region_latency;

  static NetworkConfig datacenter();
  // 8 regions as in the paper: EU x2, US x2, Asia x2, Australia, S.America.
  static NetworkConfig wide_area();

  // Throws std::invalid_argument on non-physical parameters (zero/negative
  // or non-finite bandwidths, negative latencies, drop probability outside
  // [0,1], a non-square WAN latency matrix). SimNetwork validates its
  // config at construction, so a bad bandwidth fails fast instead of
  // silently producing inf/NaN delivery times.
  void validate() const;
};

// lint: adhoc-counter-ok(pre-registry struct; exposed via bind_metrics probes)
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_blocked = 0;  // partitioned or unregistered target
  std::uint64_t bytes_sent = 0;
};

// Registered once per node/type at bind time, invoked per delivery. The
// per-message cost is one indirect call with no allocation — the hot-path
// allocation problem std::function caused lived in the per-EVENT closures,
// which sim::EventFn replaced. What a profile of delivery shows is the
// receiver's node-record lookup, not this call.
// lint: std-function-ok(bind-time registration; invoke is alloc-free)
using MessageHandler = std::function<void(const Message&)>;

// Injected degradation of every link touching one node (scenario fault
// primitive, SimNetwork::set_node_fault): `drop` is an extra loss
// probability and `extra_latency` an added path delay (a rerouted or
// congested WAN path). Injected latency is pure propagation — it delays the
// delivery event but does NOT occupy the receiver's ingress serialization
// horizon, so a degraded spell cannot leave horizons far in the future that
// outlive the fault and keep node records from being swept.
struct LinkFault {
  double drop = 0.0;
  DurationMicros extra_latency = 0;
  bool none() const { return drop == 0.0 && extra_latency == 0; }
};

class SimNetwork {
 public:
  SimNetwork(sim::Simulator& sim, NetworkConfig config, std::uint64_t seed = 0x7e77e7ULL);

  // Registers (or replaces) a node's handler for one message type. Several
  // protocol components share one node, each with its own types.
  void attach(NodeId node, MsgType type, MessageHandler handler);
  void detach(NodeId node, MsgType type);

  // Queues a message for delivery. Never blocks; delivery (or drop) is
  // scheduled on the simulator. Looks up the receiver's and the sender's
  // records once here and once more at delivery, which re-checks the cuts.
  void send(Message msg);

  // Fault injection.
  void isolate(NodeId node, bool isolated);
  void block_link(NodeId a, NodeId b, bool blocked);  // bidirectional
  void set_drop_probability(double p) { config_.drop_probability = p; }

  // --- partitions (scenario engine) ---
  // Splits the network into components: nodes in sides[i] get tag i+1,
  // every other node gets tag 0, and a message passes only between nodes
  // with equal tags. Replaces any previous partition; partition({}) heals.
  // Messages already in flight are re-checked at delivery time, so a
  // partition starting now also cuts them off.
  void partition(const std::vector<std::vector<NodeId>>& sides);
  bool partitioned() const;

  // --- node degradation (scenario engine) ---
  // Applies to every link touching `node` (a degraded rack uplink); a fault
  // that is none() clears it. A message between two degraded nodes meets
  // both faults: loss as independent events, latency additively.
  void set_node_fault(NodeId node, LinkFault fault);
  void clear_node_faults();

  // Erases every idle node record now (see Node::idle) and returns how
  // many. On demand only: record() erases them whenever the table would
  // grow, so the table stays proportional to the nodes that hold a handler,
  // a cut, a fault or traffic in flight, not to every node ever seen.
  std::size_t sweep_flows();

  const NetworkStats& stats() const { return stats_; }
  sim::Simulator& simulator() { return sim_; }

  // Registers the network's counters on `registry` as polled probes
  // (net.messages_sent, net.messages_delivered, net.messages_dropped,
  // net.messages_blocked, net.bytes_sent, net.flows): the send/deliver hot
  // path keeps its plain struct fields, the registry reads them only at
  // sample() time. The registry must outlive this network.
  void bind_metrics(obs::Registry& registry);

  // Nodes with a serialization horizon still in the future, i.e. with
  // traffic in flight or queued. Counted over the node table, so it does
  // not depend on when the last sweep ran.
  std::size_t flow_count() const;
  // Node records held, idle ones not yet erased included.
  std::size_t record_count() const { return nodes_.size(); }

 private:
  // Everything the network keeps about one node. A node without a record
  // behaves as a fresh one: no handler, no cut, no fault, idle horizons.
  // Records move when the table grows or shifts on erase; a handler's
  // closure does not, since it lives in `handlers`' heap buffer.
  struct Node {
    // handlers[i] serves types[i]. Delivery scans `types` linearly: a node
    // registers a couple of dozen types at most, and 2 bytes per type keep
    // the scan to a cache line where (type, handler) pairs took 40 bytes
    // each. A handler may attach or detach its own node's handlers while
    // it runs (a join reply starts the node's runtime), which can move or
    // destroy the very MessageHandler it runs in; each one only forwards
    // to a member function, so none touches its closure afterwards.
    std::vector<MsgType> types;
    std::vector<MessageHandler> handlers;
    TimeMicros egress_free = 0;   // sender-side serialization horizon
    TimeMicros ingress_free = 0;  // receiver-side serialization horizon
    LinkFault fault;
    std::uint32_t tag = 0;     // partition side; 0 outside any partition
    std::uint32_t region = 0;  // its row and column of region_latency (WAN mode)
    bool isolated = false;

    bool has_handler() const { return !types.empty(); }
    const MessageHandler* handler_for(MsgType type) const {  // null when none
      for (std::size_t i = 0; i < types.size(); ++i) {
        if (types[i] == type) return &handlers[i];
      }
      return nullptr;
    }
    bool busy(TimeMicros now) const { return egress_free > now || ingress_free > now; }
    // The one lifetime rule: an idle record holds nothing a fresh one would
    // not (past horizons clamp to now at send), so erasing it is exact.
    bool idle(TimeMicros now) const {
      return !has_handler() && !isolated && tag == 0 && fault.none() && !busy(now);
    }
  };

  // The record of `node`, made if absent. Every record is made here, which
  // sets its region once (node % regions), so no message divides. It may
  // erase idle records first (FlatTable::make_room): others move or go.
  Node& record(NodeId node);
  // Whether a message may pass from m.from (record `from`, possibly null)
  // to m.to (record `to`): neither isolated, equal tags, link not blocked.
  bool link_ok(const Message& m, const Node* from, const Node& to) const;
  DurationMicros latency_between(const Node& from, const Node& to);

  sim::Simulator& sim_;
  NetworkConfig config_;
  Rng rng_;
  // Full-width link key: NodeId is 64-bit, so packing two ids into one
  // 64-bit word would alias distinct links once ids exceed 2^32.
  using LinkKey = std::pair<NodeId, NodeId>;  // (min, max)
  struct LinkKeyHash {
    std::size_t operator()(const LinkKey& k) const noexcept {
      std::size_t h = std::hash<NodeId>{}(k.first);
      return h ^ (std::hash<NodeId>{}(k.second) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    }
  };

  FlatMap<NodeId, Node> nodes_;
  std::unordered_set<LinkKey, LinkKeyHash> blocked_links_;
  NetworkStats stats_;
};

// Narrow per-node view of the network: what protocol code holds. Keeps
// protocols implementation-agnostic (a socket-backed transport would
// implement the same surface). Each Transport remembers what it registered
// so that close() removes only its own handlers — several components
// (SMR engine, overlay, application) share one node.
class Transport {
 public:
  Transport(SimNetwork& net, NodeId self) : net_(&net), self_(self) {}
  Transport(const Transport& other) : net_(other.net_), self_(other.self_) {}
  Transport& operator=(const Transport& other) {
    net_ = other.net_;
    self_ = other.self_;
    return *this;  // registrations are not copied
  }
  Transport(Transport&&) = default;
  Transport& operator=(Transport&&) = default;

  NodeId self() const { return self_; }
  sim::Simulator& simulator() const { return net_->simulator(); }

  // Accepts Bytes (frozen into a Payload here) or an existing Payload.
  // Fan-out loops should freeze once and pass the Payload so all
  // recipients share one buffer.
  void send(NodeId to, MsgType type, Payload payload) {
    net_->send(Message{self_, to, type, std::move(payload)});
  }
  // Registers handlers for an explicit set of message types.
  void listen(std::initializer_list<MsgType> types, const MessageHandler& handler) {
    for (MsgType t : types) {
      net_->attach(self_, t, handler);
      owned_types_.push_back(t);
    }
  }
  void close() {
    for (MsgType t : owned_types_) net_->detach(self_, t);
    owned_types_.clear();
  }

 private:
  SimNetwork* net_;
  NodeId self_;
  std::vector<MsgType> owned_types_;
};

}  // namespace atum::net
