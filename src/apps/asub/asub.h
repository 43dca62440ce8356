// ASub: topic-based publish/subscribe on Atum (§4.1).
//
// Topic-based pub/sub is essentially group communication: a topic IS a
// group. The four operations map one-to-one onto the Atum API —
//   create_topic -> bootstrap,  subscribe -> join,
//   unsubscribe  -> leave,      publish   -> broadcast —
// so ASub is the thin layer the paper describes, plus a tiny directory
// mapping topics to contact nodes (the out-of-band rendezvous every
// pub/sub deployment needs).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/atum.h"

namespace atum::asub {

// One topic = one Atum instance (its own vgroup overlay).
class Topic {
 public:
  // The event is a refcounted view shared with the relay machinery; copy
  // via to_bytes() to keep it past the callback.
  using EventFn = std::function<void(NodeId publisher, const net::Payload& event)>;

  Topic(std::string name, core::Params params, net::NetworkConfig net_config,
        std::uint64_t seed);

  const std::string& name() const { return name_; }
  core::AtumSystem& system() { return system_; }

  // create_topic: the creator bootstraps the topic's Atum instance and
  // becomes the first contact node.
  void create(NodeId creator);

  // subscribe: joins the topic's group via any current subscriber.
  void subscribe(NodeId subscriber);
  // unsubscribe: leaves the group.
  void unsubscribe(NodeId subscriber);
  // publish: broadcasts the event to all subscribers.
  void publish(NodeId publisher, Bytes event);

  void set_event_handler(NodeId subscriber, EventFn fn);

  bool is_subscribed(NodeId n);

  // Drives the simulation until pending operations settle (test/demo aid).
  void settle(DurationMicros duration);

 private:
  std::string name_;
  core::AtumSystem system_;
  std::optional<NodeId> contact_;
  std::map<NodeId, EventFn> handlers_;
};

// Directory of topics (one Atum instance each).
class ASubService {
 public:
  ASubService(core::Params params, net::NetworkConfig net_config, std::uint64_t seed = 0xa5b5ULL);

  Topic& create_topic(const std::string& name, NodeId creator);
  Topic& topic(const std::string& name);
  bool has_topic(const std::string& name) const { return topics_.contains(name); }
  std::size_t topic_count() const { return topics_.size(); }

 private:
  core::Params params_;
  net::NetworkConfig net_config_;
  std::uint64_t seed_;
  std::map<std::string, std::unique_ptr<Topic>> topics_;
};

}  // namespace atum::asub
