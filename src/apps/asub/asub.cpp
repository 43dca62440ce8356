#include "apps/asub/asub.h"

#include <stdexcept>

namespace atum::asub {

Topic::Topic(std::string name, core::Params params, net::NetworkConfig net_config,
             std::uint64_t seed)
    : name_(std::move(name)), system_(params, std::move(net_config), seed) {}

void Topic::create(NodeId creator) {
  if (contact_) throw std::logic_error("Topic: already created");
  auto& node = system_.add_node(creator);
  node.set_deliver([this, creator](NodeId publisher, const net::Payload& event) {
    if (auto it = handlers_.find(creator); it != handlers_.end() && it->second) {
      it->second(publisher, event);
    }
  });
  node.bootstrap();
  contact_ = creator;
}

void Topic::subscribe(NodeId subscriber) {
  if (!contact_) throw std::logic_error("Topic: not created yet");
  auto& node = system_.add_node(subscriber);
  node.set_deliver([this, subscriber](NodeId publisher, const net::Payload& event) {
    if (auto it = handlers_.find(subscriber); it != handlers_.end() && it->second) {
      it->second(publisher, event);
    }
  });
  node.join(*contact_);
}

void Topic::unsubscribe(NodeId subscriber) { system_.node(subscriber).leave(); }

void Topic::publish(NodeId publisher, Bytes event) {
  system_.node(publisher).broadcast(std::move(event));
}

void Topic::set_event_handler(NodeId subscriber, EventFn fn) {
  handlers_[subscriber] = std::move(fn);
}

bool Topic::is_subscribed(NodeId n) {
  return system_.has_node(n) && system_.node(n).joined();
}

void Topic::settle(DurationMicros duration) {
  system_.simulator().run_until(system_.simulator().now() + duration);
}

ASubService::ASubService(core::Params params, net::NetworkConfig net_config, std::uint64_t seed)
    : params_(params), net_config_(std::move(net_config)), seed_(seed) {}

Topic& ASubService::create_topic(const std::string& name, NodeId creator) {
  auto it = topics_.find(name);
  if (it != topics_.end()) throw std::invalid_argument("ASub: topic exists");
  auto t = std::make_unique<Topic>(name, params_, net_config_, seed_ ^ topics_.size());
  t->create(creator);
  return *topics_.emplace(name, std::move(t)).first->second;
}

Topic& ASubService::topic(const std::string& name) {
  auto it = topics_.find(name);
  if (it == topics_.end()) throw std::invalid_argument("ASub: unknown topic");
  return *it->second;
}

}  // namespace atum::asub
