#include "overlay/gossip.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "obs/trace.h"

namespace atum::overlay {

ForwardFn forward_flood() {
  return [](const BroadcastId&, const net::Payload&, const NeighborRef&) { return true; };
}

ForwardFn forward_cycles(std::set<std::size_t> cycles) {
  return [cycles = std::move(cycles)](const BroadcastId&, const net::Payload&,
                                      const NeighborRef& n) { return cycles.contains(n.cycle); };
}

ForwardFn forward_random(double p, std::uint64_t seed) {
  // Deterministic in (broadcast, neighbor): every correct member of a
  // vgroup must make the same relay decision, or the receiving group could
  // fall short of the majority vouches a group message needs.
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return [p, seed, mix](const BroadcastId& id, const net::Payload&, const NeighborRef& n) {
    std::uint64_t h = mix(seed);
    for (std::uint64_t v :
         {id.origin, id.seq, static_cast<std::uint64_t>(n.group),
          static_cast<std::uint64_t>(n.cycle), static_cast<std::uint64_t>(n.direction)}) {
      h = mix(h ^ mix(v + 0x9e3779b97f4a7c15ULL));
    }
    // Map the hash to [0,1) and compare against p.
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < p;
  };
}

ForwardFn forward_none() {
  return [](const BroadcastId&, const net::Payload&, const NeighborRef&) { return false; };
}

SendCoalescer::SendCoalescer(net::Transport transport, Rng& rng)
    : transport_(std::move(transport)), rng_(rng) {}

SendCoalescer::~SendCoalescer() { discard(); }

void SendCoalescer::enqueue(NodeId dest, net::MsgType type, net::Payload frame) {
  if (type != net::MsgType::kGroupMsgFull && type != net::MsgType::kGroupMsgDigest) {
    throw std::logic_error("SendCoalescer: only group-message frames coalesce");
  }
  ++frames_enqueued_;
  auto& pending = queue_[dest];
  // A relay fanning one broadcast out to overlapping neighbor groups
  // enqueues the same frozen frame for the same node once per group; a
  // receiver dedups vouches per sender anyway, so duplicates are pure
  // overhead. Buffer identity (not content) is the test: the fan-out paths
  // share one frozen Payload, so duplicates alias the same buffer.
  for (const auto& [t, f] : pending) {
    if (t == type && f.data() == frame.data() && f.size() == frame.size()) return;
  }
  pending.emplace_back(type, std::move(frame));
  if (flush_event_ == 0) {
    // schedule_after(0) fires after every event already scheduled for the
    // current instant, so the flush sees every frame this tick produces.
    flush_event_ = transport_.simulator().schedule_after(0, [this] {
      flush_event_ = 0;
      flush();
    });
  }
}

void SendCoalescer::flush() {
  if (flush_event_ != 0) {
    transport_.simulator().cancel(flush_event_);
    flush_event_ = 0;
  }
  if (queue_.empty()) return;
  // Drain into a vector (sorted by destination — deterministic set), then
  // randomize the send order across destinations (§5.1).
  std::vector<std::pair<NodeId, std::vector<std::pair<net::MsgType, net::Payload>>>> batch;
  batch.reserve(queue_.size());
  for (auto& [dest, frames] : queue_) batch.emplace_back(dest, std::move(frames));
  queue_.clear();
  rng_.shuffle(batch);
  for (auto& [dest, frames] : batch) {
    for (std::size_t i = 0; i < frames.size(); i += kMaxFramesPerEnvelope) {
      std::size_t end = std::min(i + kMaxFramesPerEnvelope, frames.size());
      if (end - i == 1) {
        // A lone frame travels as itself: zero coalescing overhead.
        transport_.send(dest, frames[i].first, std::move(frames[i].second));
        ++messages_sent_;
        continue;
      }
      ByteWriter w;
      w.varint(end - i);
      const bool tracing = tracer_ != nullptr && tracer_->enabled();
      for (std::size_t j = i; j < end; ++j) {
        w.u16(static_cast<std::uint16_t>(frames[j].first));
        w.bytes(frames[j].second.data(), frames[j].second.size());
        if (tracing && frames[j].second.size() >= 16) {
          // Group-message wire layout: u64 from_group, u64 seq, body. The
          // seq IS the broadcast's digest prefix, i.e. the trace key.
          ByteReader fr(frames[j].second);
          // lint: handler-serde-safety-ok(locally-built frame; the size()>=16 gate covers both u64 reads)
          fr.u64();  // from_group
          // lint: handler-serde-safety-ok(locally-built frame; the size()>=16 gate covers both u64 reads)
          tracer_->record(transport_.simulator().now(), transport_.self(),
                          obs::TracePoint::kCoalesce, fr.u64(), end - i);
        }
      }
      transport_.send(dest, net::MsgType::kGroupMsgEnvelope, w.take());
      ++messages_sent_;
      ++envelopes_sent_;
    }
  }
}

void SendCoalescer::discard() {
  if (flush_event_ != 0) {
    transport_.simulator().cancel(flush_event_);
    flush_event_ = 0;
  }
  queue_.clear();
}

std::size_t SendCoalescer::queued() const {
  std::size_t n = 0;
  for (const auto& [dest, frames] : queue_) n += frames.size();
  return n;
}

bool GossipState::first_sighting(const BroadcastId& id, TimeMicros now) {
  seen_.rotate(now, kDedupWindow);
  return seen_.insert(id);
}

bool GossipState::seen(const BroadcastId& id) const { return seen_.contains(id); }

std::vector<NeighborRef> GossipState::relays(const BroadcastId& id, const net::Payload& payload,
                                             const std::vector<NeighborRef>& neighbors) const {
  std::vector<NeighborRef> out;
  for (const NeighborRef& n : neighbors) {
    // Deterministic delivery guarantee: the cycle-0 successor link is always
    // used, whatever the application callback says.
    bool mandatory = (n.cycle == 0 && n.direction == 0);
    if (mandatory || (forward_ && forward_(id, payload, n))) {
      out.push_back(n);
    }
  }
  return out;
}

}  // namespace atum::overlay
