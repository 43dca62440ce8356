#include "overlay/gossip.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

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

void NeighborRefs::push_back(const NeighborRef& n) {
  if (size_ == kCapacity) throw std::length_error("NeighborRefs: more than two refs per cycle");
  refs_[size_++] = n;
}

NeighborRefs choose_relays(const ForwardFn& forward, const BroadcastId& id,
                           const net::Payload& payload, const NeighborRefs& neighbors) {
  NeighborRefs out;
  for (const NeighborRef& n : neighbors) {
    // Deterministic delivery guarantee: the cycle-0 successor link is always
    // used, whatever the application callback says.
    bool mandatory = (n.cycle == 0 && n.direction == 0);
    if (mandatory || (forward && forward(id, payload, n))) {
      out.push_back(n);
    }
  }
  return out;
}

SendCoalescer::SendCoalescer(net::Transport transport, Rng& rng)
    : transport_(std::move(transport)), rng_(rng) {}

SendCoalescer::~SendCoalescer() { discard(); }

void SendCoalescer::enqueue(NodeId dest, net::MsgType type, net::Payload frame) {
  if (type != net::MsgType::kGroupMsgFull && type != net::MsgType::kGroupMsgDigest) {
    throw std::logic_error("SendCoalescer: only group-message frames coalesce");
  }
  ++frames_enqueued_;
  queue_.push_back({dest, type, static_cast<std::uint32_t>(queue_.size()), std::move(frame)});
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
  // Take the queue, buffer and all: it is freed when the flush returns.
  std::vector<Queued> frames = std::move(queue_);
  // Group by destination (ascending — a deterministic set), each keeping
  // its frames in enqueue order: the enqueue index breaks ties, so this
  // sort gives a stable sort's order without its scratch buffer.
  std::sort(frames.begin(), frames.end(), [](const Queued& a, const Queued& b) {
    return a.dest != b.dest ? a.dest < b.dest : a.index < b.index;
  });
  // Compact each destination's run in place, keeping the first copy of a
  // frame enqueued more than once for it. A relay fanning one broadcast out
  // to overlapping neighbor groups enqueues the same frozen frame for the
  // same node once per group. Buffer identity (not content) is the test:
  // the fan-out paths share one frozen Payload, so repeats alias one buffer.
  // Run k's start goes into entry k's index: a run keeps at least its first
  // frame, so entry k lies below every frame still to be compacted.
  std::size_t kept = 0;
  std::size_t runs = 0;
  for (std::size_t i = 0; i < frames.size();) {
    const NodeId dest = frames[i].dest;
    const std::size_t begin = kept;
    for (; i < frames.size() && frames[i].dest == dest; ++i) {
      const Queued& q = frames[i];
      bool repeat = false;
      for (std::size_t k = begin; k < kept && !repeat; ++k) {
        repeat = frames[k].type == q.type && frames[k].frame.data() == q.frame.data() &&
                 frames[k].frame.size() == q.frame.size();
      }
      if (repeat) continue;
      if (kept != i) frames[kept] = std::move(frames[i]);
      ++kept;
    }
    frames[runs++].index = static_cast<std::uint32_t>(begin);
  }
  // Randomize the send order across destinations (§5.1). The draws depend
  // only on the number of runs, one per destination.
  rng_.shuffle_n(runs, [&frames](std::size_t a, std::size_t b) {
    std::swap(frames[a].index, frames[b].index);
  });
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t begin = frames[r].index;
    const NodeId dest = frames[begin].dest;
    std::size_t end = begin + 1;
    while (end < kept && frames[end].dest == dest) ++end;
    for (std::size_t i = begin; i < end; i += kMaxFramesPerEnvelope) {
      const std::size_t stop = std::min(i + kMaxFramesPerEnvelope, end);
      if (stop - i == 1) {
        // A lone frame travels as itself: zero coalescing overhead.
        transport_.send(dest, frames[i].type, std::move(frames[i].frame));
        ++messages_sent_;
        continue;
      }
      std::size_t size = ByteWriter::varint_size(stop - i);
      for (std::size_t j = i; j < stop; ++j) {
        size += 2 + ByteWriter::varint_size(frames[j].frame.size()) + frames[j].frame.size();
      }
      ByteWriter w(size);
      w.varint(stop - i);
      for (std::size_t j = i; j < stop; ++j) {
        const net::Payload& frame = frames[j].frame;
        w.u16(static_cast<std::uint16_t>(frames[j].type));
        w.bytes(frame.data(), frame.size());
        if (tracing && frame.size() >= 16) {
          // Group-message wire layout: u64 from_group, u64 seq, body. The
          // seq IS the broadcast's digest prefix, i.e. the trace key.
          ByteReader fr(frame);
          // lint: handler-serde-safety-ok(locally-built frame; the size()>=16 gate covers both u64 reads)
          fr.u64();  // from_group
          // lint: handler-serde-safety-ok(locally-built frame; the size()>=16 gate covers both u64 reads)
          tracer_->record(transport_.simulator().now(), transport_.self(),
                          obs::TracePoint::kCoalesce, fr.u64(), stop - i);
        }
      }
      transport_.send(dest, net::MsgType::kGroupMsgEnvelope, w.take());
      ++messages_sent_;
    }
  }
}

void SendCoalescer::discard() {
  if (flush_event_ != 0) {
    transport_.simulator().cancel(flush_event_);
    flush_event_ = 0;
  }
  queue_ = std::vector<Queued>();  // frees the buffer, as flush() does
}

}  // namespace atum::overlay
