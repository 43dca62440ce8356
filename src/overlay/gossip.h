// Gossip dissemination among vgroups (§3.2, §3.3.4).
//
// Broadcast phase two: when a node first sees a broadcast it delivers the
// message and then consults the application-provided `forward` callback
// once per overlay neighbor to decide whether to relay. To turn gossip's
// probabilistic delivery into a deterministic guarantee, the relay choice
// always includes a designated cycle (cycle 0, successor direction) in
// addition to whatever the callback chooses — the paper's "gossip at least
// with neighboring vgroups on a specific cycle". The first sighting itself
// is the group-message receiver's delivered set (group_message.h).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/types.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace atum::obs {
class Tracer;
}  // namespace atum::obs

namespace atum::overlay {

// A neighbor as seen by the forward callback: which group, reached over
// which cycle and direction (0 = successor, 1 = predecessor).
struct NeighborRef {
  GroupId group = kInvalidGroup;
  std::size_t cycle = 0;
  int direction = 0;
  friend bool operator==(const NeighborRef&, const NeighborRef&) = default;
};

// The most H-graph cycles a vgroup keeps (core::Params::validate and
// group::VGroupState enforce it).
inline constexpr std::size_t kMaxCycles = 16;

// A set of distinct neighbor refs, at most two per cycle, held inline:
// building, filtering or copying one allocates nothing, so the relay
// choice on the per-delivery path stays off the heap.
class NeighborRefs {
 public:
  static constexpr std::size_t kCapacity = 2 * kMaxCycles;

  // Throws std::length_error past kCapacity.
  void push_back(const NeighborRef& n);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NeighborRef& operator[](std::size_t i) const { return refs_[i]; }
  const NeighborRef* begin() const { return refs_.data(); }
  const NeighborRef* end() const { return refs_.data() + size_; }

 private:
  std::array<NeighborRef, kCapacity> refs_;
  std::size_t size_ = 0;
};

// The application's §3.3.4 `forward(message, neighbor)` callback. The
// payload is a refcounted view of the broadcast body (shared with every
// other consumer of the frame — do not expect a private copy).
using ForwardFn = std::function<bool(const BroadcastId& id, const net::Payload& payload,
                                     const NeighborRef& neighbor)>;

// Built-in forwarding policies.
// Latency-optimal: relay to every neighbor on every cycle (flooding).
ForwardFn forward_flood();
// Throughput-oriented (AStream): relay only along the given cycles.
ForwardFn forward_cycles(std::set<std::size_t> cycles);
// Classic randomized gossip: relay to each neighbor with probability p.
ForwardFn forward_random(double p, std::uint64_t seed);
// Never relay (the unwise choice §3.3.4 warns about; used in tests).
ForwardFn forward_none();

// The neighbors one broadcast is relayed to: those `forward` (may be empty)
// picks, plus always the deterministic cycle-0 successor link. `forward`
// is asked once per other neighbor, in order.
NeighborRefs choose_relays(const ForwardFn& forward, const BroadcastId& id,
                           const net::Payload& payload, const NeighborRefs& neighbors);

// Per-node send coalescing for group-message frames (perf, riding on the
// simulator's event granularity). A gossip relay fans one broadcast out to
// several neighbor vgroups whose member sets overlap the same physical
// destinations, and one tick can decide several broadcasts; without
// coalescing each (frame, destination) pair is its own transport message
// and pays the fixed per-message costs (Message::kHeaderOverhead on the
// wire, per_message_cpu at the receiver). enqueue() instead appends frames
// to one flat queue for the tick, and a tick-end flush groups the queue by
// destination and sends everything bound for one node as a single
// kGroupMsgEnvelope message — the fixed costs amortize across the
// coalesced frames exactly as the SMR batch amortizes quorum cost across
// ops. The queue allocates per tick, never per destination: a caller
// about to fan one frame out reserve()s its whole fan-out, so the queue
// grows once, not by doubling. The flush takes the buffer with it, so an
// idle node holds none. The flush groups frames by sorting them on
// (destination, enqueue index), which is the stable order and needs no
// scratch buffer.
//
// Determinism: the flush runs via schedule_after(0), which the simulator
// fires after every event already scheduled for the current instant, so
// the envelope contents depend only on what the tick produced, never on
// wall-clock interleaving. Destination flush order is randomized through
// the caller's seeded Rng — §5.1's randomized send order applied at the
// granularity that still matters once each destination gets at most one
// message per tick (desynchronizing which destination's envelope leaves
// the egress queue first across senders).
//
// Envelope wire format: varint frame_count, then per frame
// u16 inner_type (kGroupMsgFull | kGroupMsgDigest), bytes frame. The
// receiver decodes each inner frame as a zero-copy slice of the envelope
// payload (the widened Payload digest memo keeps the per-frame vouch
// digests of one envelope cached side by side).
class SendCoalescer {
 public:
  // Ceiling on frames per envelope: bounds decode cost per message and
  // keeps a single faulty tick from minting an arbitrarily large frame.
  static constexpr std::size_t kMaxFramesPerEnvelope = 32;

  // The Rng must outlive the coalescer (AtumNode passes its per-node rng).
  SendCoalescer(net::Transport transport, Rng& rng);
  ~SendCoalescer();
  SendCoalescer(const SendCoalescer&) = delete;
  SendCoalescer& operator=(const SendCoalescer&) = delete;

  // Queues a group-message frame for `dest`; `type` must be kGroupMsgFull
  // or kGroupMsgDigest. All frames queued for one destination within the
  // current simulator tick leave as one message, in enqueue order. The
  // flush sends the same frozen frame to the same destination once, at
  // its first position, however often a tick enqueued it (a relay whose
  // neighbor groups overlap): the receiver dedups vouches per sender, so
  // a repeat could never contribute anything.
  void enqueue(NodeId dest, net::MsgType type, net::Payload frame);
  // Makes room for `frames` more enqueue() calls this tick at once.
  void reserve(std::size_t frames) { queue_.reserve(queue_.size() + frames); }

  // Sends everything queued now (normally runs automatically at tick end;
  // exposed for tests and explicit drains).
  void flush();
  // Drops everything queued without sending and cancels the pending flush
  // (node shutdown).
  void discard();

  // --- stats (benchmarks / tests) ---
  std::uint64_t frames_enqueued() const { return frames_enqueued_; }
  // Transport messages actually sent (singles + envelopes).
  std::uint64_t messages_sent() const { return messages_sent_; }
  // Per-message fixed costs avoided: frames that shared an envelope or
  // were suppressed as duplicates instead of travelling alone.
  std::uint64_t messages_saved() const { return frames_enqueued_ - messages_sent_; }
  // Frames enqueued since the last flush, repeats included (the flush
  // drops them).
  std::size_t queued() const { return queue_.size(); }

  // Message-lifecycle tracing: frames that leave inside a multi-frame
  // envelope record a kCoalesce event keyed by the frame's group-message
  // seq (= the broadcast's digest prefix — see obs/trace.h). Null tracer
  // or a disabled one costs a single branch at flush.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Queued {
    NodeId dest;
    net::MsgType type;
    // The frame's enqueue index, the sort's tie-break. Once the flush has
    // grouped the frames, entry k's index holds where run k (the k-th
    // destination's frames) begins, and the flush shuffles those starts.
    std::uint32_t index;
    net::Payload frame;
  };

  net::Transport transport_;
  Rng& rng_;
  // This tick's frames in enqueue order. The flush sorts them by
  // destination (a deterministic set), then shuffles the destinations'
  // send order through rng_ (seeded, reproducible).
  std::vector<Queued> queue_;
  sim::EventId flush_event_ = 0;
  obs::Tracer* tracer_ = nullptr;
  // lint: adhoc-counter-ok(pre-registry stats; summed onto the registry by AtumSystem probes)
  std::uint64_t frames_enqueued_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace atum::overlay
