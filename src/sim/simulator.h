// Discrete-event simulation engine.
//
// This is the substrate substituting for the paper's EC2 deployment: every
// node's protocol logic runs as event handlers on one simulated clock.
// Events with equal timestamps fire in scheduling order (stable), which
// together with seeded RNG makes whole experiments bit-reproducible.
//
// Storage model: event closures live in a generation-stamped slot arena of
// fixed-size chunks (stable addresses — closures are placed once and
// execute in place, never relocated). Closures are held in EventFn, a
// small-buffer-optimized callable sized for the message-delivery closure,
// so the per-event hot path performs no heap allocation at all.
//
// Two structures order the pending events:
// * A ring of kRingSpan one-microsecond FIFO buckets holds every event due
//   less than kRingSpan after now() when it is scheduled — the message
//   deliveries, nearly all events. An event due at t goes to bucket
//   t mod kRingSpan; slots are linked through the arena, so schedule,
//   cancel and pop are O(1), and a two-level bitmap of non-empty buckets
//   finds the next one in two count-trailing-zeros steps. The clock never
//   passes a pending event, so all ring events stay due in
//   [now, now + kRingSpan) and a bucket holds one due time,
//   now + ((b - now) mod kRingSpan).
// * A binary min-heap of lightweight {time, seq, id} entries holds the
//   later events, mostly timers. Entries stay there until they fire.
// step() fires the earlier of the first non-empty bucket and the heap top,
// and the heap wins ties. That is exactly (time, scheduling order): a heap
// entry due at T was scheduled while T was kRingSpan or more ahead, and a
// ring entry only once T was nearer, so the heap entry came first. Within
// a bucket the FIFO is scheduling order, so ring entries need no seq.
//
// cancel() is O(1) amortized and frees the closure and recycles the slot
// at once. A ring event is unlinked from its bucket; a heap event leaves a
// stale entry that is swept by periodic compaction once stale entries
// outnumber the live ones. Under churn (schedule/cancel cycles, e.g.
// heartbeat timeouts across 100k nodes) memory stays proportional to the
// number of *pending* events, not to the number ever scheduled or
// cancelled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace atum::sim {

// Move-only callable for simulator events, with small-buffer-optimized
// storage.
//
// Every simulated message delivery schedules one closure capturing the
// network pointer plus the Message being delivered (~64 bytes with a
// refcounted sliced Payload). std::function's small-object buffer (16
// bytes on libstdc++) pushed every such closure onto the heap, making
// allocator traffic the dominant cost of bench_micro fan-out. EventFn
// sizes its inline buffer for that delivery closure; larger callables
// fall back to the heap transparently. test_sim pins the delivery shape
// to the inline path.
class EventFn {
 public:
  // Exactly fits the delivery closure (SimNetwork* + Message with its
  // 32-byte sliced Payload). Growing Message pushes deliveries onto the
  // heap-fallback path — test_sim pins the inline invariant so that shows
  // up as a test failure, not a silent perf cliff.
  static constexpr std::size_t kInlineCapacity = 64;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT: implicit, drop-in for std::function<void()>
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= 8 &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      // lint: naked-new-ok(SBO heap fallback; owned via ops_->destroy) // lint: hot-path-alloc-ok(SBO miss only: schedule-path callables stay inline)
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  // Empty EventFns throw like std::function would (rather than chasing a
  // null ops_): scheduling a nullptr event stays a catchable mistake.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(storage_);
  }
  explicit operator bool() const noexcept { return ops_ != nullptr; }
  // True when the callable lives in the inline buffer (no heap
  // allocation); introspection for the zero-allocation regression tests.
  bool stores_inline() const noexcept { return ops_ != nullptr && ops_->inline_stored; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move into dst + destroy src. nullptr => relocation is a plain memcpy
    // of `size` bytes (trivially-copyable closures, and the heap case
    // where the buffer only holds a pointer) — the hot-path moves then
    // reduce to a small copy instead of an indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;  // nullptr => trivially destructible
    std::uint32_t size;               // callable footprint in the buffer
    bool inline_stored;
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops kOps{
        [](void* s) { (*static_cast<Fn*>(s))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void* dst, void* src) noexcept {
                Fn* f = static_cast<Fn*>(src);
                ::new (dst) Fn(std::move(*f));
                f->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
        /*size=*/sizeof(Fn),
        /*inline_stored=*/true};
    return &kOps;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops kOps{
        [](void* s) { (**static_cast<Fn**>(s))(); },
        /*relocate=*/nullptr,  // buffer holds one pointer: memcpy moves it
        [](void* s) noexcept { delete *static_cast<Fn**>(s); },
        /*size=*/sizeof(Fn*),
        /*inline_stored=*/false};
    return &kOps;
  }

  void take(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, other.ops_->size);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(8) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};
// Event handle: generation (high 32 bits) | slot index (low 32 bits).
// Generations start at 1, so a valid handle is never 0 and a handle stays
// invalid forever once its event fired or was cancelled, even after the
// slot is recycled. 0 is the reserved "no event" value.
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeMicros now() const { return now_; }

  // Schedules fn at absolute time t (>= now). Returns a handle for cancel().
  EventId schedule_at(TimeMicros t, EventFn fn);
  // Schedules fn after a non-negative delay.
  EventId schedule_after(DurationMicros delay, EventFn fn);
  // Cancels a pending event; no-op if it already fired or was cancelled.
  // O(1) amortized; releases the event's closure immediately.
  void cancel(EventId id);

  // Runs events until the queue drains or `limit` events fired.
  // Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);
  // Runs events with timestamp <= t, then advances the clock to exactly t.
  std::uint64_t run_until(TimeMicros t);
  // Executes the single next event, if any. Returns false on empty queue.
  bool step();

  bool empty() const { return live_ == 0; }
  std::uint64_t executed_events() const { return executed_; }
  // Exact count of pending (scheduled, not yet fired or cancelled) events.
  std::uint64_t live_events() const { return live_; }

  // Introspection for memory-bound tests/benches: queued entries (heap and
  // ring, live + not-yet-swept stale) and arena size (peak concurrent live
  // events). Each live event has one entry, and only the heap keeps stale
  // ones.
  std::size_t heap_size() const { return live_ + stale_in_heap_; }
  std::size_t slot_count() const { return slot_count_; }

 private:
  // Ring geometry: one bucket per microsecond over a 4096 us window. Under
  // receiver ingress queueing about half of a 1000-node broadcast run's
  // deliveries are 1-2 ms ahead; a 1024 us window sent them to the heap
  // and gained nothing.
  static constexpr std::uint32_t kRingShift = 12;
  static constexpr DurationMicros kRingSpan = DurationMicros{1} << kRingShift;
  static constexpr std::uint32_t kRingMask = (std::uint32_t{1} << kRingShift) - 1;
  static constexpr std::uint32_t kNil = UINT32_MAX;     // no slot
  static constexpr std::uint16_t kInHeap = UINT16_MAX;  // Slot::bucket of a heap event
  static_assert(kRingMask < kInHeap);

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    // Neighbours in the ring bucket's FIFO (slot indices); unused in the heap.
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint16_t bucket = kInHeap;
    bool armed = false;
  };
  // Allocated at the first ring schedule, so constructing a Simulator stays
  // cheap. A bucket's head and tail are meaningful only while its bit in
  // `occupied` is set.
  struct Ring {
    struct Fifo {
      std::uint32_t head;
      std::uint32_t tail;
    };
    Fifo buckets[kRingMask + 1];
    std::uint64_t occupied[(kRingMask + 1) / 64];  // bit b: bucket b is non-empty
    std::uint64_t occupied_words;                  // bit w: occupied[w] != 0
  };
  // The next event to fire: its due time and where it is queued.
  struct Due {
    TimeMicros at = 0;
    std::uint16_t bucket = kInHeap;  // kInHeap: the heap top
  };
  // Slots live in fixed-size chunks so their addresses are stable: an
  // event's closure executes IN PLACE (no move out of the arena) even when
  // the callback schedules new events and grows the arena. Together with
  // EventFn's inline storage this makes the per-event hot path zero-alloc
  // and zero-relocation.
  static constexpr std::size_t kSlotChunkShift = 8;  // 256 slots per chunk
  static constexpr std::size_t kSlotChunkSize = std::size_t{1} << kSlotChunkShift;
  static constexpr std::size_t kSlotChunkMask = kSlotChunkSize - 1;

  Slot& slot_at(std::uint32_t idx) {
    return slot_chunks_[idx >> kSlotChunkShift][idx & kSlotChunkMask];
  }
  const Slot& slot_at(std::uint32_t idx) const {
    return slot_chunks_[idx >> kSlotChunkShift][idx & kSlotChunkMask];
  }
  struct Entry {
    TimeMicros at;
    std::uint64_t seq;  // FIFO among same-time heap events
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  static constexpr EventId make_id(std::uint32_t gen, std::uint32_t idx) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }
  static constexpr std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }
  static constexpr std::uint32_t index_of(EventId id) { return static_cast<std::uint32_t>(id); }

  bool slot_matches(EventId id) const {
    std::uint32_t idx = index_of(id);
    if (idx >= slot_count_) return false;
    const Slot& s = slot_at(idx);
    return s.armed && s.gen == gen_of(id);
  }
  // Frees the closure, invalidates outstanding handles, recycles the slot.
  void release_slot(std::uint32_t idx);
  // Pops heap entries until the top is live; returns false if none is.
  bool settle_top();
  void maybe_compact();
  // Appends slot idx to the FIFO of the bucket due at t (t - now_ < kRingSpan).
  void ring_push(std::uint32_t idx, TimeMicros t);
  // Unlinks slot idx from its bucket's FIFO.
  void ring_unlink(std::uint32_t idx);
  // The first non-empty bucket at or after now_, cyclically; the ring holds
  // at least one event.
  std::uint32_t next_bucket() const;
  // Finds the next event to fire; returns false if none is pending.
  bool next_due(Due& next);
  // Dequeues the event `next` names and runs it at its due time.
  void fire(const Due& next);

  TimeMicros now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t stale_in_heap_ = 0;
  std::vector<Entry> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::unique_ptr<Ring> ring_;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  // lint: adhoc-counter-ok(arena bookkeeping; exposed via the sim.slot_count registry probe)
  std::size_t slot_count_ = 0;  // slots ever minted (peak concurrent live events)
  std::vector<std::uint32_t> free_slots_;
};

// RAII periodic timer: fires `fn` every `period` until destroyed or stopped.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, DurationMicros period, EventFn fn);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void arm();

  Simulator& sim_;
  DurationMicros period_;
  EventFn fn_;
  EventId pending_ = 0;
  bool running_ = true;
};

}  // namespace atum::sim
