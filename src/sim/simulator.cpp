#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace atum::sim {

namespace {
// Below this size a compaction sweep costs more than it saves.
constexpr std::size_t kMinCompactHeap = 64;
}  // namespace

EventId Simulator::schedule_at(TimeMicros t, EventFn fn) {
  if (t < now_) t = now_;  // clamp: "immediately" for past deadlines
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slot_count_);
    if ((slot_count_ & kSlotChunkMask) == 0) {
      // lint: hot-path-alloc-ok(amortized arena growth: one chunk per kSlotChunkSize slots, never freed)
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    ++slot_count_;
  }
  Slot& s = slot_at(idx);
  s.fn = std::move(fn);
  s.armed = true;
  EventId id = make_id(s.gen, idx);
  if (t - now_ < kRingSpan) {
    ring_push(idx, t);
  } else {
    heap_.push_back(Entry{t, next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_;
  return id;
}

EventId Simulator::schedule_after(DurationMicros delay, EventFn fn) {
  if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::ring_push(std::uint32_t idx, TimeMicros t) {
  if (!ring_) {
    // lint: hot-path-alloc-ok(once per Simulator: the ring is never freed before it)
    ring_ = std::make_unique<Ring>();
  }
  const std::uint32_t b = static_cast<std::uint32_t>(t) & kRingMask;
  Slot& s = slot_at(idx);
  s.bucket = static_cast<std::uint16_t>(b);
  s.next = kNil;
  Ring::Fifo& fifo = ring_->buckets[b];
  std::uint64_t& word = ring_->occupied[b >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (b & 63);
  if ((word & bit) != 0) {
    s.prev = fifo.tail;
    slot_at(fifo.tail).next = idx;
  } else {
    s.prev = kNil;
    fifo.head = idx;
    word |= bit;
    ring_->occupied_words |= std::uint64_t{1} << (b >> 6);
  }
  fifo.tail = idx;
}

void Simulator::ring_unlink(std::uint32_t idx) {
  Slot& s = slot_at(idx);
  Ring::Fifo& fifo = ring_->buckets[s.bucket];
  if (s.prev == kNil) {
    fifo.head = s.next;
  } else {
    slot_at(s.prev).next = s.next;
  }
  if (s.next == kNil) {
    fifo.tail = s.prev;
  } else {
    slot_at(s.next).prev = s.prev;
  }
  if (fifo.head == kNil) {
    std::uint64_t& word = ring_->occupied[s.bucket >> 6];
    word &= ~(std::uint64_t{1} << (s.bucket & 63));
    if (word == 0) ring_->occupied_words &= ~(std::uint64_t{1} << (s.bucket >> 6));
  }
  s.bucket = kInHeap;
}

std::uint32_t Simulator::next_bucket() const {
  const std::uint32_t from = static_cast<std::uint32_t>(now_) & kRingMask;
  std::uint32_t w = from >> 6;
  const std::uint64_t bits = ring_->occupied[w] & (~std::uint64_t{0} << (from & 63));
  if (bits == 0) {
    // The first non-empty word after w; past the last word the ring wraps
    // to word 0 and on to w itself, whose low bits are the window's far end.
    const std::uint64_t later = ring_->occupied_words & ((~std::uint64_t{0} << w) << 1);
    w = static_cast<std::uint32_t>(std::countr_zero(later != 0 ? later : ring_->occupied_words));
    return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(ring_->occupied[w]));
  }
  return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
}

void Simulator::release_slot(std::uint32_t idx) {
  Slot& s = slot_at(idx);
  s.fn = nullptr;  // reclaim the closure now, not at pop time
  s.armed = false;
  if (++s.gen == 0) s.gen = 1;  // keep handles non-zero across wraparound
  free_slots_.push_back(idx);
}

void Simulator::cancel(EventId id) {
  if (!slot_matches(id)) return;  // unknown, already fired, or cancelled
  const std::uint32_t idx = index_of(id);
  --live_;
  if (slot_at(idx).bucket != kInHeap) {
    ring_unlink(idx);  // no entry stays behind
    release_slot(idx);
    return;
  }
  release_slot(idx);
  ++stale_in_heap_;  // the heap entry stays behind until popped or swept
  maybe_compact();
}

void Simulator::maybe_compact() {
  if (heap_.size() < kMinCompactHeap || stale_in_heap_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Entry& e) { return !slot_matches(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_in_heap_ = 0;
}

bool Simulator::settle_top() {
  while (!heap_.empty()) {
    if (slot_matches(heap_.front().id)) return true;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_in_heap_;
  }
  return false;
}

bool Simulator::next_due(Due& next) {
  const bool in_heap = settle_top();
  if (ring_ && ring_->occupied_words != 0) {
    const std::uint32_t b = next_bucket();
    const TimeMicros at =
        now_ + static_cast<TimeMicros>((b - static_cast<std::uint32_t>(now_)) & kRingMask);
    // Ties go to the heap: its entry was scheduled first (see the header).
    if (!in_heap || at < heap_.front().at) {
      next = Due{at, static_cast<std::uint16_t>(b)};
      return true;
    }
  }
  if (!in_heap) return false;
  next = Due{heap_.front().at, kInHeap};
  return true;
}

void Simulator::fire(const Due& next) {
  std::uint32_t idx;
  if (next.bucket == kInHeap) {
    idx = index_of(heap_.front().id);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  } else {
    idx = ring_->buckets[next.bucket].head;
    ring_unlink(idx);
  }
  Slot& s = slot_at(idx);
  // Disarm first: the handle dies and cancel() on it no-ops. The chunked
  // arena is address-stable, so the closure runs IN PLACE even if it
  // schedules new events; the slot is destroyed and recycled only after it
  // returns (a nested schedule can never be handed this slot meanwhile —
  // it is neither armed nor on the free list).
  s.armed = false;
  if (++s.gen == 0) s.gen = 1;
  --live_;
  now_ = next.at;
  ++executed_;
  try {
    s.fn();
  } catch (...) {
    // A throwing handler must not leak the slot (or the Payload buffers
    // its closure pins): recycle before propagating.
    s.fn = nullptr;
    free_slots_.push_back(idx);
    throw;
  }
  s.fn = nullptr;
  free_slots_.push_back(idx);
}

bool Simulator::step() {
  Due next;
  if (!next_due(next)) return false;
  fire(next);
  return true;
}

std::uint64_t Simulator::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimeMicros t) {
  std::uint64_t n = 0;
  Due next;
  while (next_due(next) && next.at <= t) {
    fire(next);
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

PeriodicTimer::PeriodicTimer(Simulator& sim, DurationMicros period, EventFn fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  if (period <= 0) throw std::invalid_argument("PeriodicTimer: period must be positive");
  arm();
}

void PeriodicTimer::arm() {
  pending_ = sim_.schedule_after(period_, [this] {
    if (!running_) return;
    arm();   // re-arm first so fn_ may stop() us
    fn_();
  });
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
}

}  // namespace atum::sim
