// obs::Registry — the one deterministic metrics surface for the whole
// runtime. Two cell kinds:
//
//   Counter   monotonically increasing u64 (atomic, relaxed — safe to
//             bump from the TSan-stressed threads without ordering cost)
//   Histogram log-linear bucketed value distribution (atomic buckets)
//
// plus Probes: registered std::function<u64()> polled only at sample()
// time. Every level (a size, a live count) is a probe. Probes put hot
// counters that stay plain fields (NetworkStats, sha256_digest_count, the
// simulator's event counts, per-node coalescer counts) on the registry
// without touching their hot paths — the cost of a probe is zero between
// samples. ScenarioDriver builds its whole report from Samples, so every
// probe runs at each phase end and telemetry tick.
//
// Determinism rules (enforced by tools/atum_lint.py wall-clock bans):
//  - no wall-clock anywhere in src/obs/: every Sample is stamped with the
//    caller-supplied sim-time, so same seed => byte-identical samples;
//  - iteration is sorted: cells live behind a std::map keyed by
//    (name, sorted label vector), so sample() emits a stable order
//    regardless of registration order;
//  - cell addresses are stable (deque storage): callers cache Counter*
//    once and bump it forever, no lock on the hot path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace atum::obs {

// Sorted key=value pairs distinguishing cells that share one name
// (e.g. msg_class=gossip vs msg_class=walk). Sorted at registration so
// {a=1,b=2} and {b=2,a=1} are the same cell and iteration is stable.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t by = 1) { v_.fetch_add(by, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Log-linear histogram: each power of two is split into kSubBuckets
// linear sub-buckets, so relative error is bounded at ~1/kSubBuckets
// across the full u64 range with a fixed ~256-slot footprint. Values
// 0..3 land in exact singleton buckets.
class Histogram {
 public:
  static constexpr std::uint32_t kSubBits = 2;  // 4 sub-buckets per octave
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  // Octaves [2^2, 2^64) * 4 sub-buckets + 4 exact small values.
  static constexpr std::size_t kBucketCount = kSubBuckets + (64 - kSubBits) * kSubBuckets;

  // Bucket index for a value; pure function of the value (exposed so the
  // unit suite can pin the edges).
  static std::size_t bucket_index(std::uint64_t v);
  // Smallest value mapping to bucket `idx` (inverse of bucket_index on
  // bucket lower edges).
  static std::uint64_t bucket_lower_bound(std::size_t idx);

  void record(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t idx) const {
    return buckets_[idx].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class CellKind { kCounter, kHistogram, kProbe };

// One cell's value at sample() time. Histograms flatten to (count, sum)
// plus the non-empty buckets as (lower_bound, count) pairs.
struct SampledCell {
  std::string name;
  Labels labels;
  CellKind kind = CellKind::kCounter;
  std::int64_t value = 0;  // counter/probe value; histogram count
  std::uint64_t sum = 0;   // histogram only
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;  // histogram only
};

// A full registry snapshot stamped with the sim-time it was taken at.
// Cells are sorted by (name, labels) — byte-determinism downstream
// (scenario time_series) relies on this order.
struct Sample {
  std::int64_t at = 0;  // sim-time micros supplied by the caller
  std::vector<SampledCell> cells;

  // Point read over the snapshot: what Registry::value read at sample()
  // time (a histogram reads its count; 0 if absent).
  std::uint64_t value(const std::string& name, const Labels& labels = {}) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registration returns a stable pointer; repeated calls with the same
  // (name, labels) return the same cell. Registration takes a lock —
  // do it at setup, cache the pointer, bump lock-free afterwards.
  Counter& counter(std::string name, Labels labels = {});
  Histogram& histogram(std::string name, Labels labels = {});

  // Polled source: `fn` is invoked once per sample() and must be pure
  // reads. Re-registering a (name, labels) probe replaces the function.
  void probe(std::string name, Labels labels, std::function<std::uint64_t()> fn);

  // Snapshot every cell, sorted by (name, labels), stamped at `at`.
  Sample sample(std::int64_t at) const;

  // Point read of one live cell (a histogram reads its count; 0 if
  // absent). Sample::value is the same read over a snapshot.
  std::uint64_t value(const std::string& name, const Labels& labels = {}) const;

  std::size_t cell_count() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  struct Entry {
    CellKind kind = CellKind::kCounter;
    Counter* counter = nullptr;
    Histogram* histogram = nullptr;
    std::function<std::uint64_t()> probe;
  };

  mutable std::mutex mu_;  // guards the maps/deques, not cell updates
  std::map<Key, Entry> cells_;
  std::deque<Counter> counters_;
  std::deque<Histogram> histograms_;
};

}  // namespace atum::obs
