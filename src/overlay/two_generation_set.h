// Rolling id sets for the overlay's dedup paths, and the one dedup window
// they rotate on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "common/types.h"

namespace atum::overlay {

// How long GroupMessageReceiver buffers an undelivered id by default (see
// set_ttl).
inline constexpr DurationMicros kGroupMessageTtl = kMicrosPerMinute;
// Group-message TTLs per rotation of the receiver's delivered-id set, its
// only record of a delivered id.
inline constexpr std::int64_t kDedupWindowTtls = 8;
// The receiver's default dedup window (480 s). GossipState's first-sighting
// set rotates on it too.
inline constexpr DurationMicros kDedupWindow = kDedupWindowTtls * kGroupMessageTtl;

// Ids kept in two generations rotated on simulated time: an id stays in the
// set for at least one period after its insert and at most two, so the set
// holds only the ids inserted over the last two periods. The caller passes
// the time in; the set keeps no clock. Id needs a std::hash specialization.
template <typename Id>
class TwoGenerationSet {
 public:
  bool contains(const Id& id) const { return recent_.contains(id) || prev_.contains(id); }

  // Adds `id`; false if either generation already holds it.
  bool insert(const Id& id) {
    if (prev_.contains(id)) return false;
    return recent_.insert(id).second;
  }

  // Starts a new generation, dropping the oldest, once `period` has passed
  // since the current one started. The first call only starts the clock.
  void rotate(TimeMicros now, DurationMicros period) {
    if (rotate_at_ == 0) {
      rotate_at_ = now + period;
      return;
    }
    if (now < rotate_at_) return;
    prev_ = std::move(recent_);
    recent_.clear();
    rotate_at_ = now + period;
  }

  std::size_t size() const { return recent_.size() + prev_.size(); }

 private:
  std::unordered_set<Id> recent_;
  std::unordered_set<Id> prev_;
  TimeMicros rotate_at_ = 0;
};

}  // namespace atum::overlay
