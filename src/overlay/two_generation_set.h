// The rolling id set behind the group-message receiver's record of
// delivered content, and the window it rotates on.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/flat_table.h"
#include "common/types.h"

namespace atum::overlay {

// How long GroupMessageReceiver buffers an undelivered id by default (see
// set_ttl).
inline constexpr DurationMicros kGroupMessageTtl = kMicrosPerMinute;
// Group-message TTLs per rotation of the receiver's delivered set, the
// node's one record of delivered content (480 s at the default TTL).
inline constexpr std::int64_t kDedupWindowTtls = 8;

// Ids kept in two generations rotated on simulated time. The set rotates
// only inside a rotate() call, once a period has passed since the current
// generation started; rotating drops the older generation. An id therefore
// stays for at least one period after its insert. After a quiet spell longer
// than a period (no call) it can stay longer than two periods, but the set
// never holds more than two generations of inserts. The caller passes the
// time in; the set keeps no clock. Id must suit FlatHash.
template <typename Id>
class TwoGenerationSet {
 public:
  bool contains(const Id& id) const { return recent_.contains(id) || prev_.contains(id); }

  // Adds `id`; false if either generation already holds it.
  bool insert(const Id& id) {
    if (prev_.contains(id)) return false;
    return recent_.insert(id);
  }

  // Starts a new generation, dropping the oldest, once `period` has passed
  // since the current one started. The first call only starts the clock.
  void rotate(TimeMicros now, DurationMicros period) {
    if (rotate_at_ == 0) {
      rotate_at_ = now + period;
      return;
    }
    if (now < rotate_at_) return;
    prev_.swap(recent_);
    recent_.clear();  // keeps its capacity for the next generation
    rotate_at_ = now + period;
  }

  std::size_t size() const { return recent_.size() + prev_.size(); }

 private:
  FlatSet<Id> recent_;
  FlatSet<Id> prev_;
  TimeMicros rotate_at_ = 0;
};

}  // namespace atum::overlay
