// Core identifier and time types shared by every Atum module.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace atum {

// Identifies one node (one process/VM in the paper's deployment).
using NodeId = std::uint64_t;

// Identifies one volatile group. Group ids are never reused: splits and
// bootstrap mint fresh ids so that stale references are detectable.
using GroupId = std::uint64_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr GroupId kInvalidGroup = std::numeric_limits<GroupId>::max();

// Simulated time. All protocol code measures time in microseconds on a
// signed 64-bit clock, which covers ~292k years of simulation.
using TimeMicros = std::int64_t;
using DurationMicros = std::int64_t;

inline constexpr DurationMicros kMicrosPerMilli = 1'000;
inline constexpr DurationMicros kMicrosPerSecond = 1'000'000;
inline constexpr DurationMicros kMicrosPerMinute = 60 * kMicrosPerSecond;

constexpr DurationMicros millis(std::int64_t ms) { return ms * kMicrosPerMilli; }
constexpr DurationMicros seconds(double s) {
  return static_cast<DurationMicros>(s * static_cast<double>(kMicrosPerSecond));
}
constexpr double to_seconds(TimeMicros t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerSecond);
}

// Identifies one broadcast (publisher node + publisher-local sequence).
struct BroadcastId {
  NodeId origin = kInvalidNode;
  std::uint64_t seq = 0;

  friend bool operator==(const BroadcastId&, const BroadcastId&) = default;
  friend auto operator<=>(const BroadcastId&, const BroadcastId&) = default;
};

std::string to_string(const BroadcastId& id);

inline std::string to_string(const BroadcastId& id) {
  return std::to_string(id.origin) + ":" + std::to_string(id.seq);
}

}  // namespace atum
