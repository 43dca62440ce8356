// Deterministic pseudo-random number generation for the simulator and the
// randomized protocols (walk forwarding, shuffling, gossip fanout).
//
// Every experiment is replayable: all randomness flows from explicitly
// seeded Rng instances, never from global or hardware entropy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace atum {

// xoshiro256** by Blackman & Vigna, seeded through SplitMix64. Chosen over
// std::mt19937_64 for speed (the simulator draws per message) and for a
// guaranteed-stable stream across standard library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL);

  std::uint64_t next_u64();

  // Uniform integer in [0, bound), bias-free (Lemire rejection). bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double next_double();

  // True with probability p (clamped to [0,1]).
  bool chance(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle_n(v.size(), [&v](std::size_t a, std::size_t b) {
      using std::swap;
      swap(v[a], v[b]);
    });
  }
  // The same shuffle, with the same draws, over n elements that
  // `swap_at(a, b)` exchanges (elements that are not one vector's).
  template <typename SwapAt>
  void shuffle_n(std::size_t n, SwapAt&& swap_at) {
    for (std::size_t i = n; i > 1; --i) swap_at(i - 1, static_cast<std::size_t>(next_below(i)));
  }

  // k distinct indices from [0, n), uniform without replacement. k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  // Derives an independent generator; used to give each node / each random
  // walk its own stream so that event ordering cannot perturb other draws.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace atum
