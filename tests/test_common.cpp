// Unit and property tests for the common substrate: RNG, serialization,
// statistics, the flat hash table, and the binomial arithmetic behind the
// paper's §3.1 analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/binomial.h"
#include "common/flat_table.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/stats.h"
#include "common/types.h"

namespace atum {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(1);
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(Rng, NextInRangeInclusive) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values of a small range should appear";
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(19);
  std::vector<int> v(64);
  for (int i = 0; i < 64; ++i) v[static_cast<std::size_t>(i)] = i;
  auto orig = v;
  r.shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng r(23);
  for (int trial = 0; trial < 100; ++trial) {
    auto s = r.sample_indices(20, 7);
    EXPECT_EQ(s.size(), 7u);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (auto i : s) EXPECT_LT(i, 20u);
  }
}

TEST(Rng, SampleIndicesFullSet) {
  Rng r(29);
  auto s = r.sample_indices(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleIndicesRejectsOverdraw) {
  Rng r(31);
  EXPECT_THROW(r.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, SampleIndicesUniform) {
  // Each of the 10 indices should be picked ~equally often when sampling 3.
  Rng r(37);
  std::vector<std::uint64_t> counts(10, 0);
  for (int trial = 0; trial < 30000; ++trial) {
    for (auto i : r.sample_indices(10, 3)) ++counts[i];
  }
  EXPECT_TRUE(passes_uniformity_test(counts, 0.99));
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(41);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------------------
// Serde
// ---------------------------------------------------------------------------

TEST(Serde, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Serde, VarintBoundaries) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
                          std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
                          std::uint64_t{0xFFFFFFFF}, UINT64_MAX}) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.varint(), v);
  }
}

TEST(Serde, VarintCompactForSmallValues) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Serde, BytesAndStringsRoundTrip) {
  ByteWriter w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello atum");
  w.bytes(Bytes{});
  w.str("");
  ByteReader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello atum");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.str().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serde, VectorRoundTrip) {
  std::vector<std::uint64_t> xs{9, 8, 7, 6};
  ByteWriter w;
  w.vec(xs, [](ByteWriter& bw, std::uint64_t x) { bw.u64(x); });
  ByteReader r(w.data());
  auto ys = r.vec<std::uint64_t>([](ByteReader& br) { return br.u64(); });
  EXPECT_EQ(xs, ys);
}

TEST(Serde, TruncatedReadThrows) {
  ByteWriter w;
  w.u64(1);
  Bytes data = w.take();
  data.resize(4);
  ByteReader r(data);
  EXPECT_THROW(r.u64(), SerdeError);
}

TEST(Serde, TruncatedBytesThrows) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes follow
  ByteReader r(w.data());
  EXPECT_THROW(r.bytes(), SerdeError);
}

TEST(Serde, MaliciousVectorLengthThrows) {
  // A Byzantine sender claims 2^60 elements; the reader must not allocate.
  ByteWriter w;
  w.varint(1ULL << 60);
  ByteReader r(w.data());
  EXPECT_THROW(r.vec<std::uint64_t>([](ByteReader& br) { return br.u64(); }), SerdeError);
}

TEST(Serde, ExpectDoneDetectsTrailingGarbage) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), SerdeError);
}

TEST(Serde, VarintOverflowThrows) {
  Bytes evil(11, 0xFF);  // continuation forever
  ByteReader r(evil);
  EXPECT_THROW(r.varint(), SerdeError);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, PercentilesOfKnownSet) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Samples, CdfMonotone) {
  Samples s;
  Rng r(43);
  for (int i = 0; i < 1000; ++i) s.add(r.next_double());
  double prev = -1;
  for (auto [x, f] : s.cdf_points(32)) {
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(Samples, CdfAtExtremes) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(ChiSquare, UniformCountsPass) {
  std::vector<std::uint64_t> counts(50, 1000);
  EXPECT_TRUE(passes_uniformity_test(counts, 0.99));
}

TEST(ChiSquare, SkewedCountsFail) {
  std::vector<std::uint64_t> counts(50, 1000);
  counts[0] = 5000;
  EXPECT_FALSE(passes_uniformity_test(counts, 0.99));
}

TEST(ChiSquare, RandomUniformSamplesPass) {
  Rng r(47);
  std::vector<std::uint64_t> counts(64, 0);
  for (int i = 0; i < 64000; ++i) ++counts[r.next_below(64)];
  EXPECT_TRUE(passes_uniformity_test(counts, 0.99));
}

TEST(ChiSquare, SfMatchesKnownValues) {
  // chi2 critical value for df=10 at p=0.05 is 18.307.
  EXPECT_NEAR(chi_square_sf(18.307, 10), 0.05, 0.001);
  // df=1 at p=0.05 is 3.841.
  EXPECT_NEAR(chi_square_sf(3.841, 1), 0.05, 0.001);
  EXPECT_NEAR(chi_square_sf(0.0, 5), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Binomial (paper §3.1 arithmetic)
// ---------------------------------------------------------------------------

TEST(Binomial, PmfSumsToOne) {
  for (std::uint32_t n : {1u, 5u, 20u, 50u}) {
    double sum = 0;
    for (std::uint32_t k = 0; k <= n; ++k) sum += binomial_pmf(n, k, 0.3);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Binomial, PmfDegenerateCases) {
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 11, 0.5), 0.0);
}

TEST(Binomial, TailMonotoneInK) {
  double prev = 1.0;
  for (std::uint32_t k = 0; k <= 20; ++k) {
    double t = binomial_tail_geq(20, k, 0.2);
    EXPECT_LE(t, prev + 1e-12);
    prev = t;
  }
}

TEST(Binomial, PaperExampleSmallGroup) {
  // §3.1: g=4, failure prob 0.05, f=1 -> group fails with P[X>=2] ~= 0.014.
  double fail = binomial_tail_geq(4, 2, 0.05);
  EXPECT_NEAR(fail, 0.014, 0.0005);
}

TEST(Binomial, PaperExampleLargeGroup) {
  // §3.1: g=20, f=9 -> fails with P[X>=10] ~= 1.134e-8.
  double fail = binomial_tail_geq(20, 10, 0.05);
  EXPECT_NEAR(fail / 1.134e-8, 1.0, 0.01);
}

TEST(Binomial, FaultThresholdRules) {
  EXPECT_EQ(sync_fault_threshold(4), 1u);
  EXPECT_EQ(sync_fault_threshold(20), 9u);
  EXPECT_EQ(sync_fault_threshold(7), 3u);
  EXPECT_EQ(async_fault_threshold(4), 1u);
  EXPECT_EQ(async_fault_threshold(7), 2u);
  EXPECT_EQ(async_fault_threshold(10), 3u);
}

TEST(Binomial, PaperClaimKFourGivesThreeNines) {
  // §3.1: k=4, 6% faults -> P(all vgroups robust) ~= 0.999. The paper's
  // wording fixes a scale; at n=1000 the probability must be >= 0.999 and
  // within the same order elsewhere.
  double p = all_vgroups_robust_probability(1000, 4, 0.06, true);
  EXPECT_GT(p, 0.999);
}

TEST(Binomial, RobustnessImprovesWithK) {
  // A fault rate high enough that the probabilities are not all ~1.0 in
  // double precision; k's effect must be monotone.
  double p3 = all_vgroups_robust_probability(2000, 3, 0.25, true);
  double p5 = all_vgroups_robust_probability(2000, 5, 0.25, true);
  double p7 = all_vgroups_robust_probability(2000, 7, 0.25, true);
  EXPECT_LT(p3, p5);
  EXPECT_LT(p5, p7);
  EXPECT_LT(p7, 1.0);
}

TEST(Binomial, SyncToleratesMoreThanAsync) {
  double sync = all_vgroups_robust_probability(1000, 4, 0.08, true);
  double async = all_vgroups_robust_probability(1000, 4, 0.08, false);
  EXPECT_GT(sync, async);
}

TEST(Binomial, VgroupRobustProbabilityComplement) {
  double robust = vgroup_robust_probability(10, 4, 0.1);
  double fail = binomial_tail_geq(10, 5, 0.1);
  EXPECT_NEAR(robust + fail, 1.0, 1e-12);
}

// Monte-Carlo cross-check of the analytic tail.
TEST(Binomial, MonteCarloAgreesWithAnalytic) {
  Rng r(53);
  const int trials = 200000;
  int fails = 0;
  for (int t = 0; t < trials; ++t) {
    int faulty = 0;
    for (int i = 0; i < 8; ++i) faulty += r.chance(0.1);
    fails += (faulty >= 3);
  }
  double empirical = static_cast<double>(fails) / trials;
  double analytic = binomial_tail_geq(8, 3, 0.1);
  EXPECT_NEAR(empirical, analytic, 0.004);
}

// ---------------------------------------------------------------------------
// FlatTable against a reference model
// ---------------------------------------------------------------------------

// Sends one key in eight to the array's last slot (all-ones keeps every
// mask's bits) and one in eight to one of the last four, so those probe
// runs collide and wrap around to slot 0 at every capacity; the rest spread.
struct CollidingHash {
  std::uint64_t operator()(std::uint64_t key) const {
    if (key % 8 == 0) return ~std::uint64_t{0};
    if (key % 8 == 1) return ~std::uint64_t{0} - (key / 8) % 4;
    return mix64(key);
  }
};

TEST(FlatTable, MatchesAReferenceModel) {
  Rng rng(2024);
  std::size_t ops = 0;
  std::size_t peak = 0;
  // Four rounds of 50k operations, each on fresh tables, so every round
  // grows through several doublings. Key 0 is Key{}, the key the extra
  // slot holds.
  for (int round = 0; round < 4; ++round) {
    FlatMap<std::uint64_t, std::uint64_t, CollidingHash> map;
    FlatSet<std::uint64_t, CollidingHash> set;
    std::map<std::uint64_t, std::uint64_t> model;

    auto check_all = [&] {
      ASSERT_EQ(map.size(), model.size());
      ASSERT_EQ(set.size(), model.size());
      for (const auto& [k, v] : model) {
        const std::uint64_t* found = map.find(k);
        ASSERT_NE(found, nullptr) << "key " << k << " lost";
        ASSERT_EQ(*found, v);
        ASSERT_TRUE(set.contains(k)) << "key " << k << " lost";
      }
    };
    auto check_iteration = [&] {
      using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
      Entries seen(map.begin(), map.end());
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(seen, Entries(model.begin(), model.end()));
      std::vector<std::uint64_t> keys(set.begin(), set.end());
      std::sort(keys.begin(), keys.end());
      ASSERT_EQ(keys.size(), model.size());
      ASSERT_TRUE(std::equal(keys.begin(), keys.end(), model.begin(),
                             [](std::uint64_t k, const auto& kv) { return k == kv.first; }));
    };

    // Phases alternate between growing towards ~400 keys and shrinking
    // towards ~20, over a universe of 512 keys.
    bool growing = true;
    for (int i = 0; i < 50'000; ++i, ++ops) {
      if (growing && model.size() >= 400) growing = false;
      if (!growing && model.size() <= 20) growing = true;
      const std::uint64_t key = rng.next_below(512);
      const std::uint64_t roll = rng.next_below(1000);
      if (roll == 0) {
        map.clear();
        set.clear();
        model.clear();
        check_all();
        check_iteration();
      } else if (roll < 4) {
        const std::uint64_t m = 2 + rng.next_below(5);
        auto drop = [m](std::uint64_t k) { return k % m == 0; };
        const std::size_t expected = std::erase_if(model, [&](const auto& kv) { return drop(kv.first); });
        ASSERT_EQ(map.erase_if([&](const auto& kv) { return drop(kv.first); }), expected);
        ASSERT_EQ(set.erase_if(drop), expected);
        check_all();
        check_iteration();
      } else if (roll < (growing ? 700u : 300u)) {
        const std::uint64_t value = rng.next_u64();
        const bool fresh = model.find(key) == model.end();
        model[key] = value;
        map[key] = value;
        ASSERT_EQ(set.insert(key), fresh);
      } else if (roll < 850) {
        const std::size_t expected = model.erase(key);
        ASSERT_EQ(map.erase(key), expected);
        ASSERT_EQ(set.erase(key), expected);
        check_all();
      } else {
        const auto it = model.find(key);
        const std::uint64_t* found = map.find(key);
        ASSERT_EQ(found != nullptr, it != model.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        ASSERT_EQ(set.contains(key), it != model.end());
      }
      if (HasFatalFailure()) return;
      peak = std::max(peak, model.size());
    }
    check_all();
    check_iteration();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(ops, 200'000u);
  EXPECT_GE(peak, 400u);  // 400 keys need 1024 slots: seven doublings from 8
}

// ---------------------------------------------------------------------------
// FlatTable::make_room
// ---------------------------------------------------------------------------

// A map from key to "stale", filled with keys 1..6: 8 slots hold 6 entries
// at 3/4 load, so a seventh insert would grow the table.
FlatMap<std::uint64_t, bool> full_table_of_eight(std::size_t stale) {
  FlatMap<std::uint64_t, bool> map;
  for (std::uint64_t k = 1; k <= 6; ++k) map[k] = k <= stale;
  return map;
}

bool is_stale(const std::pair<std::uint64_t, bool>& entry) { return entry.second; }

TEST(FlatTableMakeRoom, ScansOnlyWhenTheNextInsertWouldGrow) {
  FlatMap<std::uint64_t, bool> map;
  for (std::uint64_t k = 1; k <= 5; ++k) map[k] = true;
  ASSERT_EQ(map.capacity(), 8u);
  map.make_room(is_stale);  // a sixth entry fits
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.capacity(), 8u);
}

TEST(FlatTableMakeRoom, ErasesOnlyStaleEntriesAndKeepsTheCapacityAtHalfOrLess) {
  for (std::size_t stale : {2u, 4u, 6u}) {  // 4, 2 and 0 entries stay
    FlatMap<std::uint64_t, bool> map = full_table_of_eight(stale);
    ASSERT_EQ(map.capacity(), 8u);
    map.make_room(is_stale);
    EXPECT_EQ(map.capacity(), 8u) << stale << " stale";
    EXPECT_EQ(map.size(), 6 - stale);
    for (std::uint64_t k = 1; k <= 6; ++k) {
      const bool* value = map.find(k);
      if (k <= stale) {
        EXPECT_EQ(value, nullptr) << "stale key " << k << " stayed";
      } else {
        ASSERT_NE(value, nullptr) << "live key " << k << " went";
        EXPECT_FALSE(*value);
      }
    }
    map[100] = false;  // the insert it made room for
    EXPECT_EQ(map.capacity(), 8u);
  }
}

TEST(FlatTableMakeRoom, DoublesWhenMoreThanHalfStaysTaken) {
  for (std::size_t stale : {0u, 1u}) {  // 6 and 5 of 8 slots stay taken
    FlatMap<std::uint64_t, bool> map = full_table_of_eight(stale);
    map.make_room(is_stale);
    EXPECT_EQ(map.capacity(), 16u) << stale << " stale";
    EXPECT_EQ(map.size(), 6 - stale);
    for (std::uint64_t k = stale + 1; k <= 6; ++k) EXPECT_TRUE(map.contains(k));
    map[100] = false;
    EXPECT_EQ(map.capacity(), 16u);
  }
}

// Each key stays live for the next kWindow inserts, then goes stale. With
// make_room before every insert, the scans cost O(1) predicate calls per
// insert (at most 3: a scan of 3/4 of the slots comes at least 1/4 of the
// slots' inserts after the last), and the capacity stays under four times
// the live count.
TEST(FlatTableMakeRoom, AmortizedScansAndBoundedCapacityUnderSlidingChurn) {
  constexpr std::uint64_t kWindow = 100, kInserts = 20'000;
  FlatMap<std::uint64_t, std::uint64_t> map;  // key -> the insert it came in
  std::uint64_t now = 0;
  std::size_t calls = 0;
  auto stale = [&](const auto& entry) {
    ++calls;
    return now - entry.second > kWindow;
  };
  for (now = 1; now <= kInserts; ++now) {
    map.make_room(stale);
    const std::size_t capacity = map.capacity();
    map[now] = now;
    ASSERT_EQ(map.capacity(), capacity) << "the insert after make_room grew the table";
  }
  EXPECT_LE(calls, 3 * kInserts);
  EXPECT_LT(map.capacity(), 4 * (kWindow + 1));
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(Types, TimeConversions) {
  EXPECT_EQ(millis(1500), 1'500'000);
  EXPECT_EQ(seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
}

TEST(Types, BroadcastIdEqualityAndHash) {
  BroadcastId a{1, 2}, b{1, 2}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(FlatHash<BroadcastId>{}(a), FlatHash<BroadcastId>{}(b));
  EXPECT_EQ(to_string(a), "1:2");
}

}  // namespace
}  // namespace atum
