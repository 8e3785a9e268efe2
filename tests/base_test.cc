#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "base/hash.h"
#include "base/rng.h"
#include "base/row_pool.h"
#include "base/saturating.h"
#include "base/sharded_cache.h"
#include "base/subsets.h"

namespace hompres {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_difference = false;
  for (int i = 0; i < 10; ++i) any_difference |= (a.Next() != b.Next());
  EXPECT_TRUE(any_difference);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen, (std::set<int>{-2, -1, 0, 1, 2}));
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5) ? 1 : 0;
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(Subsets, CombinationCount) {
  int count = 0;
  ForEachCombination(5, 3, [&](const std::vector<int>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 10);
}

TEST(Subsets, CombinationLexOrderAndValidity) {
  std::vector<std::vector<int>> all;
  ForEachCombination(4, 2, [&](const std::vector<int>& c) {
    all.push_back(c);
    return true;
  });
  ASSERT_EQ(all.size(), 6u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  for (const auto& c : all) {
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    EXPECT_EQ(std::set<int>(c.begin(), c.end()).size(), c.size());
  }
  EXPECT_EQ(all.front(), (std::vector<int>{0, 1}));
  EXPECT_EQ(all.back(), (std::vector<int>{2, 3}));
}

TEST(Subsets, EmptyCombination) {
  int count = 0;
  ForEachCombination(5, 0, [&](const std::vector<int>& c) {
    EXPECT_TRUE(c.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(Subsets, KGreaterThanNIsEmptyEnumeration) {
  int count = 0;
  ForEachCombination(2, 3, [&](const std::vector<int>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST(Subsets, EarlyExit) {
  int count = 0;
  const bool completed = ForEachCombination(6, 2, [&](const std::vector<int>&) {
    ++count;
    return count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

TEST(Subsets, TupleEnumeration) {
  int count = 0;
  ForEachTuple(3, 2, [&](const std::vector<int>& t) {
    EXPECT_EQ(t.size(), 2u);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 9);
}

TEST(Subsets, ZeroLengthTuple) {
  int count = 0;
  ForEachTuple(0, 0, [&](const std::vector<int>& t) {
    EXPECT_TRUE(t.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(Subsets, BinomialValues) {
  EXPECT_EQ(BinomialSaturating(5, 2), 10u);
  EXPECT_EQ(BinomialSaturating(10, 0), 1u);
  EXPECT_EQ(BinomialSaturating(10, 10), 1u);
  EXPECT_EQ(BinomialSaturating(4, 7), 0u);
  EXPECT_EQ(BinomialSaturating(52, 5), 2598960u);
}

TEST(Subsets, BinomialSaturates) {
  EXPECT_EQ(BinomialSaturating(1000, 500), kSaturated);
}

TEST(Saturating, AddMulPow) {
  EXPECT_EQ(SatAdd(2, 3), 5u);
  EXPECT_EQ(SatAdd(kSaturated, 1), kSaturated);
  EXPECT_EQ(SatMul(6, 7), 42u);
  EXPECT_EQ(SatMul(kSaturated, 2), kSaturated);
  EXPECT_EQ(SatMul(0, kSaturated), 0u);
  EXPECT_EQ(SatPow(2, 10), 1024u);
  EXPECT_EQ(SatPow(10, 30), kSaturated);
  EXPECT_EQ(SatPow(7, 0), 1u);
}

TEST(Saturating, Factorial) {
  EXPECT_EQ(SatFactorial(0), 1u);
  EXPECT_EQ(SatFactorial(5), 120u);
  EXPECT_EQ(SatFactorial(25), kSaturated);
}

// Resizing an empty pool to 0 must not touch memory: a default pool has
// no storage yet (this used to memset a null pointer). Every resize
// zeroes the words it hands out, including after a shrink to 0.
TEST(AlignedWordPool, ResizeThroughZeroZeroesWords) {
  AlignedWordPool pool;
  pool.Resize(0);
  EXPECT_EQ(pool.size(), 0u);
  pool.Resize(10);
  ASSERT_EQ(pool.size(), 10u);
  ASSERT_NE(pool.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(pool.data()) % kRowAlignBytes, 0u);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.data()[i], 0u);
    pool.data()[i] = ~uint64_t{0};
  }
  pool.Resize(0);
  EXPECT_EQ(pool.size(), 0u);
  pool.Resize(10);
  ASSERT_EQ(pool.size(), 10u);
  for (size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(pool.data()[i], 0u);
}

// --- the one cache table (base/sharded_cache.h) ----------------------

uint64_t TestSeed() {
  const char* env = std::getenv("HOMPRES_TEST_SEED");
  return env == nullptr || *env == '\0' ? 20261018
                                         : std::strtoull(env, nullptr, 10);
}

// Seeded random Lookup/Insert/EvictShardFor/Clear sequences on a tiny
// table (4 shards x 8 entries, 48 keys), checked against a reference
// model: every hit returns the last value inserted for its key and only
// for a key that can still be live, no shard outgrows its capacity, and
// the counters add up.
TEST(ShardedCache, RandomOpsMatchReferenceModel) {
  constexpr size_t kShards = 4;
  constexpr size_t kCapacity = 8;
  constexpr uint64_t kKeys = 48;
  for (uint64_t trial = 0; trial < 20; ++trial) {
    const uint64_t seed = TestSeed() + trial;
    Rng rng(seed);
    ShardedCache<uint64_t, uint64_t> cache(kShards, kCapacity);
    std::unordered_map<uint64_t, uint64_t> last_inserted;
    // Keys inserted since the last Clear and not dropped with their
    // shard: a superset of the live keys (eviction removes more).
    std::unordered_set<uint64_t> maybe_live;
    uint64_t lookups = 0;
    uint64_t dropped = 0;  // entries removed by Clear / EvictShardFor
    for (int op = 0; op < 3000; ++op) {
      const uint64_t key = rng.Uniform(kKeys);
      const uint64_t roll = rng.Uniform(100);
      if (roll < 50) {
        ++lookups;
        const std::optional<uint64_t> hit = cache.Lookup(key);
        if (hit.has_value()) {
          ASSERT_TRUE(maybe_live.count(key)) << "seed " << seed;
          ASSERT_EQ(*hit, last_inserted.at(key)) << "seed " << seed;
        }
      } else if (roll < 95) {
        const uint64_t value = rng.Next();
        ASSERT_TRUE(cache.Insert(key, value));
        last_inserted[key] = value;
        maybe_live.insert(key);
        ++lookups;
        ASSERT_EQ(cache.Lookup(key), std::optional<uint64_t>(value))
            << "fresh insert not served; seed " << seed;
      } else {
        const uint64_t before = cache.Stats().size;
        if (roll < 98) {
          cache.EvictShardFor(key);
          maybe_live.erase(key);
          ASSERT_FALSE(cache.Lookup(key).has_value()) << "seed " << seed;
          ++lookups;
        } else {
          cache.Clear();
          maybe_live.clear();
          ASSERT_EQ(cache.Stats().size, 0u);
        }
        dropped += before - cache.Stats().size;
      }
      CacheStats total;
      for (size_t shard = 0; shard < cache.NumShards(); ++shard) {
        const CacheStats stats = cache.ShardStats(shard);
        ASSERT_LE(stats.size, kCapacity) << "seed " << seed;
        total += stats;
      }
      ASSERT_EQ(total.hits + total.misses, lookups) << "seed " << seed;
      ASSERT_EQ(total.insertions - total.evictions - dropped, total.size)
          << "seed " << seed;
    }
    EXPECT_GT(cache.Stats().evictions, 0u) << "seed " << seed;
  }
}

// CLOCK second chance: in one shard under a burst of inserts, a key
// that is hit after every insert survives, while its untouched twin,
// inserted at the same moment, is evicted.
TEST(ShardedCache, HitKeySurvivesWhereUntouchedTwinIsEvicted) {
  ShardedCache<uint64_t, uint64_t> cache(1, 8);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  for (uint64_t i = 0; i < 64; ++i) {
    cache.Insert(100 + i, i);
    ASSERT_EQ(cache.Lookup(1), std::optional<uint64_t>(10))
        << "hit key evicted after " << i + 1 << " inserts";
  }
  EXPECT_FALSE(cache.Lookup(2).has_value());
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.size, 8u);
  EXPECT_EQ(stats.insertions - stats.evictions, stats.size);
}

// Struct keys pick their shard by ShardHash alone, so EvictShardFor
// drops every key that shares it; failpoints report and skip.
struct PairKey {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t ShardHash() const { return a; }
  uint64_t SlotHash() const { return Mix64(a ^ Mix64(b)); }
  friend bool operator==(const PairKey&, const PairKey&) = default;
};

TEST(ShardedCache, ShardFamiliesAndFailpoints) {
  ShardedCache<PairKey, int> cache(4, 16, "sharded_cache_test/lookup",
                                   "sharded_cache_test/insert");
  for (uint64_t b = 0; b < 5; ++b) {
    ASSERT_TRUE(cache.Insert({1, b}, static_cast<int>(b)));
    ASSERT_TRUE(cache.Insert({2, b}, static_cast<int>(b)));
  }
  EXPECT_EQ(cache.ShardStats(1).size, 5u);
  cache.EvictShardFor({1, 0});
  EXPECT_EQ(cache.ShardStats(1).size, 0u);
  EXPECT_EQ(cache.ShardStats(1).shard_evictions, 1u);
  EXPECT_FALSE(cache.Lookup({1, 3}).has_value());
  EXPECT_EQ(cache.Lookup({2, 3}), std::optional<int>(3));

  FailpointRegistry::Global().Arm("sharded_cache_test/lookup", "once");
  bool failed = false;
  EXPECT_FALSE(cache.Lookup({2, 3}, &failed).has_value());
  EXPECT_TRUE(failed);
  EXPECT_EQ(cache.Lookup({2, 3}, &failed), std::optional<int>(3));
  EXPECT_FALSE(failed);
  FailpointRegistry::Global().Arm("sharded_cache_test/insert", "once");
  EXPECT_FALSE(cache.Insert({3, 0}, 7));
  EXPECT_FALSE(cache.Lookup({3, 0}).has_value());
  FailpointRegistry::Global().DisarmAll();
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.failed_lookups, 1u);
  EXPECT_EQ(stats.failed_insertions, 1u);
}

}  // namespace
}  // namespace hompres
