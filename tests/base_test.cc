#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/row_pool.h"
#include "base/saturating.h"
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

}  // namespace
}  // namespace hompres
