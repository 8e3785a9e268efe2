// Unit tests for the packed bitset kernels (base/bitset64.h): every
// word-level kernel is compared against a naive bit-by-bit loop over
// randomized sets, since the CSP solver's bit-identical-answers guarantee
// rests on these primitives agreeing with the std::vector<bool> logic
// they replaced.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/bitset64.h"
#include "base/rng.h"
#include "base/simd.h"

namespace hompres {
namespace {

// A random packed row of `bits` bits paired with its vector<bool> mirror.
struct MirroredSet {
  std::vector<uint64_t> words;
  std::vector<bool> naive;
};

MirroredSet RandomSet(int bits, double density, Rng& rng) {
  MirroredSet s;
  s.words.assign(static_cast<size_t>(bitset64::WordsFor(bits)), 0);
  s.naive.assign(static_cast<size_t>(bits), false);
  const int threshold = static_cast<int>(density * 1000);
  for (int b = 0; b < bits; ++b) {
    if (rng.UniformInt(0, 999) < threshold) {
      bitset64::Set(s.words.data(), b);
      s.naive[static_cast<size_t>(b)] = true;
    }
  }
  return s;
}

TEST(Bitset64Kernels, WordsForBoundaries) {
  EXPECT_EQ(bitset64::WordsFor(0), 0);
  EXPECT_EQ(bitset64::WordsFor(1), 1);
  EXPECT_EQ(bitset64::WordsFor(64), 1);
  EXPECT_EQ(bitset64::WordsFor(65), 2);
  EXPECT_EQ(bitset64::WordsFor(128), 2);
  EXPECT_EQ(bitset64::WordsFor(129), 3);
}

TEST(Bitset64Kernels, PopcountMatchesNaiveLoop) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const int bits = rng.UniformInt(1, 200);
    const MirroredSet s = RandomSet(bits, 0.01 * rng.UniformInt(0, 100), rng);
    int expected = 0;
    for (bool b : s.naive) expected += b ? 1 : 0;
    EXPECT_EQ(bitset64::Popcount(s.words.data(),
                                 static_cast<int>(s.words.size())),
              expected)
        << "bits=" << bits << " trial " << trial;
  }
}

TEST(Bitset64Kernels, FindFirstAndNextVisitAscendingLikeNaiveLoop) {
  Rng rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    const int bits = rng.UniformInt(1, 200);
    const MirroredSet s = RandomSet(bits, 0.01 * rng.UniformInt(0, 100), rng);
    const int num_words = static_cast<int>(s.words.size());
    std::vector<int> expected;
    for (int b = 0; b < bits; ++b) {
      if (s.naive[static_cast<size_t>(b)]) expected.push_back(b);
    }
    std::vector<int> actual;
    for (int b = bitset64::FindFirst(s.words.data(), num_words); b >= 0;
         b = bitset64::FindNext(s.words.data(), num_words, b)) {
      actual.push_back(b);
    }
    EXPECT_EQ(actual, expected) << "bits=" << bits << " trial " << trial;
    // FindNext(row, -1) must equal FindFirst (the iteration idiom).
    EXPECT_EQ(bitset64::FindNext(s.words.data(), num_words, -1),
              bitset64::FindFirst(s.words.data(), num_words));
  }
}

TEST(Bitset64Kernels, IntersectInPlaceMatchesNaiveAndReportsChanges) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const int bits = rng.UniformInt(1, 200);
    MirroredSet dst = RandomSet(bits, 0.01 * rng.UniformInt(0, 100), rng);
    const MirroredSet src = RandomSet(bits, 0.01 * rng.UniformInt(0, 100), rng);
    const int num_words = static_cast<int>(dst.words.size());
    bool expect_changed = false;
    std::vector<bool> expected = dst.naive;
    for (int b = 0; b < bits; ++b) {
      const bool next =
          dst.naive[static_cast<size_t>(b)] && src.naive[static_cast<size_t>(b)];
      if (next != expected[static_cast<size_t>(b)]) expect_changed = true;
      expected[static_cast<size_t>(b)] = next;
    }
    const bool changed =
        bitset64::IntersectInPlace(dst.words.data(), src.words.data(),
                                   num_words);
    EXPECT_EQ(changed, expect_changed) << "bits=" << bits << " trial " << trial;
    for (int b = 0; b < bits; ++b) {
      EXPECT_EQ(bitset64::Test(dst.words.data(), b),
                expected[static_cast<size_t>(b)])
          << "bit " << b << " bits=" << bits << " trial " << trial;
    }
  }
}

TEST(Bitset64Kernels, SetFirstNKeepsTailClear) {
  for (int bits : {1, 63, 64, 65, 127, 128, 130}) {
    const int num_words = bitset64::WordsFor(bits);
    std::vector<uint64_t> words(static_cast<size_t>(num_words),
                                ~uint64_t{0});  // dirty
    bitset64::SetFirstN(words.data(), num_words, bits);
    EXPECT_EQ(bitset64::Popcount(words.data(), num_words), bits);
    for (int b = 0; b < bits; ++b) {
      EXPECT_TRUE(bitset64::Test(words.data(), b)) << "bit " << b;
    }
    // The tail of the last word must be zero (Popcount/FindFirst rely on
    // it).
    if (bits & 63) {
      EXPECT_EQ(words.back() >> (bits & 63), 0u) << "bits=" << bits;
    }
  }
}

TEST(Bitset64Kernels, UnionAnyIntersectsEqualAgreeWithNaive) {
  Rng rng(20260809);
  for (int trial = 0; trial < 100; ++trial) {
    const int bits = rng.UniformInt(1, 150);
    MirroredSet a = RandomSet(bits, 0.01 * rng.UniformInt(0, 100), rng);
    const MirroredSet b = RandomSet(bits, 0.01 * rng.UniformInt(0, 100), rng);
    const int num_words = static_cast<int>(a.words.size());
    bool any = false;
    bool meet = false;
    for (int bit = 0; bit < bits; ++bit) {
      any = any || a.naive[static_cast<size_t>(bit)];
      meet = meet || (a.naive[static_cast<size_t>(bit)] &&
                      b.naive[static_cast<size_t>(bit)]);
    }
    EXPECT_EQ(bitset64::AnySet(a.words.data(), num_words), any);
    EXPECT_EQ(bitset64::Intersects(a.words.data(), b.words.data(), num_words),
              meet);
    EXPECT_EQ(bitset64::Equal(a.words.data(), b.words.data(), num_words),
              a.naive == b.naive);
    bitset64::UnionInPlace(a.words.data(), b.words.data(), num_words);
    for (int bit = 0; bit < bits; ++bit) {
      EXPECT_EQ(bitset64::Test(a.words.data(), bit),
                a.naive[static_cast<size_t>(bit)] ||
                    b.naive[static_cast<size_t>(bit)]);
    }
  }
}

TEST(Bitset64Class, OwningSetRoundTrips) {
  Bitset64 s(100);
  EXPECT_EQ(s.SizeBits(), 100);
  EXPECT_EQ(s.Count(), 0);
  EXPECT_FALSE(s.Any());
  EXPECT_EQ(s.FindFirst(), -1);
  s.Set(3);
  s.Set(64);
  s.Set(99);
  EXPECT_EQ(s.Count(), 3);
  EXPECT_TRUE(s.Test(64));
  EXPECT_FALSE(s.Test(63));
  EXPECT_EQ(s.FindFirst(), 3);
  EXPECT_EQ(s.FindNext(3), 64);
  EXPECT_EQ(s.FindNext(64), 99);
  EXPECT_EQ(s.FindNext(99), -1);
  s.Reset(64);
  EXPECT_EQ(s.FindNext(3), 99);
  Bitset64 t(100);
  t.SetAll();
  EXPECT_EQ(t.Count(), 100);
  EXPECT_TRUE(t.IntersectWith(s));  // t := s
  EXPECT_EQ(t, s);
  EXPECT_FALSE(t.IntersectWith(s));  // no change the second time
  s.ClearAll();
  EXPECT_FALSE(s.Any());
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD differential fuzz.
//
// The vectorized kernels (base/simd.h) must be bit-identical to the
// scalar baseline on every width — including the ragged tails their
// scalar epilogues handle — or the solver's determinism guarantee dies
// silently on AVX hardware. Each fuzz trial builds identical operand
// pairs, runs the same kernel through KernelsFor(kScalar) and
// KernelsFor(level), and compares results and mutated buffers word for
// word. Levels the host cannot execute are skipped (a scalar-only
// runner still fuzzes scalar-vs-scalar, which degenerates to a no-op
// but keeps the test registered).
// ---------------------------------------------------------------------------

// Widths a fuzz trial draws from: half the draws come from the tail
// table (word and lane boundaries ±1, where epilogue bugs live), the
// rest are uniform in [0, 4096].
int FuzzWidth(Rng& rng) {
  static constexpr int kTails[] = {0,   1,   2,   31,  32,  33,  63,  64,
                                   65,  127, 128, 129, 191, 192, 193, 255,
                                   256, 257, 319, 320, 321, 511, 512, 513};
  if (rng.UniformInt(0, 1) == 0) {
    return kTails[rng.UniformInt(0, std::size(kTails) - 1)];
  }
  return rng.UniformInt(0, 4096);
}

std::vector<uint64_t> FuzzRow(int bits, Rng& rng) {
  std::vector<uint64_t> words(static_cast<size_t>(bitset64::WordsFor(bits)),
                              0);
  for (uint64_t& w : words) {
    switch (rng.UniformInt(0, 3)) {
      case 0: w = 0; break;                      // empty word
      case 1: w = ~uint64_t{0}; break;           // full word
      case 2: w = rng.Next(); break;             // dense random
      default: w = rng.Next() & rng.Next() & rng.Next(); break;  // sparse
    }
  }
  if (bits & 63) {
    words.back() &= (uint64_t{1} << (bits & 63)) - 1;
  }
  return words;
}

// Tail bits past `bits` in the last word must stay zero after every
// mutating kernel — the padded-row invariant the solver relies on.
void ExpectTailZero(const std::vector<uint64_t>& words, int bits) {
  if ((bits & 63) == 0 || words.empty()) return;
  EXPECT_EQ(words.back() & ~((uint64_t{1} << (bits & 63)) - 1), 0u)
      << "tail bits set at width " << bits;
}

TEST(Bitset64SimdDifferential, EveryLevelMatchesScalarAcrossWidths) {
  const int max_level = static_cast<int>(simd::DetectedSimdLevel());
  const simd::SimdKernels& scalar = simd::KernelsFor(simd::SimdLevel::kScalar);
  for (int raw = 0; raw <= max_level; ++raw) {
    const auto level = static_cast<simd::SimdLevel>(raw);
    const simd::SimdKernels& simd_k = simd::KernelsFor(level);
    Rng rng(0x51D0 + static_cast<uint64_t>(raw));
    for (int trial = 0; trial < 400; ++trial) {
      const int bits = FuzzWidth(rng);
      const int words = bitset64::WordsFor(bits);
      const std::vector<uint64_t> a = FuzzRow(bits, rng);
      const std::vector<uint64_t> b = FuzzRow(bits, rng);
      SCOPED_TRACE(testing::Message() << simd::SimdLevelName(level)
                                      << " width=" << bits
                                      << " trial=" << trial);

      EXPECT_EQ(simd_k.popcount(a.data(), words),
                scalar.popcount(a.data(), words));
      EXPECT_EQ(simd_k.any_set(a.data(), words),
                scalar.any_set(a.data(), words));
      EXPECT_EQ(simd_k.equal(a.data(), b.data(), words),
                scalar.equal(a.data(), b.data(), words));
      EXPECT_TRUE(simd_k.equal(a.data(), a.data(), words));
      EXPECT_EQ(simd_k.intersects(a.data(), b.data(), words),
                scalar.intersects(a.data(), b.data(), words));
      // Disjoint rows, then one shared bit at a random set position of a:
      // the overlap may sit in any lane or in the scalar tail.
      std::vector<uint64_t> disjoint = b;
      for (int w = 0; w < words; ++w) {
        disjoint[static_cast<size_t>(w)] &= ~a[static_cast<size_t>(w)];
      }
      EXPECT_FALSE(simd_k.intersects(a.data(), disjoint.data(), words));
      EXPECT_FALSE(scalar.intersects(a.data(), disjoint.data(), words));
      const int count = scalar.popcount(a.data(), words);
      if (count > 0) {
        int shared = scalar.find_first(a.data(), words);
        for (int skip = rng.UniformInt(0, count - 1); skip > 0; --skip) {
          shared = scalar.find_next(a.data(), words, shared);
        }
        bitset64::Set(disjoint.data(), shared);
        EXPECT_TRUE(simd_k.intersects(a.data(), disjoint.data(), words));
        EXPECT_TRUE(scalar.intersects(a.data(), disjoint.data(), words));
      }

      // Full find-chain: every visited bit must agree in lockstep.
      int sb = scalar.find_first(a.data(), words);
      int vb = simd_k.find_first(a.data(), words);
      while (sb >= 0 || vb >= 0) {
        ASSERT_EQ(vb, sb);
        sb = scalar.find_next(a.data(), words, sb);
        vb = simd_k.find_next(a.data(), words, vb);
      }

      std::vector<uint64_t> scalar_dst = a;
      std::vector<uint64_t> simd_dst = a;
      EXPECT_EQ(simd_k.intersect_in_place(simd_dst.data(), b.data(), words),
                scalar.intersect_in_place(scalar_dst.data(), b.data(), words));
      EXPECT_EQ(simd_dst, scalar_dst);
      ExpectTailZero(simd_dst, bits);
      // Second apply is a fixed point: must report no change.
      EXPECT_FALSE(simd_k.intersect_in_place(simd_dst.data(), b.data(), words));

      scalar_dst = a;
      simd_dst = a;
      scalar.union_in_place(scalar_dst.data(), b.data(), words);
      simd_k.union_in_place(simd_dst.data(), b.data(), words);
      EXPECT_EQ(simd_dst, scalar_dst);
      ExpectTailZero(simd_dst, bits);
    }
  }
}

// Random op *sequences* through the dispatched (process-wide) kernel
// table: a pinned level's Bitset64 results must match a scalar replay of
// the same sequence. This exercises the dispatch path itself — the
// inline ≤4-word fast path, the ActiveKernels() indirection, and the
// override hook — not just the per-level tables.
TEST(Bitset64SimdDifferential, DispatchedOpSequencesMatchScalarReplay) {
  const int max_level = static_cast<int>(simd::DetectedSimdLevel());
  for (int raw = 0; raw <= max_level; ++raw) {
    const auto level = static_cast<simd::SimdLevel>(raw);
    Rng rng(0xD15C + static_cast<uint64_t>(raw));
    for (int trial = 0; trial < 60; ++trial) {
      const int bits = std::max(1, FuzzWidth(rng));
      Rng level_rng = rng;  // both replays consume the identical stream
      Rng scalar_rng = rng;

      auto run = [&](simd::SimdLevel pin, Rng& r) {
        simd::ScopedSimdOverride forced(pin);
        // Padded stride, like the solver row pools: the kernels only see
        // WordsFor(bits) words, the padding must stay untouched zeros.
        const int words = bitset64::WordsFor(bits);
        const size_t stride =
            static_cast<size_t>(bitset64::PaddedWordsFor(bits));
        std::vector<uint64_t> acc(stride, 0);
        bitset64::SetFirstN(acc.data(), words, bits);
        std::vector<int64_t> trace;
        for (int op = 0; op < 20; ++op) {
          std::vector<uint64_t> other(stride, 0);
          const int set = r.UniformInt(0, bits);
          for (int i = 0; i < set; ++i) {
            bitset64::Set(other.data(), r.UniformInt(0, bits - 1));
          }
          trace.push_back(
              bitset64::Intersects(acc.data(), other.data(), words) ? 1 : 0);
          switch (r.UniformInt(0, 2)) {
            case 0:
              trace.push_back(
                  bitset64::IntersectInPlace(acc.data(), other.data(), words)
                      ? 1
                      : 0);
              break;
            case 1:
              bitset64::UnionInPlace(acc.data(), other.data(), words);
              break;
            default: {
              for (int bit = bitset64::FindFirst(acc.data(), words); bit >= 0;
                   bit = bitset64::FindNext(acc.data(), words, bit)) {
                trace.push_back(bit);
              }
              break;
            }
          }
          trace.push_back(bitset64::Popcount(acc.data(), words));
          trace.push_back(bitset64::AnySet(acc.data(), words) ? 1 : 0);
        }
        return std::pair(std::move(acc), std::move(trace));
      };

      auto [simd_acc, simd_trace] = run(level, level_rng);
      auto [scalar_acc, scalar_trace] = run(simd::SimdLevel::kScalar,
                                            scalar_rng);
      SCOPED_TRACE(testing::Message() << simd::SimdLevelName(level)
                                      << " width=" << bits
                                      << " trial=" << trial);
      EXPECT_EQ(simd_trace, scalar_trace);
      EXPECT_EQ(simd_acc, scalar_acc);
      rng = level_rng;  // advance the outer stream past this trial
    }
  }
}

TEST(Bitset64SimdDifferential, OverrideClampsAndRestores) {
  const simd::SimdLevel ambient = simd::ActiveSimdLevel();
  {
    simd::ScopedSimdOverride forced(simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
    {
      // Requesting more than the hardware has clamps to the detected
      // level instead of dispatching illegal instructions.
      simd::ScopedSimdOverride wide(simd::SimdLevel::kAvx512);
      EXPECT_LE(static_cast<int>(simd::ActiveSimdLevel()),
                static_cast<int>(simd::DetectedSimdLevel()));
    }
    EXPECT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveSimdLevel(), ambient);
}

TEST(Bitset64SimdDifferential, LevelNamesRoundTrip) {
  for (simd::SimdLevel level : {simd::SimdLevel::kScalar,
                                simd::SimdLevel::kAvx2,
                                simd::SimdLevel::kAvx512}) {
    const auto parsed = simd::ParseSimdLevel(simd::SimdLevelName(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd::ParseSimdLevel("AVX2").has_value());
  EXPECT_FALSE(simd::ParseSimdLevel("").has_value());
}

}  // namespace
}  // namespace hompres
