// Randomized differential testing of the homomorphism engines.
//
// Every trial draws a random structure pair and checks that the naive
// backtracking engine, the AC-3 serial engine, and the parallel engine
// (both witness modes) agree on existence, produce witnesses that pass an
// independent oracle, and report identical counts. A disagreement shrinks
// the pair (greedy tuple/element removal while the disagreement persists)
// and prints the seed together with parser-compatible serializations of
// the shrunken structures, so a failure replays with
//
//   HOMPRES_TEST_SEED=<seed> ./property_hom_test
//
// The default seed is fixed (ctest runs are reproducible); the
// HOMPRES_TEST_SEED environment variable overrides it, which the CI soak
// job uses to sweep fresh seeds nightly.

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/rng.h"
#include "base/simd.h"
#include "engine/engine.h"
#include "hom_test_util.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

constexpr uint64_t kDefaultSeed = 20260806;

uint64_t TestSeed() {
  const char* env = std::getenv("HOMPRES_TEST_SEED");
  if (env == nullptr || *env == '\0') return kDefaultSeed;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == nullptr || *end != '\0') {
    ADD_FAILURE() << "HOMPRES_TEST_SEED is not a number: " << env;
    return kDefaultSeed;
  }
  return static_cast<uint64_t>(value);
}

// Independent homomorphism oracle (deliberately not VerifyHomomorphism,
// which the engines themselves use): h must be total, in range, and map
// every tuple of a onto a tuple of b.
bool CheckIsHomomorphism(const Structure& a, const Structure& b,
                         const std::vector<int>& h) {
  if (static_cast<int>(h.size()) != a.UniverseSize()) return false;
  for (int image : h) {
    if (image < 0 || image >= b.UniverseSize()) return false;
  }
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : a.Tuples(rel)) {
      Tuple image(t.size());
      for (size_t i = 0; i < t.size(); ++i) {
        image[i] = h[static_cast<size_t>(t[i])];
      }
      if (!b.HasTuple(rel, image)) return false;
    }
  }
  return true;
}

// Every homomorphism a -> b in lexicographic order, by brute force over
// all |b|^|a| maps and the oracle above: the independent reference for
// existence, counts and enumeration (the universes here are tiny).
std::vector<std::vector<int>> AllHomsByBruteForce(const Structure& a,
                                                  const Structure& b) {
  std::vector<std::vector<int>> homs;
  const int n = a.UniverseSize();
  const int m = b.UniverseSize();
  if (n > 0 && m == 0) return homs;
  std::vector<int> h(static_cast<size_t>(n), 0);
  while (true) {
    if (CheckIsHomomorphism(a, b, h)) homs.push_back(h);
    int i = n - 1;
    while (i >= 0 && h[static_cast<size_t>(i)] == m - 1) {
      h[static_cast<size_t>(i)] = 0;
      --i;
    }
    if (i < 0) return homs;
    ++h[static_cast<size_t>(i)];
  }
}

// Strict planning rejects factorization together with surjectivity or
// forced pairs (both couple the Gaifman components): such rows run the
// monolithic search.
EngineConfig Constrained(EngineConfig config, bool surjective,
                         const std::vector<std::pair<int, int>>& forced) {
  config.surjective = surjective;
  config.forced = forced;
  if (surjective || !forced.empty()) config.factorize = false;
  return config;
}

struct EngineVariant {
  std::string name;
  EngineConfig options;
};

std::vector<EngineVariant> AllEngines() {
  std::vector<EngineVariant> engines(5);
  engines[0].name = "naive";
  engines[0].options = NaiveConfig();
  engines[1].name = "ac";
  engines[2].name = "ac_noindex";
  engines[2].options.use_index = false;
  engines[3].name = "parallel";
  engines[3].options.num_threads = 3;
  engines[4].name = "parallel_det";
  engines[4].options.num_threads = 3;
  engines[4].options.deterministic_witness = true;
  return engines;
}

Vocabulary MixedVocabulary() {
  Vocabulary voc;
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  voc.AddRelation("T", 3);
  return voc;
}

// True iff the engine's existence answer differs from the naive
// backtracking reference on (a, b) under `extra` options.
bool ExistenceDisagrees(const Structure& a, const Structure& b,
                        const EngineConfig& engine_options) {
  const EngineConfig reference = Constrained(
      NaiveConfig(), engine_options.surjective, engine_options.forced);
  const bool expected = FindHom(a, b, reference).has_value();
  const bool actual = FindHom(a, b, engine_options).has_value();
  return expected != actual;
}

// Greedy shrink: repeatedly drop a tuple (then an element) from either
// structure while the engines still disagree, and return the minimized
// pair for the failure report.
std::pair<Structure, Structure> Shrink(Structure a, Structure b,
                                       const EngineConfig& engine_options) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (Structure* s : {&a, &b}) {
      for (int rel = 0; rel < s->GetVocabulary().NumRelations(); ++rel) {
        for (int i = 0; i < static_cast<int>(s->Tuples(rel).size()); ++i) {
          Structure smaller = s->RemoveTuple(rel, i);
          Structure& other = (s == &a) ? b : a;
          const bool still = (s == &a)
                                 ? ExistenceDisagrees(smaller, other,
                                                      engine_options)
                                 : ExistenceDisagrees(other, smaller,
                                                      engine_options);
          if (still) {
            *s = std::move(smaller);
            progress = true;
            i = -1;  // restart this relation's scan
          }
        }
      }
      for (int e = s->UniverseSize() - 1; e >= 0; --e) {
        Structure smaller = s->RemoveElement(e);
        Structure& other = (s == &a) ? b : a;
        const bool still =
            (s == &a)
                ? ExistenceDisagrees(smaller, other, engine_options)
                : ExistenceDisagrees(other, smaller, engine_options);
        if (still) {
          *s = std::move(smaller);
          progress = true;
        }
      }
    }
  }
  return {std::move(a), std::move(b)};
}

std::string FailureReport(uint64_t seed, int trial, const std::string& engine,
                          const Structure& a, const Structure& b,
                          const EngineConfig& engine_options) {
  auto [sa, sb] = Shrink(a, b, engine_options);
  return "engine '" + engine + "' disagrees with the naive reference\n" +
         "replay: HOMPRES_TEST_SEED=" + std::to_string(seed) +
         " (trial " + std::to_string(trial) + ")\n" +
         "shrunken a: " + sa.DebugString() + "\n" +
         "shrunken b: " + sb.DebugString();
}

// One differential trial: all engines must agree with the naive reference
// on existence, their witnesses must pass the oracle, and their counts
// (full and limit-clamped) must match.
void RunTrial(uint64_t seed, int trial, const Structure& a,
              const Structure& b, bool surjective) {
  const EngineConfig reference = Constrained(NaiveConfig(), surjective, {});
  const auto expected = FindHom(a, b, reference);
  const uint64_t expected_count = CountHoms(a, b, /*limit=*/0, reference);
  if (expected.has_value()) {
    ASSERT_TRUE(CheckIsHomomorphism(a, b, *expected))
        << FailureReport(seed, trial, "naive", a, b, reference);
    EXPECT_GE(expected_count, 1u);
  } else {
    EXPECT_EQ(expected_count, 0u);
  }

  for (const EngineVariant& engine : AllEngines()) {
    const EngineConfig options = Constrained(engine.options, surjective, {});
    const auto witness = FindHom(a, b, options);
    ASSERT_EQ(witness.has_value(), expected.has_value())
        << FailureReport(seed, trial, engine.name, a, b, options);
    if (witness.has_value()) {
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *witness))
          << FailureReport(seed, trial, engine.name + " (witness oracle)", a,
                           b, options);
    }
    const uint64_t count = CountHoms(a, b, /*limit=*/0, options);
    ASSERT_EQ(count, expected_count)
        << FailureReport(seed, trial, engine.name + " (count)", a, b,
                         options);
    if (expected_count > 1) {
      const uint64_t limit = expected_count / 2 + 1;
      ASSERT_EQ(CountHoms(a, b, limit, options), limit)
          << FailureReport(seed, trial, engine.name + " (limit clamp)", a, b,
                           options);
    }
  }
}

TEST(PropertyHom, EnginesAgreeOnGraphStructures) {
  const uint64_t seed = TestSeed();
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 220; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    // Every fourth trial also exercises the surjective mode, whose
    // interaction with arc consistency has its own pruning rules.
    RunTrial(seed, trial, a, b, /*surjective=*/trial % 4 == 0);
    if (HasFatalFailure()) return;
  }
}

TEST(PropertyHom, EnginesAgreeOnMixedArityStructures) {
  const uint64_t seed = TestSeed() ^ 0x9E3779B97F4A7C15ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();
  for (int trial = 0; trial < 120; ++trial) {
    const int n = rng.UniformInt(1, 4);
    const int m = rng.UniformInt(1, 4);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 2), rng);
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 2), rng);
    RunTrial(seed, trial, a, b, /*surjective=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(PropertyHom, EnginesAgreeUnderForcedPairs) {
  const uint64_t seed = TestSeed() ^ 0xBF58476D1CE4E5B9ULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 100; ++trial) {
    const int n = rng.UniformInt(2, 5);
    const int m = rng.UniformInt(2, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    const std::vector<std::pair<int, int>> forced = {
        {rng.UniformInt(0, n - 1), rng.UniformInt(0, m - 1)}};

    const EngineConfig reference = Constrained(NaiveConfig(), false, forced);
    const bool expected = FindHom(a, b, reference).has_value();
    for (const EngineVariant& engine : AllEngines()) {
      const EngineConfig options = Constrained(engine.options, false, forced);
      const auto witness = FindHom(a, b, options);
      ASSERT_EQ(witness.has_value(), expected)
          << FailureReport(seed, trial, engine.name + " (forced)", a, b,
                           options);
      if (witness.has_value()) {
        ASSERT_TRUE(CheckIsHomomorphism(a, b, *witness));
        for (const auto& [var, val] : forced) {
          ASSERT_EQ((*witness)[static_cast<size_t>(var)], val);
        }
      }
    }
  }
}

TEST(PropertyHom, DeterministicWitnessIsStable) {
  const uint64_t seed = TestSeed() ^ 0x94D049BB133111EBULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  EngineConfig det;
  det.num_threads = 3;
  det.deterministic_witness = true;
  for (int trial = 0; trial < 50; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    const auto first = FindHom(a, b, det);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto again = FindHom(a, b, det);
      ASSERT_EQ(first, again)
          << "deterministic witness changed across runs; seed " << seed
          << " trial " << trial << "\na: " << a.DebugString()
          << "\nb: " << b.DebugString();
    }
  }
}

// The zero-thread configuration must be the serial engine exactly: same
// witness, bit for bit, as the default options (this pins down the
// "num_threads = 0 is bit-identical to the pre-parallel engine"
// guarantee).
TEST(PropertyHom, ZeroThreadsMatchesSerialWitnessExactly) {
  const uint64_t seed = TestSeed() ^ 0x2545F4914F6CDD1DULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 100; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    EngineConfig zero_threads;
    zero_threads.num_threads = 0;
    ASSERT_EQ(FindHom(a, b, EngineConfig{}),
              FindHom(a, b, zero_threads))
        << "seed " << seed << " trial " << trial;
  }
}

// The index-aware AC engine must be bit-identical to the pure-scan AC
// engine: same witness (not merely the same existence answer) and the
// same count, because the index only skips tuples the scan rejects.
TEST(PropertyHom, IndexedEngineMatchesScanEngineExactly) {
  const uint64_t seed = TestSeed() ^ 0xD6E8FEB86659FD93ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();
  for (int trial = 0; trial < 150; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 3), rng);
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    EngineConfig indexed;
    EngineConfig scan;
    scan.use_index = false;
    ASSERT_EQ(FindHom(a, b, indexed), FindHom(a, b, scan))
        << "seed " << seed << " trial " << trial << "\na: " << a.DebugString()
        << "\nb: " << b.DebugString();
    ASSERT_EQ(CountHoms(a, b, /*limit=*/0, indexed),
              CountHoms(a, b, /*limit=*/0, scan))
        << "seed " << seed << " trial " << trial;
  }
}

// The factorized (Gaifman-component) search must agree with the
// monolithic engine on existence and exact counts, and both witnesses
// must pass the independent oracle (they may differ as maps: the
// factorized engine picks per-component witnesses). Sources are disjoint
// unions, sometimes with an extra isolated element, so several
// components are guaranteed; counts are compared both exact and under a
// small limit to exercise the saturating product clamp.
TEST(PropertyHom, FactorizedMatchesMonolithicOnDisconnectedSources) {
  const uint64_t seed = TestSeed() ^ 0x9E6C63D0876A9A23ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();
  for (int trial = 0; trial < 120; ++trial) {
    const int n1 = rng.UniformInt(1, 3);
    const int n2 = rng.UniformInt(1, 3);
    const int m = rng.UniformInt(1, 5);
    const Structure part1 =
        RandomStructure(voc, n1, rng.UniformInt(0, n1 + 2), rng);
    const Structure part2 =
        RandomStructure(voc, n2, rng.UniformInt(0, n2 + 2), rng);
    Structure a = part1.DisjointUnion(part2);
    if (trial % 3 == 0) a.AddElement();  // singleton component
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    EngineConfig factorized;  // factorize defaults to true
    EngineConfig monolithic;
    monolithic.factorize = false;
    const auto fw = FindHom(a, b, factorized);
    const auto mw = FindHom(a, b, monolithic);
    ASSERT_EQ(fw.has_value(), mw.has_value())
        << "factorized/monolithic existence divergence; seed " << seed
        << " trial " << trial << "\na: " << a.DebugString()
        << "\nb: " << b.DebugString();
    if (fw.has_value()) {
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *fw))
          << "factorized witness fails the oracle; seed " << seed
          << " trial " << trial << "\na: " << a.DebugString()
          << "\nb: " << b.DebugString();
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *mw))
          << "monolithic witness fails the oracle; seed " << seed
          << " trial " << trial;
    }
    ASSERT_EQ(CountHoms(a, b, /*limit=*/0, factorized),
              CountHoms(a, b, /*limit=*/0, monolithic))
        << "factorized/monolithic count divergence; seed " << seed
        << " trial " << trial << "\na: " << a.DebugString()
        << "\nb: " << b.DebugString();
    const uint64_t limit = static_cast<uint64_t>(rng.UniformInt(1, 4));
    ASSERT_EQ(CountHoms(a, b, limit, factorized),
              CountHoms(a, b, limit, monolithic))
        << "factorized/monolithic limit-clamp divergence at limit " << limit
        << "; seed " << seed << " trial " << trial;
  }
}

// Mutating a structure after its index was built must invalidate the
// cache: engines running on the mutated structure answer as if the index
// never existed (compared against a fresh copy that never built one).
TEST(PropertyHom, MutationAfterIndexBuildInvalidatesCache) {
  const uint64_t seed = TestSeed() ^ 0xA3EC647659359ACDULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 60; ++trial) {
    const int n = rng.UniformInt(1, 4);
    const int m = rng.UniformInt(2, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    Structure b = RandomStructure(voc, m, rng.UniformInt(0, 2 * m), rng);
    // Force the lazy build, then mutate.
    (void)b.Index();
    if (trial % 2 == 0) {
      const int u = rng.UniformInt(0, b.UniverseSize() - 1);
      const int v = rng.UniformInt(0, b.UniverseSize() - 1);
      if (!b.HasTuple(0, {u, v})) b.AddTuple(0, {u, v});
    } else {
      const int fresh = b.AddElement();
      b.AddTuple(0, {fresh, rng.UniformInt(0, fresh)});
    }
    // A fresh copy never had an index; the mutated original must agree
    // with it under every engine.
    const Structure pristine = b;
    for (const EngineVariant& engine : AllEngines()) {
      ASSERT_EQ(FindHom(a, b, engine.options).has_value(),
                FindHom(a, pristine, engine.options).has_value())
          << "engine '" << engine.name << "' stale-index divergence; seed "
          << seed << " trial " << trial << "\na: " << a.DebugString()
          << "\nb: " << b.DebugString();
      ASSERT_EQ(CountHoms(a, b, /*limit=*/0, engine.options),
                CountHoms(a, pristine, /*limit=*/0, engine.options))
          << "engine '" << engine.name << "' stale-index count; seed " << seed
          << " trial " << trial;
    }
  }
}

// Strict-engine differential for the serial configurations: every query
// mode of Engine::* (find, has, count under a limit, enumerate) must agree
// with the brute-force oracle — existence, exact counts, and the exact
// set of homomorphisms enumerated, each visited once — and every witness
// must pass the independent oracle.
TEST(PropertyHom, SerialEngineVariantsMatchBruteForceOracle) {
  const uint64_t seed = TestSeed() ^ 0x8B7A1C4D5E6F9021ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();

  std::vector<EngineVariant> variants(4);
  variants[0].name = "default";
  variants[1].name = "naive";
  variants[1].options = NaiveConfig();
  variants[2].name = "ac_noindex";
  variants[2].options.use_index = false;
  variants[3].name = "monolithic";
  variants[3].options.factorize = false;

  for (int trial = 0; trial < 80; ++trial) {
    const int n = rng.UniformInt(1, 4);
    const int m = rng.UniformInt(1, 4);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 3), rng);
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    const std::vector<std::vector<int>> expected = AllHomsByBruteForce(a, b);
    for (const EngineVariant& variant : variants) {
      const EngineConfig& config = variant.options;
      const std::string where = "variant '" + variant.name + "'; seed " +
                                std::to_string(seed) + " trial " +
                                std::to_string(trial) +
                                "\na: " + a.DebugString() +
                                "\nb: " + b.DebugString();

      Budget find_budget = Budget::Unlimited();
      const auto witness = Engine::Find(a, b, find_budget, config).Value();
      ASSERT_EQ(witness.has_value(), !expected.empty())
          << "find existence divergence; " << where;
      if (witness.has_value()) {
        ASSERT_TRUE(CheckIsHomomorphism(a, b, *witness))
            << "find witness fails the oracle; " << where;
      }

      Budget has_budget = Budget::Unlimited();
      ASSERT_EQ(Engine::Has(a, b, has_budget, config).Value(),
                !expected.empty())
          << "has divergence; " << where;

      const uint64_t limit = static_cast<uint64_t>(rng.UniformInt(0, 3));
      const uint64_t total = expected.size();
      Budget count_budget = Budget::Unlimited();
      ASSERT_EQ(Engine::Count(a, b, count_budget, limit, config).Value(),
                limit == 0 ? total : std::min(total, limit))
          << "count divergence at limit " << limit << "; " << where;

      std::vector<std::vector<int>> seen;
      Budget enum_budget = Budget::Unlimited();
      ASSERT_TRUE(Engine::Enumerate(
                      a, b, enum_budget,
                      [&](const std::vector<int>& h) {
                        seen.push_back(h);
                        return true;
                      },
                      config)
                      .Value())
          << "enumeration did not complete; " << where;
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(seen, expected) << "enumeration divergence; " << where;
    }
  }
}

// Forced-scalar differential: the same query run under the dispatched
// SIMD kernels and under ScopedSimdOverride(kScalar) must produce
// byte-identical witnesses and counts. The targets here are large enough
// (universe > 256) that the solver rows exceed the 4-word inline
// threshold and genuinely route through the vector kernels, unlike the
// small-structure trials above. On a scalar-only host this degenerates
// to scalar-vs-scalar, which still pins the override machinery.
TEST(PropertyHom, DispatchedSimdMatchesForcedScalarExactly) {
  const uint64_t seed = TestSeed() ^ 0x51D0C0DEULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 6; ++trial) {
    const int n = rng.UniformInt(3, 5);
    const int m = rng.UniformInt(260, 420);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(n, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(m, 4 * m), rng);
    const std::string where =
        "seed " + std::to_string(seed) + " trial " + std::to_string(trial);

    EngineConfig options;  // AC bitset kernel, the SIMD consumer
    const auto dispatched = FindHom(a, b, options);
    const uint64_t dispatched_count =
        CountHoms(a, b, /*limit=*/1000, options);
    std::optional<std::vector<int>> scalar;
    uint64_t scalar_count = 0;
    {
      simd::ScopedSimdOverride forced(simd::SimdLevel::kScalar);
      scalar = FindHom(a, b, options);
      scalar_count = CountHoms(a, b, /*limit=*/1000, options);
    }
    ASSERT_EQ(dispatched, scalar) << "witness divergence; " << where;
    ASSERT_EQ(dispatched_count, scalar_count)
        << "count divergence; " << where;
    if (dispatched.has_value()) {
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *dispatched)) << where;
    }
  }
}

}  // namespace
}  // namespace hompres
