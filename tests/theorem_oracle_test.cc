// Theorem oracles for the containment module: three subsystems answer
// the same question, and the paper's theorems say they must agree.
//
//   - Thm 2.1 (Chandra-Merlin): for structures A and B, hom(A, B)
//     (Engine::Has) iff B ⊨ φ_A (naive Tarskian evaluation of
//     UcqToFormula, fo/eval.h) iff φ_B ⊆ φ_A (CqContainedBudgeted,
//     uncached and through a fresh containment cache);
//   - cores: φ_A and φ_core(A) are equivalent (CqEquivalentBudgeted,
//     with ComputeCoreBudgeted supplying the core);
//   - Sagiv-Yannakakis: {φ_B} ⊆ φ_A1 ∨ φ_A2 (UcqContainedBudgeted) iff
//     B ⊨ φ_A1 ∨ φ_A2.
//
// A disagreement shrinks the structures (greedy tuple/element removal
// while the disagreement persists) and prints them with the replay seed:
//
//   HOMPRES_TEST_SEED=<seed> ./theorem_oracle_test

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/rng.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "fo/ep.h"
#include "fo/eval.h"
#include "hom/core.h"
#include "hom_test_util.h"
#include "opt/containment.h"
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

Vocabulary MixedVocabulary() {
  Vocabulary voc;
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  voc.AddRelation("T", 3);
  return voc;
}

// A random structure with 1..5 elements over `voc`.
Structure RandomSmall(const Vocabulary& voc, Rng& rng) {
  const int n = rng.UniformInt(1, 5);
  return RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
}

ConjunctiveQuery Phi(const Structure& s) {
  return ConjunctiveQuery::BooleanQueryOf(s);
}

// B ⊨ φ_A ∨ ... by naive FO evaluation: no homomorphism engine involved.
bool Models(const Structure& b, const UnionOfCq& q) {
  return EvaluateSentence(b, UcqToFormula(q));
}

// Empty when the Thm 2.1 answers about (A, B) agree; otherwise names
// them.
std::string ChandraMerlinDisagreement(const Structure& a,
                                      const Structure& b) {
  Budget unlimited = Budget::Unlimited();
  const bool hom = HasHom(a, b);
  const bool models = Models(b, UnionOfCq({Phi(a)}));
  const bool contained =
      CqContainedBudgeted(Phi(b), Phi(a), unlimited).Value();
  ContainmentCache cache = MakeContainmentCache();
  const bool cold =
      CqContainedBudgeted(Phi(b), Phi(a), unlimited, &cache).Value();
  const bool warm =
      CqContainedBudgeted(Phi(b), Phi(a), unlimited, &cache).Value();
  if (hom == models && models == contained && contained == cold &&
      cold == warm) {
    return "";
  }
  return "hom=" + std::to_string(hom) + " models=" + std::to_string(models) +
         " contained=" + std::to_string(contained) +
         " cached(cold,warm)=" + std::to_string(cold) + "," +
         std::to_string(warm);
}

std::string Report(int trial, const std::string& what, const Structure& a,
                   const Structure& b) {
  return what + "\nreplay: HOMPRES_TEST_SEED=" + std::to_string(TestSeed()) +
         " (trial " + std::to_string(trial) + ")\nshrunken a: " +
         a.DebugString() + "\nshrunken b: " + b.DebugString();
}

TEST(TheoremOracle, HomModelsAndContainmentAgree) {
  const uint64_t seed = TestSeed() ^ 0x3C6EF372FE94F82BULL;
  Rng rng(seed);
  const Vocabulary vocabularies[] = {GraphVocabulary(), MixedVocabulary()};
  int homs = 0;
  constexpr int kTrials = 600;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Vocabulary& voc = vocabularies[trial % 2];
    const Structure a = RandomSmall(voc, rng);
    const Structure b = RandomSmall(voc, rng);
    if (HasHom(a, b)) ++homs;
    const std::string disagreement = ChandraMerlinDisagreement(a, b);
    if (disagreement.empty()) continue;
    auto [sa, sb] = Shrink(a, b, [](const Structure& x, const Structure& y) {
      return !ChandraMerlinDisagreement(x, y).empty();
    });
    FAIL() << Report(trial, disagreement, sa, sb);
  }
  // The trial mix must exercise both verdicts.
  EXPECT_GT(homs, 0);
  EXPECT_LT(homs, kTrials);
}

// Empty when φ_A and φ_core(A) are equivalent and the core is no larger
// than A.
std::string CoreDisagreement(const Structure& a) {
  Budget unlimited = Budget::Unlimited();
  const Structure core = ComputeCoreBudgeted(a, unlimited).TakeValue();
  if (core.UniverseSize() > a.UniverseSize()) return "core is larger";
  if (!CqEquivalentBudgeted(Phi(a), Phi(core), unlimited).Value()) {
    return "φ_A and φ_core(A) are not equivalent; core: " +
           core.DebugString();
  }
  return "";
}

TEST(TheoremOracle, QueryOfCoreIsEquivalent) {
  const uint64_t seed = TestSeed() ^ 0x78DDE6E5FD29F053ULL;
  Rng rng(seed);
  const Vocabulary vocabularies[] = {GraphVocabulary(), MixedVocabulary()};
  for (int trial = 0; trial < 300; ++trial) {
    const Structure a = RandomSmall(vocabularies[trial % 2], rng);
    const std::string disagreement = CoreDisagreement(a);
    if (disagreement.empty()) continue;
    const Structure empty(a.GetVocabulary(), 0);
    auto [sa, unused] =
        Shrink(a, empty, [](const Structure& x, const Structure&) {
          return !CoreDisagreement(x).empty();
        });
    FAIL() << Report(trial, disagreement, sa, unused);
  }
}

// Empty when {φ_B} ⊆ φ_A1 ∨ φ_A2 agrees with B ⊨ φ_A1 ∨ φ_A2.
std::string UnionDisagreement(const Structure& a1, const Structure& a2,
                              const Structure& b) {
  Budget unlimited = Budget::Unlimited();
  const UnionOfCq q({Phi(a1), Phi(a2)});
  const bool models = Models(b, q);
  const bool contained =
      UcqContainedBudgeted(UnionOfCq({Phi(b)}), q, unlimited).Value();
  if (models == contained) return "";
  return "models=" + std::to_string(models) +
         " contained=" + std::to_string(contained);
}

TEST(TheoremOracle, UnionContainmentMatchesModels) {
  const uint64_t seed = TestSeed() ^ 0xA54FF53A5F1D36F1ULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 300; ++trial) {
    const Structure a1 = RandomSmall(voc, rng);
    const Structure a2 = RandomSmall(voc, rng);
    const Structure b = RandomSmall(voc, rng);
    const std::string disagreement = UnionDisagreement(a1, a2, b);
    if (disagreement.empty()) continue;
    // Shrink the second disjunct's structure against B, holding A1.
    auto [sa2, sb] = Shrink(a2, b, [&](const Structure& x,
                                       const Structure& y) {
      return !UnionDisagreement(a1, x, y).empty();
    });
    FAIL() << Report(trial, disagreement + "\na1: " + a1.DebugString(), sa2,
                     sb);
  }
}

}  // namespace
}  // namespace hompres
