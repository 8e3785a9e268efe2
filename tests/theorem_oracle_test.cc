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
//     B ⊨ φ_A1 ∨ φ_A2;
//   - cores and retracts (Section 6.2): a retract S that
//     FindTargetRetractBudgeted finds is B's induced substructure and B
//     maps to it (checked by the naive kernel), and has/count/find with
//     S in the problem answer exactly as without it, witnesses included;
//     hom(A, B) iff hom(core(A), B); hom counts multiply over disjoint
//     unions of sources.
//
// The mixed vocabulary carries a 0-ary relation, so nullary atoms run
// through every oracle that draws from it.
//
// A disagreement shrinks the structures (greedy tuple/element removal
// while the disagreement persists) and prints them with the replay seed:
//
//   HOMPRES_TEST_SEED=<seed> ./theorem_oracle_test

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/rng.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "fo/ep.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "fo/eval.h"
#include "graph/builders.h"
#include "hom/core.h"
#include "hom/homomorphism.h"
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
  voc.AddRelation("P", 0);
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  voc.AddRelation("T", 3);
  return voc;
}

// A random structure with 1..5 elements over `voc`. Each 0-ary tuple
// is then dropped with probability 1/2.
Structure RandomSmall(const Vocabulary& voc, Rng& rng) {
  const int n = rng.UniformInt(1, 5);
  Structure s = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
  for (int rel = 0; rel < voc.NumRelations(); ++rel) {
    if (voc.Arity(rel) == 0 && rng.Bernoulli(0.5)) {
      s.RemoveTupleByValue(rel, {});
    }
  }
  return s;
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

// --- Cores and retracts ---------------------------------------------

// A random bipartite graph on 4..12 vertices, as a symmetric {E/2}
// structure.
Structure RandomBipartite(Rng& rng) {
  const int n = rng.UniformInt(4, 12);
  const int left = rng.UniformInt(1, n - 1);
  Graph g(n);
  for (int u = 0; u < left; ++u) {
    for (int v = left; v < n; ++v) {
      if (rng.Bernoulli(0.35)) g.AddEdge(u, v);
    }
  }
  return UndirectedGraphStructure(g);
}

// A random k-tree (k = 1..3) on k+1..12 vertices: chordal, ω = k+1, so
// it retracts onto a maximum clique.
Structure RandomChordal(Rng& rng) {
  const int k = rng.UniformInt(1, 3);
  return UndirectedGraphStructure(RandomKTree(rng.UniformInt(k + 1, 12), k,
                                              rng));
}

// `s` with one random element made a loop (every relation of arity >= 1
// holds at (v, ..., v)).
Structure WithLoopElement(Structure s, Rng& rng) {
  const int v = rng.UniformInt(0, s.UniverseSize() - 1);
  const Vocabulary& voc = s.GetVocabulary();
  for (int rel = 0; rel < voc.NumRelations(); ++rel) {
    const int arity = voc.Arity(rel);
    if (arity > 0) s.AddTuple(rel, Tuple(static_cast<size_t>(arity), v));
  }
  return s;
}

// Trial target: cycles through the four families.
Structure RetractTarget(int trial, Rng& rng) {
  switch (trial % 4) {
    case 0:
      return RandomBipartite(rng);
    case 1:
      return RandomChordal(rng);
    case 2:
      return WithLoopElement(RandomSmall(GraphVocabulary(), rng), rng);
    default: {
      Structure s = RandomSmall(MixedVocabulary(), rng);
      return rng.Bernoulli(0.5) ? WithLoopElement(std::move(s), rng) : s;
    }
  }
}

struct HomAnswers {
  bool has = false;
  std::optional<std::vector<int>> witness;
  uint64_t count = 0;
};

HomAnswers Answers(const Structure& a, const Structure& b,
                   const TargetRetract* retract) {
  constexpr uint64_t kCountLimit = 1000;
  HomAnswers answers;
  for (const HomQueryMode mode :
       {HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount}) {
    HomProblem problem;
    problem.source = &a;
    problem.target = &b;
    problem.mode = mode;
    problem.limit = mode == HomQueryMode::kCount ? kCountLimit : 0;
    problem.target_retract = retract;
    Budget unlimited = Budget::Unlimited();
    const HomResult result =
        Engine::Execute(*PlanHomQuery(problem, EngineConfig{}).plan,
                        unlimited)
            .Value();
    if (mode == HomQueryMode::kHas) answers.has = result.has;
    if (mode == HomQueryMode::kFind) answers.witness = result.witness;
    if (mode == HomQueryMode::kCount) answers.count = result.count;
  }
  return answers;
}

// Empty when every retract claim about (A, B) holds.
std::string RetractDisagreement(const Structure& a, const Structure& b) {
  Budget probe = Budget::MaxSteps(kTargetRetractMaxSteps);
  const auto found = FindTargetRetractBudgeted(b, probe);
  if (!found.IsDone() || !found.Value().has_value()) return "";
  const TargetRetract& retract = *found.Value();
  if (!(retract.structure == b.InducedSubstructure(retract.elements))) {
    return "S is not B's substructure induced by its elements";
  }
  const std::optional<std::vector<int>> onto =
      FindHom(b, retract.structure, NaiveConfig());
  if (!onto.has_value() || !VerifyHomomorphism(b, retract.structure, *onto)) {
    return "B does not map to its retract S: " +
           retract.structure.DebugString();
  }
  const HomAnswers plain = Answers(a, b, nullptr);
  const HomAnswers on_retract = Answers(a, b, &retract);
  if (plain.has != on_retract.has || plain.witness != on_retract.witness ||
      plain.count != on_retract.count) {
    return "answers differ with the retract: has " +
           std::to_string(plain.has) + "/" + std::to_string(on_retract.has) +
           " count " + std::to_string(plain.count) + "/" +
           std::to_string(on_retract.count) + " witness " +
           std::to_string(plain.witness.has_value()) + "/" +
           std::to_string(on_retract.witness.has_value()) +
           "; S: " + retract.structure.DebugString();
  }
  return "";
}

TEST(TheoremOracle, RetractsAnswerLikeTheirTargets) {
  const uint64_t seed = TestSeed() ^ 0x510E527FADE682D1ULL;
  Rng rng(seed);
  int retracts = 0;
  int homs = 0;
  constexpr int kTrials = 240;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Structure b = RetractTarget(trial, rng);
    Budget probe = Budget::MaxSteps(kTargetRetractMaxSteps);
    const auto found = FindTargetRetractBudgeted(b, probe);
    if (found.IsDone() && found.Value().has_value()) ++retracts;
    for (int source = 0; source < 4; ++source) {
      const Structure a = RandomSmall(b.GetVocabulary(), rng);
      if (HasHom(a, b)) ++homs;
      const std::string disagreement = RetractDisagreement(a, b);
      if (disagreement.empty()) continue;
      auto [sa, sb] = Shrink(a, b, [](const Structure& x, const Structure& y) {
        return !RetractDisagreement(x, y).empty();
      });
      FAIL() << Report(trial, disagreement, sa, sb);
    }
  }
  // The families must actually produce retracts, and both verdicts.
  EXPECT_GT(retracts, kTrials / 2);
  EXPECT_GT(homs, 0);
  EXPECT_LT(homs, 4 * kTrials);
}

// Empty when hom(A, B) iff hom(core(A), B), and the count of maps from
// A1 + A2 (searched whole, unfactorized) is the product of the counts
// from A1 and A2.
std::string CoreAndUnionDisagreement(const Structure& a1, const Structure& a2,
                                     const Structure& b) {
  Budget unlimited = Budget::Unlimited();
  const Structure core = ComputeCoreBudgeted(a1, unlimited).TakeValue();
  if (HasHom(a1, b) != HasHom(core, b)) {
    return "hom(A, B) != hom(core(A), B); core: " + core.DebugString();
  }
  EngineConfig whole;
  whole.factorize = false;
  const uint64_t product = CountHoms(a1, b) * CountHoms(a2, b);
  const uint64_t joint = CountHoms(a1.DisjointUnion(a2), b, 0, whole);
  if (product != joint) {
    return "count(A1 + A2, B) = " + std::to_string(joint) +
           " but count(A1, B) * count(A2, B) = " + std::to_string(product) +
           "; a2: " + a2.DebugString();
  }
  return "";
}

TEST(TheoremOracle, CoresPreserveHomAndCountsMultiplyOverUnions) {
  const uint64_t seed = TestSeed() ^ 0x9B05688C2B3E6C1FULL;
  Rng rng(seed);
  const Vocabulary vocabularies[] = {GraphVocabulary(), MixedVocabulary()};
  for (int trial = 0; trial < 300; ++trial) {
    const Vocabulary& voc = vocabularies[trial % 2];
    // Small enough that the joint count (at most 5^6 maps) is cheap.
    const Structure a1 = RandomStructure(voc, rng.UniformInt(1, 3),
                                         rng.UniformInt(0, 4), rng);
    const Structure a2 = RandomStructure(voc, rng.UniformInt(1, 3),
                                         rng.UniformInt(0, 4), rng);
    const Structure b = RandomSmall(voc, rng);
    const std::string disagreement = CoreAndUnionDisagreement(a1, a2, b);
    if (disagreement.empty()) continue;
    auto [sa1, sb] = Shrink(a1, b, [&](const Structure& x,
                                       const Structure& y) {
      return !CoreAndUnionDisagreement(x, a2, y).empty();
    });
    FAIL() << Report(trial, disagreement, sa1, sb);
  }
}

}  // namespace
}  // namespace hompres
