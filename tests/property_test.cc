// Cross-module property tests: algebraic identities and invariants that
// tie the subsystems together (hom counting closed forms, core
// idempotence, quotient homomorphisms, stage monotonicity, pebble
// monotonicity, treewidth sandwiches, preservation of UCQs).

#include <gtest/gtest.h>

#include "base/rng.h"
#include <cmath>

#include "base/subsets.h"
#include "containment_test_util.h"
#include "core/minimal_models.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "graph/builders.h"
#include "graph/minor.h"
#include "graph/scattered.h"
#include "hom/core.h"
#include "hom/homomorphism.h"
#include "hom_test_util.h"
#include "pebble/pebble_game.h"
#include "structure/generators.h"
#include "structure/isomorphism.h"
#include "tw/nice.h"
#include "structure/gaifman.h"
#include "tw/tree_decomposition.h"

namespace hompres {
namespace {

TEST(HomCounting, CycleIntoCliqueClosedForm) {
  // #hom(C_n, K_q) = (q-1)^n + (-1)^n (q-1)  (proper colorings of a
  // cycle).
  for (int n : {3, 4, 5, 6}) {
    for (int q : {2, 3, 4}) {
      Structure cycle = UndirectedGraphStructure(CycleGraph(n));
      Structure clique = UndirectedGraphStructure(CompleteGraph(q));
      const double expected =
          std::pow(q - 1, n) + (n % 2 == 0 ? 1 : -1) * (q - 1);
      EXPECT_EQ(CountHoms(cycle, clique),
                static_cast<uint64_t>(expected))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(HomCounting, PathIntoCliqueClosedForm) {
  // #hom(P_n, K_q) = q * (q-1)^{n-1} for the path with n vertices.
  for (int n : {2, 3, 5}) {
    for (int q : {2, 3}) {
      Structure path = UndirectedGraphStructure(PathGraph(n));
      Structure clique = UndirectedGraphStructure(CompleteGraph(q));
      EXPECT_EQ(CountHoms(path, clique),
                static_cast<uint64_t>(q * std::pow(q - 1, n - 1)));
    }
  }
}

class RandomStructureProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomStructureProperty, CoreIsIdempotent) {
  Rng rng(static_cast<uint64_t>(5000 + GetParam()));
  Structure a = RandomStructure(GraphVocabulary(), 5, 7, rng);
  Structure core = ComputeCore(a);
  Structure core2 = ComputeCore(core);
  EXPECT_TRUE(AreIsomorphic(core, core2));
}

TEST_P(RandomStructureProperty, QuotientsReceiveHomomorphisms) {
  // A maps homomorphically onto every quotient of itself.
  Rng rng(static_cast<uint64_t>(5100 + GetParam()));
  Structure a = RandomStructure(GraphVocabulary(), 4, 5, rng);
  ForEachSetPartition(a.UniverseSize(), [&](const std::vector<int>& block) {
    int blocks = 0;
    for (int b : block) blocks = std::max(blocks, b + 1);
    Structure quotient = a.Image(block, blocks);
    EXPECT_TRUE(VerifyHomomorphism(a, quotient, block));
    EXPECT_TRUE(HasHom(a, quotient));
    return true;
  });
}

TEST_P(RandomStructureProperty, HomEquivalenceToDisjointSelfUnion) {
  // A + A is hom-equivalent to A.
  Rng rng(static_cast<uint64_t>(5200 + GetParam()));
  Structure a = RandomStructure(GraphVocabulary(), 4, 6, rng);
  Structure doubled = a.DisjointUnion(a);
  EXPECT_TRUE(HomEquivalent(a, doubled));
}

TEST_P(RandomStructureProperty, UcqsArePreservedUnderHoms) {
  // Any UCQ built from random canonical structures is preserved under
  // homomorphisms — the paper's starting observation.
  Rng rng(static_cast<uint64_t>(5300 + GetParam()));
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(
                   RandomStructure(GraphVocabulary(), 3, 4, rng)),
               ConjunctiveQuery::BooleanQueryOf(
                   RandomStructure(GraphVocabulary(), 2, 3, rng))});
  std::vector<Structure> samples;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(RandomStructure(GraphVocabulary(), 2 + i % 3, 3, rng));
  }
  const BooleanQuery query = [&q](const Structure& s) {
    return q.SatisfiedBy(s);
  };
  EXPECT_TRUE(CheckPreservedUnderHomomorphisms(query, samples));
}

TEST_P(RandomStructureProperty, PebbleGameMonotoneInK) {
  // More pebbles only help the Spoiler.
  Rng rng(static_cast<uint64_t>(5400 + GetParam()));
  Structure a = RandomStructure(GraphVocabulary(), 3, 4, rng);
  Structure b = RandomStructure(GraphVocabulary(), 3, 4, rng);
  const bool k3 = DuplicatorWinsExistentialKPebbleGame(a, b, 3);
  const bool k2 = DuplicatorWinsExistentialKPebbleGame(a, b, 2);
  if (k3) {
    EXPECT_TRUE(k2);
  }
  // And homomorphism implies a Duplicator win at every k.
  if (HasHom(a, b)) {
    EXPECT_TRUE(k2);
    EXPECT_TRUE(k3);
  }
}

TEST_P(RandomStructureProperty, DatalogStagesAreMonotone) {
  Rng rng(static_cast<uint64_t>(5500 + GetParam()));
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Structure edb = RandomStructure(GraphVocabulary(), 4, 5, rng);
  IdbInterpretation previous = Stage(tc, edb, 0);
  for (int m = 1; m <= 4; ++m) {
    IdbInterpretation current = Stage(tc, edb, m);
    for (size_t i = 0; i < current.size(); ++i) {
      for (const Tuple& t : previous[i]) {
        EXPECT_TRUE(current[i].count(t) > 0) << "stage " << m;
      }
    }
    previous = std::move(current);
  }
  // The fixpoint equals a sufficiently late stage.
  DatalogResult fixpoint = EvaluateNaive(tc, edb);
  EXPECT_EQ(fixpoint.idb, Stage(tc, edb, fixpoint.stages + 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructureProperty,
                         ::testing::Range(0, 10));

class RandomGraphInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphInvariants, TreewidthSandwich) {
  Rng rng(static_cast<uint64_t>(6000 + GetParam()));
  Graph g = RandomGraph(9, 0.35, rng);
  const int tw = ExactTreewidth(g);
  EXPECT_GE(tw, TreewidthLowerBoundDegeneracy(g));
  EXPECT_GE(tw, HadwigerNumber(g) - 1);  // K_h minor needs tw >= h-1
  EXPECT_LE(tw, TreewidthUpperBound(g));
}

TEST_P(RandomGraphInvariants, ScatteredSetsShrinkWithDistance) {
  Rng rng(static_cast<uint64_t>(6100 + GetParam()));
  Graph g = RandomGraph(12, 0.2, rng);
  int previous = g.NumVertices() + 1;
  for (int d = 0; d <= 2; ++d) {
    const int size = MaxScatteredSetSize(g, d);
    EXPECT_LE(size, previous);
    previous = size;
    // Every d-scattered set is also (d-1)-scattered.
    const auto set = GreedyScatteredSet(g, d);
    if (d > 0) {
      EXPECT_TRUE(IsDScattered(g, set, d - 1));
    }
  }
}

TEST_P(RandomGraphInvariants, MinorClosedUnderSubgraphs) {
  // If a subgraph has a K_h minor, so does the host.
  Rng rng(static_cast<uint64_t>(6200 + GetParam()));
  Graph g = RandomGraph(9, 0.4, rng);
  std::vector<int> keep;
  for (int v = 0; v + 1 < g.NumVertices(); ++v) keep.push_back(v);
  Graph sub = g.InducedSubgraph(keep);
  const int sub_hadwiger = HadwigerNumber(sub);
  EXPECT_GE(HadwigerNumber(g), sub_hadwiger);
}

TEST_P(RandomGraphInvariants, NiceDecompositionWidthMatches) {
  Rng rng(static_cast<uint64_t>(6300 + GetParam()));
  Graph g = RandomGraph(8, 0.3, rng);
  TreeDecomposition td = ExactTreeDecomposition(g);
  NiceTreeDecomposition nice = MakeNiceDecomposition(g, td);
  EXPECT_EQ(nice.Width(), td.Width());
  EXPECT_TRUE(IsValidNiceDecomposition(g, nice));
}

TEST_P(RandomGraphInvariants, GaifmanRoundTripThroughStructures) {
  Rng rng(static_cast<uint64_t>(6400 + GetParam()));
  Graph g = RandomGraph(8, 0.3, rng);
  Structure s = UndirectedGraphStructure(g);
  EXPECT_EQ(GaifmanGraph(s), g);
  EXPECT_EQ(StructureTreewidth(s), ExactTreewidth(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphInvariants,
                         ::testing::Range(0, 10));

TEST(UcqProperties, ContainmentIsSemanticallySound) {
  // If IsContained(q1, q2) then q1's answers are a subset of q2's on
  // every sampled structure; if not contained, a separating structure
  // exists among the disjunct canonical structures.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    UnionOfCq q1({ConjunctiveQuery::BooleanQueryOf(
        RandomStructure(GraphVocabulary(), 3, 4, rng))});
    UnionOfCq q2({ConjunctiveQuery::BooleanQueryOf(
        RandomStructure(GraphVocabulary(), 3, 4, rng))});
    const bool contained = IsContained(q1, q2);
    if (contained) {
      for (int check = 0; check < 8; ++check) {
        Structure b = RandomStructure(GraphVocabulary(), 3, 5, rng);
        if (q1.SatisfiedBy(b)) {
          EXPECT_TRUE(q2.SatisfiedBy(b));
        }
      }
    } else {
      // The canonical structure of some q1-disjunct satisfies q1 but
      // not q2.
      bool separated = false;
      for (const auto& d : q1.Disjuncts()) {
        if (!q2.SatisfiedBy(d.Canonical())) separated = true;
      }
      EXPECT_TRUE(separated);
    }
  }
}

TEST(SurjectiveHoms, ImagesRealizeSurjections) {
  // A surjective find agrees with "some quotient of A
  // embeds into B as all of B"... spot-check: C6 onto C2 and C3, not
  // onto C4.
  Structure c6 = DirectedCycleStructure(6);
  EngineConfig surjective;
  surjective.surjective = true;
  surjective.factorize = false;  // surjectivity is a global property
  EXPECT_TRUE(FindHom(c6, DirectedCycleStructure(2), surjective)
                  .has_value());
  EXPECT_TRUE(FindHom(c6, DirectedCycleStructure(3), surjective)
                  .has_value());
  EXPECT_FALSE(FindHom(c6, DirectedCycleStructure(4), surjective)
                   .has_value());
}

}  // namespace
}  // namespace hompres
