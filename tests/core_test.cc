#include <gtest/gtest.h>

#include "core/classes.h"
#include "core/minimal_models.h"
#include "core/plebian.h"
#include "core/preservation.h"
#include "cq/cq.h"
#include "fo/eval.h"
#include "fo/parser.h"
#include "graph/builders.h"
#include "hom_test_util.h"
#include "structure/gaifman.h"
#include "structure/generators.h"
#include "structure/isomorphism.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

FormulaPtr MustParse(const std::string& text) {
  std::string error;
  auto f = ParseFormula(text, &error);
  EXPECT_TRUE(f.has_value()) << error;
  return *f;
}

TEST(Classes, StockMemberships) {
  Structure p = DirectedPathStructure(5);
  Structure grid = UndirectedGraphStructure(GridGraph(3, 3));
  EXPECT_TRUE(AllStructuresClass().contains(grid));
  EXPECT_TRUE(BoundedDegreeClass(2).contains(p));
  EXPECT_FALSE(BoundedDegreeClass(2).contains(grid));
  EXPECT_TRUE(BoundedTreewidthClass(2).contains(p));
  EXPECT_FALSE(BoundedTreewidthClass(2).contains(grid));   // tw 3
  EXPECT_TRUE(ExcludesMinorClass(5).contains(grid));       // planar
  EXPECT_FALSE(ExcludesMinorClass(3).contains(grid));      // K3 minor
}

TEST(Classes, CoreBasedClassesAreWider) {
  // Grids are bipartite: core = K2, so grids are in H(T(2)) even though
  // their treewidth is unbounded (Section 6.2).
  Structure grid = UndirectedGraphStructure(GridGraph(3, 4));
  EXPECT_FALSE(BoundedTreewidthClass(2).contains(grid));
  EXPECT_TRUE(CoresBoundedTreewidthClass(2).contains(grid));
  EXPECT_TRUE(CoresBoundedDegreeClass(1).contains(grid));  // K2 degree 1
  EXPECT_TRUE(CoresExcludeMinorClass(3).contains(grid));
}

TEST(Classes, BicyclesHaveBoundedDegreeCores) {
  // Section 6.2: cores of bicycles are K4.
  Structure b7 = UndirectedGraphStructure(BicycleGraph(7));
  EXPECT_TRUE(CoresBoundedDegreeClass(3).contains(b7));
  EXPECT_FALSE(BoundedDegreeClass(3).contains(b7));  // hub degree 7
}

TEST(Classes, ClosureChecks) {
  std::vector<Structure> samples = {DirectedPathStructure(3),
                                    DirectedCycleStructure(3)};
  EXPECT_TRUE(CheckClosedUnderSubstructures(BoundedDegreeClass(2), samples));
  EXPECT_TRUE(CheckClosedUnderDisjointUnions(BoundedDegreeClass(2), samples));
  EXPECT_TRUE(
      CheckClosedUnderSubstructures(BoundedTreewidthClass(3), samples));
  EXPECT_TRUE(
      CheckClosedUnderDisjointUnions(BoundedTreewidthClass(3), samples));
}

TEST(MinimalModels, EdgeQueryHasOneMinimalModel) {
  // q = "some edge exists": the unique minimal model is a single edge on
  // two elements (the loop is NOT a model's substructure issue: a loop
  // E(x,x) also satisfies it and is smaller!). Minimal models: the loop
  // (1 element) and... the loop maps homomorphically FROM the edge; both
  // satisfy q; the 2-element edge has no proper substructure satisfying
  // q, and neither does the loop. Both are minimal.
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(2))});
  const auto models = MinimalModelsOfUcq(q, AllStructuresClass());
  ASSERT_EQ(models.size(), 2u);
}

TEST(MinimalModels, LoopFreeClassHasUniqueMinimalModel) {
  // Within the class of structures of degree <= 1 whose Gaifman graph is
  // loop-free... use BoundedDegreeClass(1): the loop E(x,x) has Gaifman
  // degree 0, so it stays. Use a class excluding loops explicitly.
  StructureClass no_loops{
      "loop-free", [](const Structure& a) {
        for (const Tuple& t : a.Tuples(0)) {
          if (t[0] == t[1]) return false;
        }
        return true;
      }};
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(2))});
  const auto models = MinimalModelsOfUcq(q, no_loops);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].UniverseSize(), 2);
  EXPECT_EQ(models[0].NumTuples(), 1);
}

TEST(MinimalModels, IsMinimalModelChecks) {
  const BooleanQuery has_edge = [](const Structure& a) {
    return a.NumTuples() > 0;
  };
  Structure edge = DirectedPathStructure(2);
  EXPECT_TRUE(IsMinimalModel(has_edge, edge, AllStructuresClass()));
  Structure p3 = DirectedPathStructure(3);  // 2 tuples: not minimal
  EXPECT_FALSE(IsMinimalModel(has_edge, p3, AllStructuresClass()));
  Structure empty(GraphVocabulary(), 0);
  EXPECT_FALSE(IsMinimalModel(has_edge, empty, AllStructuresClass()));
}

TEST(MinimalModels, IsolatedElementsBlockMinimality) {
  Structure edge_plus_isolated = DirectedPathStructure(2);
  edge_plus_isolated.AddElement();
  const BooleanQuery has_edge = [](const Structure& a) {
    return a.NumTuples() > 0;
  };
  EXPECT_FALSE(
      IsMinimalModel(has_edge, edge_plus_isolated, AllStructuresClass()));
}

TEST(MinimalModels, Theorem31RoundTrip) {
  // Start from a UCQ, enumerate minimal models, rebuild the UCQ, verify
  // equivalence (Theorem 3.1 in both directions).
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(3)),
               ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3))});
  const auto models = MinimalModelsOfUcq(q, AllStructuresClass());
  EXPECT_FALSE(models.empty());
  UnionOfCq rebuilt = UcqFromMinimalModels(models);
  EXPECT_TRUE(UcqEquivalent(q, rebuilt));
}

TEST(MinimalModels, SearchAgreesWithQuotientEnumeration) {
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(3))});
  const BooleanQuery query = [&q](const Structure& a) {
    return q.SatisfiedBy(a);
  };
  const auto by_quotients = MinimalModelsOfUcq(q, AllStructuresClass());
  const auto by_search = MinimalModelsBySearch(query, GraphVocabulary(),
                                               AllStructuresClass(), 3);
  ASSERT_EQ(by_quotients.size(), by_search.size());
  for (const Structure& a : by_search) {
    bool found = false;
    for (const Structure& b : by_quotients) {
      found |= AreIsomorphic(a, b);
    }
    EXPECT_TRUE(found) << a.DebugString();
  }
}

TEST(MinimalModels, PreservationCheck) {
  std::vector<Structure> samples = {
      DirectedPathStructure(2), DirectedPathStructure(4),
      DirectedCycleStructure(3), Structure(GraphVocabulary(), 2)};
  const BooleanQuery has_edge = [](const Structure& a) {
    return a.NumTuples() > 0;
  };
  EXPECT_TRUE(CheckPreservedUnderHomomorphisms(has_edge, samples));
  const BooleanQuery no_edge = [](const Structure& a) {
    return a.NumTuples() == 0;
  };
  EXPECT_FALSE(CheckPreservedUnderHomomorphisms(no_edge, samples));
}

TEST(Preservation, PipelineOnEdgeSentence) {
  // ∃x ∃y E(x,y) is preserved under homs; the pipeline recovers an
  // equivalent UCQ and verifies it exhaustively.
  PreservationResult result = PreservationPipeline(
      MustParse("exists x exists y E(x,y)"), GraphVocabulary(),
      AllStructuresClass(), /*search_universe=*/2, /*verify_universe=*/3);
  EXPECT_TRUE(result.verified);
  EXPECT_FALSE(result.minimal_models.empty());
}

TEST(Preservation, PipelineOnPathSentenceBoundedTreewidth) {
  // "There is a path of length 2", restricted to treewidth < 2
  // structures.
  PreservationResult result = PreservationPipeline(
      MustParse("exists x exists y exists z (E(x,y) & E(y,z))"),
      GraphVocabulary(), BoundedTreewidthClass(2), /*search_universe=*/3,
      /*verify_universe=*/3);
  EXPECT_TRUE(result.verified);
  EXPECT_FALSE(result.minimal_models.empty());
}

TEST(Preservation, PipelineDetectsNonEquivalence) {
  // "No edges" is not preserved under homomorphisms; the pipeline's
  // verification must fail (the UCQ it builds cannot be equivalent).
  PreservationResult result = PreservationPipeline(
      MustParse("forall x forall y !E(x,y)"), GraphVocabulary(),
      AllStructuresClass(), 2, 2);
  EXPECT_FALSE(result.verified);
}

TEST(Preservation, Theorem65CoresBoundedDegree) {
  // Boolean preservation on a class whose CORES have bounded degree
  // (wider than bounded degree itself — Theorem 6.5).
  PreservationResult result = PreservationPipeline(
      MustParse("exists x exists y E(x,y)"), GraphVocabulary(),
      CoresBoundedDegreeClass(2), /*search_universe=*/2,
      /*verify_universe=*/3);
  EXPECT_TRUE(result.verified);
  EXPECT_FALSE(result.minimal_models.empty());
}

TEST(Preservation, Theorem66CoresBoundedTreewidth) {
  PreservationResult result = PreservationPipeline(
      MustParse("exists x exists y (E(x,y) & E(y,x))"), GraphVocabulary(),
      CoresBoundedTreewidthClass(2), /*search_universe=*/2,
      /*verify_universe=*/3);
  EXPECT_TRUE(result.verified);
}

TEST(Preservation, Theorem67CoresExcludeMinor) {
  PreservationResult result = PreservationPipeline(
      MustParse("exists x E(x,x) | exists x exists y (E(x,y) & E(y,x))"),
      GraphVocabulary(), CoresExcludeMinorClass(4), /*search_universe=*/2,
      /*verify_universe=*/3);
  EXPECT_TRUE(result.verified);
}

TEST(Plebian, VocabularyShape) {
  // {E/2} with one constant: E, E@p0, E@p1, E@p0p1 (arities 2,1,1,0).
  Vocabulary rho = PlebianVocabulary(GraphVocabulary(), 1);
  EXPECT_EQ(rho.NumRelations(), 4);
  EXPECT_TRUE(rho.IndexOf("E").has_value());
  EXPECT_EQ(rho.Arity(*rho.IndexOf("E@p0=c0")), 1);
  EXPECT_EQ(rho.Arity(*rho.IndexOf("E@p0=c0@p1=c0")), 0);
}

TEST(Plebian, CompanionOfPointedPath) {
  // Path 0->1->2 with constant naming element 1.
  PointedStructure a{DirectedPathStructure(3), {1}};
  Structure companion = PlebianCompanion(a);
  EXPECT_EQ(companion.UniverseSize(), 2);  // elements 0 and 2
  const Vocabulary& rho = companion.GetVocabulary();
  // E itself: no surviving all-plain tuples.
  EXPECT_TRUE(companion.Tuples(*rho.IndexOf("E")).empty());
  // E(x, c0): x = old 0; E(c0, y): y = old 2 (renumbered: 0 -> 0, 2 -> 1).
  EXPECT_TRUE(companion.HasTuple(*rho.IndexOf("E@p1=c0"), {0}));
  EXPECT_TRUE(companion.HasTuple(*rho.IndexOf("E@p0=c0"), {1}));
  EXPECT_FALSE(companion.HasTuple(*rho.IndexOf("E@p0=c0"), {0}));
}

TEST(Plebian, Observation61GaifmanSubgraph) {
  PointedStructure a{UndirectedGraphStructure(WheelGraph(5)), {0}};
  Graph original = GaifmanGraph(a.structure);
  Graph companion_gaifman = GaifmanGraph(PlebianCompanion(a));
  // The companion's Gaifman graph is the induced subgraph on non-constant
  // elements: here, removing the hub leaves the 5-cycle.
  Graph expected = original.RemoveVertices({0});
  EXPECT_EQ(companion_gaifman, expected);
}

TEST(Plebian, Observation62HomomorphismCorrespondence) {
  // Pointed homs A -> B exist iff companion homs pA -> pB exist.
  PointedStructure a{DirectedPathStructure(3), {0}};
  PointedStructure b{DirectedCycleStructure(3), {0}};
  PointedStructure c{DirectedPathStructure(2), {1}};
  EXPECT_EQ(HasPointedHomomorphism(a, b),
            HasHom(PlebianCompanion(a), PlebianCompanion(b)));
  EXPECT_EQ(HasPointedHomomorphism(a, c),
            HasHom(PlebianCompanion(a), PlebianCompanion(c)));
  EXPECT_TRUE(HasPointedHomomorphism(a, b));
  EXPECT_FALSE(HasPointedHomomorphism(a, c));
}

TEST(Plebian, Section62WheelCounterexample) {
  // (B_n, h) — bicycle with the hub named — is its own "core" in the
  // pointed sense: no pointed hom to a proper pointed substructure that
  // drops the wheel. Concretely: the unpointed bicycle maps onto its K4,
  // but no constant-preserving hom can move the named hub there... for
  // odd n the wheel W_n is a core, so h must stay on the wheel.
  const int n = 5;
  Structure b = UndirectedGraphStructure(BicycleGraph(n));  // wheel then K4
  PointedStructure pointed{b, {0}};                         // hub named
  // Unpointed: bicycle -> its K4 part exists.
  Structure k4 = UndirectedGraphStructure(CompleteGraph(4));
  EXPECT_TRUE(HasHom(b, k4));
  // Pointed: restrict targets to the bicycle itself minus a wheel rim
  // vertex — no constant-preserving hom (W5 is a core).
  std::vector<int> keep;
  for (int v = 0; v < b.UniverseSize(); ++v) {
    if (v != 1) keep.push_back(v);  // drop one rim vertex
  }
  Structure reduced = b.InducedSubstructure(keep);
  PointedStructure pointed_reduced{reduced, {0}};
  EXPECT_FALSE(HasPointedHomomorphism(pointed, pointed_reduced));
}

}  // namespace
}  // namespace hompres
