#include <vector>

#include <gtest/gtest.h>

#include "containment_test_util.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "graph/builders.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

// phi = Ex Ey Ez (E(x,y) & E(y,z)): "there is a path of length 2".
ConjunctiveQuery PathQuery(int edges) {
  return ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(edges + 1));
}

TEST(Cq, ChandraMerlinSatisfaction) {
  // B |= phi_A iff hom(A, B) (Theorem 2.1).
  ConjunctiveQuery q = PathQuery(2);
  EXPECT_TRUE(q.SatisfiedBy(DirectedPathStructure(5)));
  EXPECT_TRUE(q.SatisfiedBy(DirectedCycleStructure(3)));
  EXPECT_FALSE(q.SatisfiedBy(DirectedPathStructure(2)));  // only 1 edge
}

TEST(Cq, BooleanEvaluateYieldsEmptyTuple) {
  ConjunctiveQuery q = PathQuery(1);
  const auto answers = q.Evaluate(DirectedPathStructure(2));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].empty());
  EXPECT_TRUE(q.Evaluate(Structure(GraphVocabulary(), 1)).empty());
}

TEST(Cq, NonBooleanAnswers) {
  // q(x, y) = E(x, y): answers are the edges themselves.
  Structure canonical(GraphVocabulary(), 2);
  canonical.AddTuple(0, {0, 1});
  ConjunctiveQuery q(canonical, {0, 1});
  Structure p3 = DirectedPathStructure(3);
  const auto answers = q.Evaluate(p3);
  EXPECT_EQ(answers, (std::vector<Tuple>{{0, 1}, {1, 2}}));
}

TEST(Cq, ProjectionAnswers) {
  // q(x) = Ey E(x, y): elements with out-edges.
  Structure canonical(GraphVocabulary(), 2);
  canonical.AddTuple(0, {0, 1});
  ConjunctiveQuery q(canonical, {0});
  const auto answers = q.Evaluate(DirectedPathStructure(3));
  EXPECT_EQ(answers, (std::vector<Tuple>{{0}, {1}}));
}

TEST(Cq, ContainmentLongerPathImpliesShorter) {
  // "path of length 3" implies "path of length 2" as Boolean queries.
  EXPECT_TRUE(IsContained(PathQuery(3), PathQuery(2)));
  EXPECT_FALSE(IsContained(PathQuery(2), PathQuery(3)));
}

TEST(Cq, ContainmentRespectsFreeVariables) {
  // q1(x) = "x has an out-edge to something with an out-edge";
  // q2(x) = "x has an out-edge". q1 ⊆ q2.
  Structure c1(GraphVocabulary(), 3);
  c1.AddTuple(0, {0, 1});
  c1.AddTuple(0, {1, 2});
  ConjunctiveQuery q1(c1, {0});
  Structure c2(GraphVocabulary(), 2);
  c2.AddTuple(0, {0, 1});
  ConjunctiveQuery q2(c2, {0});
  EXPECT_TRUE(IsContained(q1, q2));
  EXPECT_FALSE(IsContained(q2, q1));
}

TEST(Cq, ContainmentWithRepeatedVariableInOneAtom) {
  // loop = Ex E(x,x); edge = Ex Ey E(x,y). A loop is an edge, so
  // loop ⊆ edge; an edge need not be a loop.
  Structure loop_canonical(GraphVocabulary(), 1);
  loop_canonical.AddTuple(0, {0, 0});
  ConjunctiveQuery loop = ConjunctiveQuery::BooleanQueryOf(loop_canonical);
  ConjunctiveQuery edge = PathQuery(1);
  EXPECT_TRUE(IsContained(loop, edge));
  EXPECT_FALSE(IsContained(edge, loop));
}

TEST(Cq, ContainmentWithRepeatedFreeVariable) {
  // diag(x, x) = E(x,x) listing the same element in both output
  // positions, versus pair(x, y) = E(x,y). The containment test forces
  // free variables pointwise, so the repeated-variable query is
  // contained in the general one but not conversely: pair's two free
  // variables cannot both be forced onto diag's single element unless
  // they were already equal.
  Structure diag_canonical(GraphVocabulary(), 1);
  diag_canonical.AddTuple(0, {0, 0});
  ConjunctiveQuery diag(diag_canonical, {0, 0});
  Structure pair_canonical(GraphVocabulary(), 2);
  pair_canonical.AddTuple(0, {0, 1});
  ConjunctiveQuery pair(pair_canonical, {0, 1});
  EXPECT_TRUE(IsContained(diag, pair));
  EXPECT_FALSE(IsContained(pair, diag));
  // Sanity at the answer level: on a structure with a loop and a
  // non-loop edge, diag answers only the loop pair.
  Structure b(GraphVocabulary(), 2);
  b.AddTuple(0, {0, 0});
  b.AddTuple(0, {0, 1});
  EXPECT_EQ(diag.Evaluate(b), (std::vector<Tuple>{{0, 0}}));
  EXPECT_EQ(pair.Evaluate(b), (std::vector<Tuple>{{0, 0}, {0, 1}}));
}

// {P/0, E/2}: a nullary "flag" relation alongside edges.
Vocabulary FlagVocabulary() {
  Vocabulary voc;
  voc.AddRelation("P", 0);
  voc.AddRelation("E", 2);
  return voc;
}

TEST(Cq, ContainmentWithNullaryAtoms) {
  // q_flag = P() & Ex E(x,y): asserts the flag. q_plain = Ex E(x,y).
  // q_flag ⊆ q_plain (dropping a conjunct only widens the query), but
  // q_plain ⊄ q_flag: a structure with an edge and no flag separates
  // them. The homomorphism kernel's propagation is variable-driven and
  // never sees a 0-ary atom, so this row pins the nullary-atom guard
  // that CqContainedBudgeted's signature prefilter provides.
  Structure flag_canonical(FlagVocabulary(), 2);
  flag_canonical.AddTuple(0, {});
  flag_canonical.AddTuple(1, {0, 1});
  ConjunctiveQuery q_flag = ConjunctiveQuery::BooleanQueryOf(flag_canonical);
  Structure plain_canonical(FlagVocabulary(), 2);
  plain_canonical.AddTuple(1, {0, 1});
  ConjunctiveQuery q_plain =
      ConjunctiveQuery::BooleanQueryOf(plain_canonical);
  EXPECT_TRUE(IsContained(q_flag, q_plain));
  EXPECT_FALSE(IsContained(q_plain, q_flag));
  // The separating structure, checked end to end.
  Structure edge_no_flag(FlagVocabulary(), 2);
  edge_no_flag.AddTuple(1, {0, 1});
  EXPECT_TRUE(q_plain.SatisfiedBy(edge_no_flag));
  EXPECT_FALSE(q_flag.SatisfiedBy(edge_no_flag));
}

TEST(Cq, NullaryOnlyQueriesContainEachOther) {
  // Two copies of the pure-flag query P() over empty universes: mutual
  // containment must hold even though there is no variable at all.
  Structure a(FlagVocabulary(), 0);
  a.AddTuple(0, {});
  Structure b(FlagVocabulary(), 0);
  b.AddTuple(0, {});
  EXPECT_TRUE(IsEquivalent(ConjunctiveQuery::BooleanQueryOf(a),
                           ConjunctiveQuery::BooleanQueryOf(b)));
  // And the flagless empty query strictly contains the flagged one.
  Structure no_flag(FlagVocabulary(), 0);
  ConjunctiveQuery q_true = ConjunctiveQuery::BooleanQueryOf(no_flag);
  ConjunctiveQuery q_flag = ConjunctiveQuery::BooleanQueryOf(a);
  EXPECT_TRUE(IsContained(q_flag, q_true));
  EXPECT_FALSE(IsContained(q_true, q_flag));
}

TEST(Cq, EquivalenceOfRenamedQueries) {
  // Two copies of the same pattern with different element orders.
  Structure a(GraphVocabulary(), 2);
  a.AddTuple(0, {0, 1});
  Structure b(GraphVocabulary(), 2);
  b.AddTuple(0, {1, 0});
  EXPECT_TRUE(IsEquivalent(ConjunctiveQuery::BooleanQueryOf(a),
                           ConjunctiveQuery::BooleanQueryOf(b)));
}

TEST(Cq, MinimizationCollapsesRedundantAtoms) {
  // Ex Ey Ez (E(x,y) & E(x,z)) is equivalent to Ex Ey E(x,y).
  Structure canonical(GraphVocabulary(), 3);
  canonical.AddTuple(0, {0, 1});
  canonical.AddTuple(0, {0, 2});
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(canonical);
  ConjunctiveQuery minimized = Minimized(q);
  EXPECT_EQ(minimized.Canonical().UniverseSize(), 2);
  EXPECT_EQ(minimized.Canonical().NumTuples(), 1);
  EXPECT_TRUE(IsEquivalent(q, minimized));
}

TEST(Cq, MinimizationKeepsCores) {
  // The 3-cycle query is already minimal.
  ConjunctiveQuery q =
      ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3));
  ConjunctiveQuery minimized = Minimized(q);
  EXPECT_EQ(minimized.Canonical().UniverseSize(), 3);
  EXPECT_EQ(minimized.Canonical().NumTuples(), 3);
}

TEST(Cq, MinimizationPreservesFreeVariables) {
  // q(x) = Ey Ez (E(x,y) & E(x,z)) minimizes to Ey E(x,y), keeping x free.
  Structure canonical(GraphVocabulary(), 3);
  canonical.AddTuple(0, {0, 1});
  canonical.AddTuple(0, {0, 2});
  ConjunctiveQuery q(canonical, {0});
  ConjunctiveQuery minimized = Minimized(q);
  EXPECT_EQ(minimized.Canonical().UniverseSize(), 2);
  EXPECT_EQ(minimized.Arity(), 1);
  EXPECT_TRUE(IsEquivalent(q, minimized));
}

TEST(Cq, ToStringMentionsAtoms) {
  const std::string text = PathQuery(1).ToString();
  EXPECT_NE(text.find("E(x0,x1)"), std::string::npos);
}

TEST(Ucq, EvaluationIsUnionOfDisjuncts) {
  UnionOfCq q({PathQuery(3), PathQuery(1)});
  EXPECT_TRUE(q.SatisfiedBy(DirectedPathStructure(2)));   // via length-1
  EXPECT_FALSE(q.SatisfiedBy(Structure(GraphVocabulary(), 2)));
}

TEST(Ucq, EmptyUnionIsFalse) {
  UnionOfCq q({}, 0);
  EXPECT_FALSE(q.SatisfiedBy(DirectedPathStructure(3)));
  EXPECT_TRUE(q.Evaluate(DirectedPathStructure(3)).empty());
}

TEST(Ucq, SagivYannakakisContainment) {
  // {path3} ⊆ {path2, path5} because path3 ⊆ path2.
  UnionOfCq q1({PathQuery(3)});
  UnionOfCq q2({PathQuery(2), PathQuery(5)});
  EXPECT_TRUE(IsContained(q1, q2));
  // {path2} ⊄ {path3, path5}.
  UnionOfCq q3({PathQuery(2)});
  UnionOfCq q4({PathQuery(3), PathQuery(5)});
  EXPECT_FALSE(IsContained(q3, q4));
}

TEST(Ucq, ContainmentNeedsPerDisjunctWitness) {
  // The classic point of Sagiv-Yannakakis: q1 ⊆ q2 as a whole iff EACH
  // disjunct of q1 is contained in SOME single disjunct of q2. The
  // subsumed disjunct path4 rides along for free in both directions here:
  UnionOfCq q1({PathQuery(1), PathQuery(4)});
  UnionOfCq q2({PathQuery(1)});
  EXPECT_TRUE(IsContained(q1, q2));
  EXPECT_TRUE(IsContained(q2, q1));  // path1 is itself a disjunct of q1
  // A genuinely incomparable pair: a directed 3-cycle is not contained in
  // any single path disjunct, even though... (C3 satisfies path-k queries
  // for every k, but containment must hold on ALL structures).
  UnionOfCq cycles(
      {ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3))});
  UnionOfCq paths({PathQuery(1), PathQuery(2)});
  EXPECT_TRUE(IsContained(cycles, paths));   // C3 |= path2 pattern: hom
  EXPECT_FALSE(IsContained(paths, cycles));  // paths have no cycle
}

TEST(Ucq, EquivalenceAfterReordering) {
  UnionOfCq q1({PathQuery(1), PathQuery(2)});
  UnionOfCq q2({PathQuery(2), PathQuery(1)});
  EXPECT_TRUE(IsEquivalent(q1, q2));
}

TEST(Ucq, MinimizeDropsSubsumedDisjuncts) {
  // path3 ⊆ path2 ⊆ path1, so the union collapses to path1.
  UnionOfCq q({PathQuery(3), PathQuery(2), PathQuery(1)});
  UnionOfCq minimized = Minimized(q);
  EXPECT_EQ(minimized.Disjuncts().size(), 1u);
  EXPECT_TRUE(IsEquivalent(q, minimized));
  // The survivor is the length-1 path query.
  EXPECT_EQ(minimized.Disjuncts()[0].Canonical().NumTuples(), 1);
}

TEST(Ucq, MinimizeKeepsIncomparableDisjuncts) {
  // Directed 3-cycle and directed 4-cycle queries are incomparable.
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3)),
               ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(4))});
  UnionOfCq minimized = Minimized(q);
  EXPECT_EQ(minimized.Disjuncts().size(), 2u);
}

TEST(Ucq, MinimizeDeduplicatesEquivalentDisjuncts) {
  UnionOfCq q({PathQuery(2), PathQuery(2)});
  UnionOfCq minimized = Minimized(q);
  EXPECT_EQ(minimized.Disjuncts().size(), 1u);
}

}  // namespace
}  // namespace hompres
