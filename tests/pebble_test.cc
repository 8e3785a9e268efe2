#include <gtest/gtest.h>

#include "base/rng.h"
#include "fo/cqk.h"
#include "fo/eval.h"
#include "graph/builders.h"
#include "hom/core.h"
#include "hom_test_util.h"
#include "pebble/pebble_game.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"
#include "tw/tree_decomposition.h"

namespace hompres {
namespace {

TEST(PebbleGame, HomomorphismImpliesDuplicatorWin) {
  // If hom(A, B) exists, the Duplicator wins for every k (play through
  // the homomorphism).
  Structure a = DirectedPathStructure(4);
  Structure b = DirectedCycleStructure(3);
  ASSERT_TRUE(HasHom(a, b));
  for (int k = 1; k <= 3; ++k) {
    EXPECT_TRUE(DuplicatorWinsExistentialKPebbleGame(a, b, k)) << k;
  }
}

TEST(PebbleGame, Proposition79CycleVsAcyclic) {
  // q(C3, 2)(B) holds iff B has a (directed) cycle.
  Structure c3 = DirectedCycleStructure(3);
  // Directed paths are acyclic: Spoiler wins.
  for (int n : {2, 3, 5}) {
    EXPECT_FALSE(PebbleGameQuery(c3, 2, DirectedPathStructure(n)))
        << "path " << n;
  }
  // Any directed cycle: Duplicator wins (even when no homomorphism
  // exists, e.g. C3 -> C4).
  for (int n : {1, 2, 3, 4, 5}) {
    Structure cn = DirectedCycleStructure(n);
    EXPECT_TRUE(PebbleGameQuery(c3, 2, cn)) << "cycle " << n;
  }
  EXPECT_FALSE(HasHom(c3, DirectedCycleStructure(4)));
}

TEST(PebbleGame, CycleWithTailStillWins) {
  // A structure containing a cycle anywhere lets the Duplicator survive.
  Structure b = DirectedPathStructure(3).DisjointUnion(
      DirectedCycleStructure(4));
  EXPECT_TRUE(PebbleGameQuery(DirectedCycleStructure(3), 2, b));
}

TEST(PebbleGame, MoreVariablesHelpSpoiler) {
  // With 3 pebbles the Spoiler can expose C3 -> C4 inconsistency... C4
  // has no C3 homomorphism and treewidth of C3's core is 2 < 3, so the
  // 3-pebble game coincides with homomorphism (Dalmau et al.).
  Structure c3 = DirectedCycleStructure(3);
  Structure c4 = DirectedCycleStructure(4);
  EXPECT_TRUE(DuplicatorWinsExistentialKPebbleGame(c3, c4, 2));
  EXPECT_FALSE(DuplicatorWinsExistentialKPebbleGame(c3, c4, 3));
}

TEST(PebbleGame, DalmauKolaitisVardiTreewidthCharacterization) {
  // For A whose core has treewidth < k, Duplicator wins the k-pebble game
  // on (A, B) iff hom(A, B). Directed paths have treewidth 1 (< 2).
  Structure a = DirectedPathStructure(4);
  ASSERT_LE(StructureTreewidth(ComputeCore(a)), 1);
  Rng rng(3);
  for (int trial = 0; trial < 12; ++trial) {
    Structure b = RandomStructure(GraphVocabulary(), 2 + trial % 3,
                                  2 + trial % 4, rng);
    EXPECT_EQ(DuplicatorWinsExistentialKPebbleGame(a, b, 2),
              HasHom(a, b))
        << b.DebugString();
  }
}

TEST(PebbleGame, Theorem76CqkTransfer) {
  // If Duplicator wins the k-pebble game on (A, B), every CQ^k sentence
  // true in A is true in B.
  Rng rng(29);
  Structure a = DirectedCycleStructure(3);
  Structure b = DirectedCycleStructure(5);
  ASSERT_TRUE(DuplicatorWinsExistentialKPebbleGame(a, b, 2));
  for (int trial = 0; trial < 25; ++trial) {
    FormulaPtr f = RandomCqkSentence(GraphVocabulary(), 2, 4, rng);
    if (EvaluateSentence(a, f)) {
      EXPECT_TRUE(EvaluateSentence(b, f)) << f->ToString();
    }
  }
}

TEST(PebbleGame, EmptyStructures) {
  Structure empty(GraphVocabulary(), 0);
  Structure nonempty(GraphVocabulary(), 2);
  EXPECT_TRUE(DuplicatorWinsExistentialKPebbleGame(empty, nonempty, 2));
  EXPECT_FALSE(DuplicatorWinsExistentialKPebbleGame(nonempty, empty, 2));
}

TEST(PebbleGame, UndirectedColoringGames) {
  // Hom(C5, K3) exists, so Duplicator wins; hom(C5, K2) does not, and
  // with 3 pebbles the Spoiler exposes it (core of C5 is C5 itself,
  // treewidth 2 < 3).
  Structure c5 = UndirectedGraphStructure(CycleGraph(5));
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  Structure k2 = UndirectedGraphStructure(CompleteGraph(2));
  EXPECT_TRUE(DuplicatorWinsExistentialKPebbleGame(c5, k3, 3));
  EXPECT_FALSE(DuplicatorWinsExistentialKPebbleGame(c5, k2, 3));
}

}  // namespace
}  // namespace hompres
