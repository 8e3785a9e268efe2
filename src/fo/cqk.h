// CQ^k formulas and the Lemma 7.2 construction.
//
// CQ^k is the set of first-order formulas with at most k distinct
// variables built from relation atoms using conjunction and existential
// quantification only (variables may be requantified and reused — that is
// the entire point). Lemma 7.2: every CQ^k sentence is logically
// equivalent to the canonical conjunctive query of a structure of
// treewidth < k; the construction renames bound variables apart and reads
// a width-(k-1) tree decomposition off the parse tree.

#ifndef HOMPRES_FO_CQK_H_
#define HOMPRES_FO_CQK_H_

#include <optional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "fo/formula.h"
#include "structure/structure.h"
#include "tw/tree_decomposition.h"

namespace hompres {

// Number of distinct variable names occurring in f.
int DistinctVariableCount(const FormulaPtr& f);

// True iff f uses only atoms, ∧ and ∃ (the CQ^k shape; equalities are
// excluded — the paper eliminates them by substitution) and has at most k
// distinct variables.
bool IsCqkFormula(const FormulaPtr& f, int k);

struct CqkCanonicalResult {
  // The canonical structure D of Lemma 7.2 (elements = renamed-apart
  // variables).
  Structure structure;
  // The renamed variable that each element came from.
  std::vector<std::string> element_names;
  // A certified tree decomposition of D's Gaifman graph with width < k,
  // built from the parse tree.
  TreeDecomposition decomposition;
};

// Lemma 7.2 for sentences: returns nullopt if f is not a CQ^k sentence
// over `vocabulary` (wrong shape, too many variables, free variables,
// unknown relation, wrong arity). On success, the decomposition is
// validated and has width <= k - 1, and the canonical conjunctive query
// of `structure` is logically equivalent to f (testable via evaluation).
std::optional<CqkCanonicalResult> CqkCanonicalStructure(
    const FormulaPtr& f, const Vocabulary& vocabulary, int k);

// Lemma 7.3: every model A of a ∨CQ^k sentence ∨Φ admits a structure B
// that is (1) a minimal model of ∨Φ, (2) of treewidth < k, and (3) maps
// homomorphically into A — surjectively when A is itself minimal.
struct Lemma73Result {
  // The minimal model B (a substructure of some disjunct's canonical
  // structure).
  Structure minimal_model;
  // A certificate that B has treewidth < k.
  TreeDecomposition decomposition;
  // A homomorphism B -> A.
  std::vector<int> hom_to_a;
  // Whether hom_to_a is surjective onto A's universe.
  bool surjective = false;
};

// Runs the Lemma 7.3 construction for the finite family `phi` of CQ^k
// sentences against a model `a` of the disjunction. Returns nullopt if
// no disjunct is satisfied by `a` or some disjunct is not a CQ^k
// sentence over the vocabulary. B stays small (a substructure of one
// canonical structure), so the treewidth certificate uses the exact
// solver.
std::optional<Lemma73Result> Lemma73Witness(
    const std::vector<FormulaPtr>& phi, const Vocabulary& vocabulary, int k,
    const Structure& a);

// Theorem 7.4, constructive content: if the disjunction of the CQ^k
// sentences in `phi` is equivalent to a first-order sentence on finite
// structures, it is equivalent to a finite subdisjunction; the proof
// extracts one disjunct per minimal model. This function runs that
// extraction on a finite family (the stand-in for the paper's infinite
// Φ): it enumerates the minimal models of ∨Φ (over all finite
// structures), picks for each a disjunct it satisfies, and returns those
// indices (deduplicated, increasing). The result ∨Ψ is equivalent to
// ∨Φ; callers can verify with UcqEquivalentBudgeted after converting.
// Returns nullopt if some element of phi is not a CQ^k sentence over the
// vocabulary.
std::optional<std::vector<int>> Theorem74Subdisjunction(
    const std::vector<FormulaPtr>& phi, const Vocabulary& vocabulary,
    int k);

// Random CQ^k sentence generator for the benches: builds a random
// ∃/∧/atom tree over the fixed variable pool {v0, ..., v<k-1>}, reusing
// and requantifying variables, then closes it with outer quantifiers.
// `atom_budget` bounds the number of atoms. Requires k >= 1 and a
// vocabulary whose arities are all <= k.
FormulaPtr RandomCqkSentence(const Vocabulary& vocabulary, int k,
                             int atom_budget, Rng& rng);

}  // namespace hompres

#endif  // HOMPRES_FO_CQK_H_
