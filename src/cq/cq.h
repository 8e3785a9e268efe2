// Conjunctive queries (Section 2.2).
//
// A conjunctive query is represented by its canonical structure (elements
// = variables, tuples = atoms) together with the list of free (output)
// variables; Boolean queries have none. The Chandra-Merlin theorem makes
// this representation operational: B satisfies the query iff there is a
// homomorphism from the canonical structure to B (mapping free variables
// to the answer tuple). Containment, equivalence and minimization live
// in opt/containment.h.

#ifndef HOMPRES_CQ_CQ_H_
#define HOMPRES_CQ_CQ_H_

#include <string>
#include <vector>

#include "structure/structure.h"

namespace hompres {

class ConjunctiveQuery {
 public:
  // `free_elements` lists the canonical-structure elements playing the
  // role of free variables (order = output order; repetitions allowed).
  ConjunctiveQuery(Structure canonical, std::vector<int> free_elements);

  // The canonical Boolean conjunctive query phi_A of a structure
  // (Section 2.2).
  static ConjunctiveQuery BooleanQueryOf(Structure canonical);

  const Structure& Canonical() const { return canonical_; }
  const std::vector<int>& FreeElements() const { return free_elements_; }
  int Arity() const { return static_cast<int>(free_elements_.size()); }
  bool IsBoolean() const { return free_elements_.empty(); }

  // Boolean satisfaction: does any homomorphism canonical -> b exist?
  // (For non-Boolean queries this means "the answer is nonempty".)
  bool SatisfiedBy(const Structure& b) const;

  // All answer tuples over b, sorted and deduplicated. For Boolean
  // queries the answer is {()} or {}.
  std::vector<Tuple> Evaluate(const Structure& b) const;

  // Rendering, e.g. "∃x1 ∃x2 (E(x0,x1) ∧ E(x1,x2))" with free variables
  // unquantified.
  std::string ToString() const;

 private:
  Structure canonical_;
  std::vector<int> free_elements_;
};

}  // namespace hompres

#endif  // HOMPRES_CQ_CQ_H_
