// Cores of finite structures (Section 6.2).
//
// A substructure B of A is a core of A if there is a homomorphism A -> B
// but none to any proper substructure of B. Every finite structure has a
// unique core up to isomorphism, and A is homomorphically equivalent to
// core(A). Substructures here follow the paper: they may drop tuples as
// well as elements, so the computation reduces through both kinds of
// one-step removals (the maximal proper substructures).

#ifndef HOMPRES_HOM_CORE_H_
#define HOMPRES_HOM_CORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "structure/structure.h"

namespace hompres {

// The core of `a`, computed by greedy one-step reduction: while some
// "remove one element" or "remove one tuple" substructure admits a
// homomorphism from the current structure, descend into it. The result is
// hom-equivalent to `a` and is a core. Exponential worst case (each step
// is a homomorphism search); intended for the modest structures the paper
// discusses.
//
// With num_threads > 0 the retraction searches of each reduction step fan
// out over a work-stealing pool (one task per candidate removal). The
// reduction still descends into the first candidate (in the serial scan
// order) that admits a retraction, so the result is the same structure
// the serial computation produces, for any thread count.
Structure ComputeCore(const Structure& a, int num_threads = 0);

// Budgeted core computation; the budget is shared across all inner
// homomorphism searches. Done(core) is a verified core; Exhausted /
// Cancelled mean the reduction stopped short and no intermediate result
// is claimed (a partial retract is not hom-distinguishable from the
// input, but it is not known to be the core either).
Outcome<Structure> ComputeCoreBudgeted(const Structure& a, Budget& budget,
                                       int num_threads = 0);

// True iff `a` is its own core: no homomorphism from `a` into any proper
// substructure. Equivalently (by the maximal-substructure argument), no
// homomorphism into any one-step removal.
bool IsCore(const Structure& a, int num_threads = 0);

Outcome<bool> IsCoreBudgeted(const Structure& a, Budget& budget,
                             int num_threads = 0);

// A retract of a target B: the substructure S of B induced by
// `elements` (element i of S is elements[i] of B), together with the
// fact, verified when it was found, that some homomorphism maps B to S.
// The inclusion maps S to B, so B and S are hom-equivalent and
// hom(A, B) ⇔ hom(A, S) for every source A (Section 6.2's argument for
// cores): every homomorphism-closed question about B can be asked of S.
struct TargetRetract {
  Structure structure;
  std::vector<int> elements;
};

// Step cap of the retract probe a caller runs once per target (the
// daemon runs it at define). Each step is one search node of a B -> S
// search; a 2-colourable or 3-colourable target with a few hundred
// elements needs about one step per element.
inline constexpr uint64_t kTargetRetractMaxSteps = 1u << 14;

// Looks for a small retract of `b` among cheap candidates, each a
// property of the input alone:
//   - a loop element: every relation of arity >= 1 holds (v, ..., v);
//   - per binary relation, a clique grown greedily (highest degree
//     first) in its symmetric part (pairs u != v with both R(u,v) and
//     R(v,u)): a bipartite graph retracts onto an edge, a 3-colourable
//     one with a triangle onto the triangle.
// A candidate S = b.InducedSubstructure(elements) smaller than `b` is
// accepted only when a budgeted Engine::Find(b, S) returns a map that
// VerifyHomomorphism accepts. Done(nullopt) when no candidate passes;
// StoppedShort when the budget ran out first (no retract is claimed).
Outcome<std::optional<TargetRetract>> FindTargetRetractBudgeted(
    const Structure& b, Budget& budget);

}  // namespace hompres

#endif  // HOMPRES_HOM_CORE_H_
