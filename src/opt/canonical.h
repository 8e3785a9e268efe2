// Canonical forms and fingerprints of conjunctive queries.
//
// Two conjunctive queries that differ only by a renaming of their
// variables are the same query; every layer above containment wants to
// treat them as one. This module computes a canonical relabeling of a
// CQ's canonical structure — deterministic, invariant under variable
// renaming — and derives from it a 64-bit fingerprint in the spirit of
// Structure::Fingerprint(): equal canonical forms fingerprint equal,
// distinct forms collide with probability ~2^-64. The fingerprint keys
// the containment-verdict cache (opt/containment.h) and the UCQ
// optimizer's duplicate elimination (opt/optimizer.h).
//
// Normalization performed along the way:
//   - atom deduplication is inherent: Structure stores each relation as
//     a sorted duplicate-free tuple list, so "E(x,y) & E(x,y)" and
//     "E(x,y)" construct the same canonical structure;
//   - output-position equalities are encoded in the initial coloring:
//     a free variable's color is a digest of the exact set of output
//     positions it occupies, so "q(x,x)" and "q(x,y) with x=y" (one
//     element listed twice) canonicalize identically and can never be
//     conflated with "q(x,y)" over two elements;
//   - the relabeling itself: elements are ordered by iterated
//     Weisfeiler-Leman-style color refinement (colors are digests of
//     renaming-invariant data only), and remaining ties are broken by
//     an exhaustive minimal-certificate search over the tied classes.
//
// When the tie search would enumerate more than kMaxTieOrderings
// orderings (a highly symmetric query), the relabeling falls back to a
// deterministic but renaming-sensitive order (`exact` = false). The
// fallback is never unsound — the fingerprint still describes exactly
// the relabeled query it was computed from — it only forfeits cache
// sharing between renamed variants of that query. Whether the fallback
// triggers depends only on invariant data (color-class sizes), so the
// same query always takes the same path.

#ifndef HOMPRES_OPT_CANONICAL_H_
#define HOMPRES_OPT_CANONICAL_H_

#include <cstdint>
#include <vector>

#include "cq/cq.h"

namespace hompres {

// Cheap necessary-condition summary of a CQ, used by the containment
// verdict path to dismiss provably-incomparable pairs without a
// homomorphism search (see MayBeContainedIn below).
struct CqSignature {
  int arity = 0;             // number of output positions
  int variables = 0;         // canonical-structure universe size
  int atoms = 0;             // total tuples across all relations
  // Per-relation tuple counts (the relation-symbol multiset).
  std::vector<int> tuples_per_relation;
};

CqSignature SignatureOf(const ConjunctiveQuery& q);

// Necessary condition for `sub` ⊆ `sup` (signatures of q1 and q2 in
// CqContainedBudgeted's orientation: the test is a homomorphism from
// canonical(sup) into canonical(sub)). False = certainly not contained;
// true = a homomorphism search is needed. Sound because a homomorphism
// maps every atom of its source onto an atom of the same relation in
// its target: a relation populated in `sup` but empty in `sub` admits
// no such map, and a nonempty `sup` universe cannot map into an empty
// `sub` universe.
bool MayBeContainedIn(const CqSignature& sub, const CqSignature& sup);

// A canonically relabeled copy of a conjunctive query plus its
// fingerprint. `query` is semantically identical to the input (the
// relabeling is a bijective variable renaming).
struct CanonicalCq {
  ConjunctiveQuery query;
  uint64_t fingerprint = 0;  // never zero
  bool exact = true;         // false: tie search capped, labeling is the
                             // deterministic renaming-sensitive fallback
};

// Bound on the tie-breaking search: when the product of the tied color
// classes' factorials exceeds this many candidate orderings, the
// fallback labeling is used instead.
inline constexpr uint64_t kMaxTieOrderings = 720;

CanonicalCq CanonicalForm(const ConjunctiveQuery& q);

// The fingerprint alone. Renaming-invariant whenever the tie search
// completes (CanonicalForm().exact); deterministic always. Memoized
// process-wide under a digest of the query as written (labeled
// Structure::Fingerprint() plus the free list) — queries are immutable,
// so entries never go stale.
uint64_t CqFingerprint(const ConjunctiveQuery& q);

// Order-independent fingerprint of a set of disjunct fingerprints plus
// the arity: the optimizer's key for "this exact UCQ, up to disjunct
// order and variable renaming". Used by hompresd's optimize-once memo.
uint64_t CombineUcqFingerprint(std::vector<uint64_t> disjunct_fps, int arity);

}  // namespace hompres

#endif  // HOMPRES_OPT_CANONICAL_H_
