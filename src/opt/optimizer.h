// The containment-driven UCQ optimizer: minimization of a union of
// conjunctive queries (opt/containment.h holds the containment,
// equivalence and CQ-minimization forms it is built on).
//
// Theorem 3.1 materializes a preserved sentence as the union of the
// canonical CQs of its minimal models — a UCQ that is wildly redundant
// in practice: renamed copies of the same pattern, non-core disjuncts,
// disjuncts subsumed by more general ones. This layer removes that
// redundancy cheaply:
//
//   1. every disjunct is canonicalized (opt/canonical.h) and duplicates
//      — including renamed duplicates — collapse by fingerprint before
//      any homomorphism search runs;
//   2. the surviving representatives are minimized: Boolean disjuncts
//      through the tuned core machinery (hom/core.h), free-variable
//      disjuncts through MinimizeCqBudgeted; then re-canonicalized and
//      re-deduplicated (distinct inputs often share a core);
//   3. a subsumption pass drops every disjunct contained in another.
//      Each probe runs CqContainedBudgeted's verdict path on facts
//      computed once per disjunct: the signature prefilter dismisses
//      provably-incomparable pairs, and verdicts are memoized in the
//      injected containment cache keyed by canonical fingerprints.
//
// The whole pass is governable: it charges the caller's Budget (one
// step per unit of orchestration plus the real search steps of every
// inner probe), and on exhaustion it *degrades to the unminimized
// input* — semantically equivalent, just redundant — recording a
// DegradationKind::kMinimizeToUnminimized event (DESIGN.md §4.6) rather
// than failing. The "opt/contain" failpoint drills the same path: a
// fired probe is treated as unavailable and the candidate disjunct is
// conservatively kept.
//
// Output disjuncts are emitted in canonical-fingerprint order and
// equivalent inputs always keep the smallest-fingerprint
// representative, so the result is invariant under permutations of the
// input disjuncts.

#ifndef HOMPRES_OPT_OPTIMIZER_H_
#define HOMPRES_OPT_OPTIMIZER_H_

#include <cstdint>

#include "base/budget.h"
#include "cq/ucq.h"
#include "opt/containment.h"

namespace hompres {

struct OptimizerOptions {
  // Where stage 3 memoizes containment verdicts; nullptr = uncached.
  ContainmentCache* cache = &GlobalContainmentCache();

  // Check UcqEquivalentBudgeted(input, output) (unlimited, uncached)
  // before returning. Skipped when the pass degraded.
  bool verify = false;
};

// The containment fields (prefilter skips, cache hits, engine tests,
// degradations) come from ContainmentStats.
struct OptimizerStats : ContainmentStats {
  int input_disjuncts = 0;
  int output_disjuncts = 0;
  // Renamed/exact duplicates collapsed by fingerprint (stages 1 + 2).
  int fingerprint_dedups = 0;
  // The pass fell back to the (equivalent) unoptimized input.
  bool degraded_to_input = false;
};

// The optimizer pass described above: the UCQ form of minimization
// (Sagiv-Yannakakis). Always returns a query equivalent
// to `q`; under a stopped budget (or a fired "opt/contain" probe) the
// result may keep redundant disjuncts, with the fallback recorded in
// `stats` (and stats->degraded_to_input set when the whole pass
// degenerated to a copy of the input).
UnionOfCq OptimizeUcqBudgeted(const UnionOfCq& q, Budget& budget,
                              const OptimizerOptions& options = {},
                              OptimizerStats* stats = nullptr);

// Order-invariant fingerprint of the whole UCQ (the canonical disjunct
// fingerprints combined): the key of hompresd's optimize-once memo.
uint64_t UcqFingerprint(const UnionOfCq& q);

}  // namespace hompres

#endif  // HOMPRES_OPT_OPTIMIZER_H_
