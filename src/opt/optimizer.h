// The containment-driven UCQ optimizer (ROADMAP item 5).
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
//      Candidate pairs are pruned by the signature prefilter
//      (MayBeContainedIn) so provably-incomparable pairs never reach
//      the engine, verdicts are memoized in the process-wide
//      containment cache keyed by canonical fingerprints, and with
//      num_threads > 0 the independent probes fan out over a
//      work-stealing pool.
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
#include "base/hash.h"
#include "base/sharded_cache.h"
#include "cq/ucq.h"
#include "engine/plan.h"
#include "opt/canonical.h"

namespace hompres {

// The containment-verdict cache: "q1 ⊆ q2" keyed by the pair of
// canonical CQ fingerprints (opt/canonical.h), a ShardedCache of 16
// shards x 1024 entries. Theorem 3.1 materializes one canonical CQ per
// minimal model, and most are renamings or specializations of a few
// patterns, so the same pairs recur across a preservation run or a
// batch of hompresd requests.
//
// Soundness (DESIGN.md §4.9): a ConjunctiveQuery is immutable, so its
// fingerprint never goes stale; equal fingerprints are the same
// canonical form up to a ~2^-64 collision, the risk the HomCache
// already accepts. Only verdicts of completed searches are inserted.
struct ContainmentKey {
  uint64_t sub_fp = 0;
  uint64_t sup_fp = 0;

  uint64_t ShardHash() const {
    return Mix64(sub_fp ^ (sup_fp * 0x9E3779B97F4A7C15ULL));
  }
  uint64_t SlotHash() const { return Mix64(Mix64(sub_fp) ^ sup_fp); }
  friend bool operator==(const ContainmentKey&,
                         const ContainmentKey&) = default;
};

using ContainmentCache = ShardedCache<ContainmentKey, bool>;

// A table of the process-wide cache's shape, with the
// "containment_cache/lookup" and "containment_cache/insert" failpoints.
inline ContainmentCache MakeContainmentCache() {
  return ContainmentCache(16, 1024, "containment_cache/lookup",
                          "containment_cache/insert");
}

// The process-wide cache the optimizer consults (leaked, like
// GlobalHomCache()).
inline ContainmentCache& GlobalContainmentCache() {
  static ContainmentCache* cache =
      new ContainmentCache(MakeContainmentCache());
  return *cache;
}

struct OptimizerOptions {
  // Memoize containment verdicts in GlobalContainmentCache().
  bool use_cache = true;

  // Minimize each surviving disjunct (stage 2). Off = deduplicate and
  // subsume only; the disjuncts themselves are kept as given.
  bool minimize_disjuncts = true;

  // Worker threads for the minimization and containment probes. 0 =
  // serial. The verdicts are deterministic, so the result is
  // thread-count-independent; parallelism only applies under an
  // unlimited budget (a limited budget runs serially so step accounting
  // stays exact and deterministic).
  int num_threads = 0;

  // Check UcqEquivalent(input, output) before returning (the historical
  // MinimizeUcq contract). Skipped when the pass degraded.
  bool verify = false;
};

struct OptimizerStats {
  int input_disjuncts = 0;
  int output_disjuncts = 0;
  // Renamed/exact duplicates collapsed by fingerprint (stages 1 + 2).
  int fingerprint_dedups = 0;
  // Candidate pairs dismissed by the signature prefilter.
  uint64_t prefilter_skips = 0;
  // Containment probes answered by the cache / run by the engine.
  uint64_t cache_hits = 0;
  uint64_t containment_tests = 0;
  // The pass fell back to the (equivalent) unoptimized input.
  bool degraded_to_input = false;
  // Fallbacks taken (kMinimizeToUnminimized, kCacheLookupToMiss, ...).
  std::vector<DegradationEvent> degradations;
};

// Cached, prefiltered containment: canonicalizes both queries, applies
// the signature prefilter, consults GlobalContainmentCache(), and
// only then runs the engine. Verdict identical to CqContained.
bool CqContainedCached(const ConjunctiveQuery& q1,
                       const ConjunctiveQuery& q2);

// The optimizer pass described above. Always returns a query equivalent
// to `q`; under a stopped budget (or a fired "opt/contain" probe) the
// result may keep redundant disjuncts, with the fallback recorded in
// `stats` (and stats->degraded_to_input set when the whole pass
// degenerated to a copy of the input).
UnionOfCq OptimizeUcqBudgeted(const UnionOfCq& q, Budget& budget,
                              const OptimizerOptions& options = {},
                              OptimizerStats* stats = nullptr);

UnionOfCq OptimizeUcq(const UnionOfCq& q,
                      const OptimizerOptions& options = {},
                      OptimizerStats* stats = nullptr);

// Order-invariant fingerprint of the whole UCQ (the canonical disjunct
// fingerprints combined): the key of hompresd's optimize-once memo.
uint64_t UcqFingerprint(const UnionOfCq& q);

}  // namespace hompres

#endif  // HOMPRES_OPT_OPTIMIZER_H_
