// Containment, equivalence and minimization of conjunctive queries and
// their unions: the one module every such question goes through.
//
// Chandra-Merlin (Section 2.2): q1 ⊆ q2 (every answer of q1 on every
// structure is an answer of q2) iff there is a homomorphism from
// canonical(q2) to canonical(q1) mapping the i-th free variable of q2 to
// the i-th free variable of q1. Sagiv-Yannakakis lifts it to unions: Q1
// ⊆ Q2 iff every disjunct of Q1 is contained in some disjunct of Q2.
// Equivalence is containment both ways. Minimizing a CQ is
// MinimizeCqBudgeted below; minimizing a UCQ is the optimizer's pass
// (opt/optimizer.h, OptimizeUcqBudgeted).
//
// Every form charges one caller Budget and returns StoppedShort when it
// ran out before the answer was certain; callers that want no limit pass
// `Budget unlimited = Budget::Unlimited()` and read `.Value()`. CQ
// containment takes an optional injected ContainmentCache (null, the
// default, runs uncached): the optimizer's subsumption pass memoizes
// through it, the daemon and the replay do not. The other forms run
// uncached.

#ifndef HOMPRES_OPT_CONTAINMENT_H_
#define HOMPRES_OPT_CONTAINMENT_H_

#include <cstdint>
#include <vector>

#include "base/budget.h"
#include "base/hash.h"
#include "base/outcome.h"
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

// The process-wide cache the optimizer consults by default (leaked,
// like GlobalHomCache()).
inline ContainmentCache& GlobalContainmentCache() {
  static ContainmentCache* cache =
      new ContainmentCache(MakeContainmentCache());
  return *cache;
}

// What the verdict path reads of a query besides the query itself: its
// signature (the prefilter) and its canonical fingerprint (the cache
// key). Computed from the query in place: a copied query's Structure
// drops its cached fingerprint, and re-hashing it costs more than a
// cache hit.
struct CqFacts {
  CqSignature signature;
  uint64_t fingerprint = 0;
};

CqFacts FactsOf(const ConjunctiveQuery& q);

// Where a series of containment tests went. OptimizerStats extends it.
struct ContainmentStats {
  // Pairs dismissed by the signature prefilter.
  uint64_t prefilter_skips = 0;
  // Tests answered by the cache / run by the engine.
  uint64_t cache_hits = 0;
  uint64_t containment_tests = 0;
  // Fallbacks taken (kCacheLookupToMiss, kCacheInsertSkipped, and the
  // optimizer's kMinimizeToUnminimized).
  std::vector<DegradationEvent> degradations;
};

// q1 ⊆ q2. Arities must match. The verdict path, in order:
//   - the signature prefilter (MayBeContainedIn): a certain "no" without
//     a search. It is also the nullary-atom guard: a 0-ary atom of q2
//     missing from q1 leaves that relation populated in q2 and empty in
//     q1. The kernel's propagation is variable-driven and never sees
//     such an atom, and with an empty q2 universe it would emit the
//     empty map unconditionally;
//   - with a cache, the lookup (an unreadable shard is evicted and
//     recorded as kCacheLookupToMiss);
//   - the engine, with each free variable of q2 forced onto the
//     matching one of q1. A repeated free variable of q2 is forced onto
//     two q1 elements; the conflicting pre-assignments empty its domain
//     in the kernel (the cq_test rows pin this). Boolean containment
//     factorizes; forced pairs pin the unsplit universe;
//   - with a cache, the insert of a completed verdict (a failed insert
//     is recorded as kCacheInsertSkipped).
// A verdict decided without a search (prefilter or cache hit) charged
// nothing and carries an empty BudgetReport: Budget::Report() reads the
// clock, which would cost about a quarter of a warm cache hit. The
// equivalence and UCQ forms re-stamp their answers with the shared
// budget's report.
Outcome<bool> CqContainedBudgeted(const ConjunctiveQuery& q1,
                                  const ConjunctiveQuery& q2, Budget& budget,
                                  ContainmentCache* cache = nullptr);

// The same verdict path on precomputed facts, for callers that test one
// query many times (the optimizer's subsumption pass computes each
// disjunct's facts once, not once per probe). `facts*.fingerprint` is
// read only when `cache` is set; `stats` (nullable) records the path
// taken and any cache fallback.
Outcome<bool> CqContainedBudgeted(const ConjunctiveQuery& q1,
                                  const CqFacts& facts1,
                                  const ConjunctiveQuery& q2,
                                  const CqFacts& facts2, Budget& budget,
                                  ContainmentCache* cache,
                                  ContainmentStats* stats);

// Unlimited, uncached q1 ⊆ q2. Kept for the end-to-end benchmark's
// replay, which calls it by this name.
bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

Outcome<bool> CqEquivalentBudgeted(const ConjunctiveQuery& q1,
                                   const ConjunctiveQuery& q2, Budget& budget);

// Sagiv-Yannakakis over the CQ verdict path; each disjunct's signature
// is computed once.
Outcome<bool> UcqContainedBudgeted(const UnionOfCq& q1, const UnionOfCq& q2,
                                   Budget& budget);

Outcome<bool> UcqEquivalentBudgeted(const UnionOfCq& q1, const UnionOfCq& q2,
                                    Budget& budget);

// Chandra-Merlin minimization: the unique (up to isomorphism) smallest
// equivalent conjunctive query, i.e. the core of the canonical structure
// relative to the free variables. The budget is shared across all inner
// equivalence tests. Done(q') is a verified minimal equivalent;
// StoppedShort claims no intermediate result.
Outcome<ConjunctiveQuery> MinimizeCqBudgeted(const ConjunctiveQuery& q,
                                             Budget& budget);

}  // namespace hompres

#endif  // HOMPRES_OPT_CONTAINMENT_H_
