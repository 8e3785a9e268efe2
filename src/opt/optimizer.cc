#include "opt/optimizer.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/failpoint.h"
#include "base/thread_pool.h"
#include "hom/core.h"

namespace hompres {
namespace {

// What a containment probe reads of one query: its signature (the
// prefilter) and its canonical (renaming-invariant when exact)
// fingerprint, which keys dedup and the verdict cache. Both are computed
// from the query in place: a copied query's Structure drops its cached
// fingerprint, and re-hashing it would cost more than the cache hit.
struct CqFacts {
  CqSignature signature;
  uint64_t fingerprint = 0;
};

CqFacts FactsOf(const ConjunctiveQuery& query) {
  return CqFacts{SignatureOf(query), CqFingerprint(query)};
}

// One disjunct plus everything the pass derives from it. `labeled_fp` is
// the plain Structure::Fingerprint() of the disjunct as written, used
// only to pick a deterministic representative inside a fingerprint class
// (so the choice cannot depend on the input disjunct order).
struct Analyzed {
  ConjunctiveQuery query;
  CqFacts facts;
  uint64_t labeled_fp = 0;
};

Analyzed Analyze(ConjunctiveQuery query) {
  Analyzed a{std::move(query), {}, 0};
  a.facts = FactsOf(a.query);
  a.labeled_fp = a.query.Canonical().Fingerprint();
  return a;
}

// Orders a fingerprint class deterministically; the first element is the
// representative the dedup keeps. The labeled fingerprint breaks almost
// every tie; the remaining keys make the order a function of the queries
// alone even across a labeled-fingerprint collision.
bool RepresentativeOrder(const Analyzed& a, const Analyzed& b) {
  if (a.facts.fingerprint != b.facts.fingerprint) {
    return a.facts.fingerprint < b.facts.fingerprint;
  }
  if (a.labeled_fp != b.labeled_fp) return a.labeled_fp < b.labeled_fp;
  if (a.query.FreeElements() != b.query.FreeElements()) {
    return a.query.FreeElements() < b.query.FreeElements();
  }
  return a.query.Canonical().DebugString() <
         b.query.Canonical().DebugString();
}

// Sorts by (fingerprint, representative order) and collapses each
// fingerprint class to its first element.
void SortAndDedup(std::vector<Analyzed>& items, OptimizerStats& stats) {
  std::sort(items.begin(), items.end(), RepresentativeOrder);
  std::vector<Analyzed> unique;
  unique.reserve(items.size());
  for (Analyzed& item : items) {
    if (!unique.empty() &&
        unique.back().facts.fingerprint == item.facts.fingerprint) {
      ++stats.fingerprint_dedups;
      continue;
    }
    unique.push_back(std::move(item));
  }
  items = std::move(unique);
}

enum class Verdict {
  kNo,       // certainly not contained (prefilter, cache, or search)
  kYes,      // contained
  kUnknown,  // probe unavailable (failpoint / exhausted budget)
};

// Locks `mu` when non-null; the parallel matrix path shares one
// OptimizerStats across workers, the serial path passes nullptr.
class StatsLock {
 public:
  explicit StatsLock(std::mutex* mu) : mu_(mu) {
    if (mu_ != nullptr) mu_->lock();
  }
  ~StatsLock() {
    if (mu_ != nullptr) mu_->unlock();
  }
  StatsLock(const StatsLock&) = delete;
  StatsLock& operator=(const StatsLock&) = delete;

 private:
  std::mutex* mu_;
};

// One containment probe "sub ⊆ sup": prefilter, then cache, then the
// engine. kUnknown means no verdict could be produced — the caller must
// conservatively keep the candidate disjunct.
Verdict ProbeContained(const ConjunctiveQuery& sub, const CqFacts& sub_facts,
                       const ConjunctiveQuery& sup, const CqFacts& sup_facts,
                       Budget& budget, const OptimizerOptions& options,
                       OptimizerStats& stats, std::mutex* mu) {
  if (!MayBeContainedIn(sub_facts.signature, sup_facts.signature)) {
    StatsLock lock(mu);
    ++stats.prefilter_skips;
    return Verdict::kNo;
  }
  if (HOMPRES_FAILPOINT("opt/contain")) {
    StatsLock lock(mu);
    stats.degradations.push_back(
        {DegradationKind::kMinimizeToUnminimized, "opt/contain",
         "containment probe unavailable; keeping the candidate disjunct"});
    return Verdict::kUnknown;
  }
  ContainmentCache& cache = GlobalContainmentCache();
  const ContainmentKey key{sub_facts.fingerprint, sup_facts.fingerprint};
  if (options.use_cache) {
    bool failed = false;
    const std::optional<bool> cached = cache.Lookup(key, &failed);
    if (failed) {
      cache.EvictShardFor(key);
      StatsLock lock(mu);
      stats.degradations.push_back(
          {DegradationKind::kCacheLookupToMiss, "containment_cache/lookup",
           "unreadable shard evicted; recomputing the verdict"});
    } else if (cached.has_value()) {
      StatsLock lock(mu);
      ++stats.cache_hits;
      return *cached ? Verdict::kYes : Verdict::kNo;
    }
  }
  {
    StatsLock lock(mu);
    ++stats.containment_tests;
  }
  const Outcome<bool> contained = CqContainedBudgeted(sub, sup, budget);
  if (!contained.IsDone()) return Verdict::kUnknown;
  if (options.use_cache && !cache.Insert(key, contained.Value())) {
    StatsLock lock(mu);
    stats.degradations.push_back(
        {DegradationKind::kCacheInsertSkipped, "containment_cache/insert",
         "verdict computed but not memoized"});
  }
  return contained.Value() ? Verdict::kYes : Verdict::kNo;
}

// Minimizes one disjunct in place (Boolean disjuncts through the core
// machinery, which knows the sharper one-step-reduction pruning and can
// parallelize its retraction searches). False = the budget ran out.
bool MinimizeOne(Analyzed& item, Budget& budget, int num_threads) {
  if (item.query.Arity() == 0) {
    Outcome<Structure> core =
        ComputeCoreBudgeted(item.query.Canonical(), budget, num_threads);
    if (!core.IsDone()) return false;
    item.query = ConjunctiveQuery::BooleanQueryOf(std::move(core).TakeValue());
  } else {
    Outcome<ConjunctiveQuery> minimized =
        MinimizeCqBudgeted(item.query, budget);
    if (!minimized.IsDone()) return false;
    item.query = std::move(minimized).TakeValue();
  }
  Analyzed reanalyzed = Analyze(std::move(item.query));
  item = std::move(reanalyzed);
  return true;
}

}  // namespace

bool CqContainedCached(const ConjunctiveQuery& q1,
                       const ConjunctiveQuery& q2) {
  HOMPRES_CHECK_EQ(q1.Arity(), q2.Arity());
  OptimizerStats scratch;
  OptimizerOptions options;
  Budget unlimited = Budget::Unlimited();
  const Verdict verdict = ProbeContained(q1, FactsOf(q1), q2, FactsOf(q2),
                                         unlimited, options, scratch, nullptr);
  // An unavailable probe (the "opt/contain" failpoint) degrades to the
  // direct uncached test; a standalone verdict cannot be "kept".
  if (verdict == Verdict::kUnknown) return CqContained(q1, q2);
  return verdict == Verdict::kYes;
}

UnionOfCq OptimizeUcqBudgeted(const UnionOfCq& q, Budget& budget,
                              const OptimizerOptions& options,
                              OptimizerStats* stats) {
  OptimizerStats local;
  OptimizerStats& s = stats != nullptr ? *stats : local;
  s = OptimizerStats{};
  s.input_disjuncts = static_cast<int>(q.Disjuncts().size());

  const auto degrade = [&](const char* detail) {
    s.degradations.push_back(
        {DegradationKind::kMinimizeToUnminimized, "opt/budget", detail});
    s.degraded_to_input = true;
    s.output_disjuncts = s.input_disjuncts;
    return q;
  };

  if (q.Disjuncts().empty()) return q;

  // Parallelism only under an unlimited budget: Budget is not
  // thread-safe, and a limited budget must stop the pass at a
  // deterministic point, which a racing step pool cannot guarantee.
  const bool parallel = options.num_threads > 0 && !q.Disjuncts().empty() &&
                        budget.IsUnlimited();

  // Stage 1: canonicalize and fingerprint every disjunct, then collapse
  // renamed/exact duplicates before any homomorphism search runs.
  // Serial even under options.num_threads: canonicalization is
  // polynomial bookkeeping, trivial next to the homomorphism searches
  // the later stages parallelize.
  std::vector<Analyzed> items;
  items.reserve(q.Disjuncts().size());
  for (const ConjunctiveQuery& d : q.Disjuncts()) {
    if (!budget.Checkpoint()) {
      return degrade("canonicalization budget exhausted");
    }
    items.push_back(Analyze(d));
  }
  SortAndDedup(items, s);

  // Stage 2: minimize the surviving representatives, then re-canonicalize
  // and re-dedup (distinct inputs often share a core).
  if (options.minimize_disjuncts) {
    if (parallel && items.size() >= 2) {
      std::atomic<bool> stopped{false};
      ThreadPool pool(std::min(options.num_threads,
                               static_cast<int>(items.size())));
      ParallelFor(pool, static_cast<int>(items.size()), [&](int i) {
        Budget worker = Budget::Unlimited();
        if (!MinimizeOne(items[static_cast<size_t>(i)], worker,
                         /*num_threads=*/0)) {
          stopped.store(true, std::memory_order_relaxed);
        }
      });
      if (stopped.load(std::memory_order_relaxed)) {
        return degrade("minimization budget exhausted");
      }
    } else {
      for (Analyzed& item : items) {
        if (!MinimizeOne(item, budget, options.num_threads)) {
          return degrade("minimization budget exhausted");
        }
      }
    }
    SortAndDedup(items, s);
  }

  // Stage 3: subsumption. items is in canonical-fingerprint order; drop
  // every disjunct contained in a kept one, breaking mutual-containment
  // ties toward the smaller fingerprint so the survivor set is invariant
  // under permutations of the input. An unavailable verdict
  // conservatively keeps the candidate (always sound: extra disjuncts
  // are redundancy, not error).
  const size_t n = items.size();
  std::vector<Verdict> matrix;
  if (parallel && n >= 2) {
    // Precompute the full ordered-pair verdict matrix concurrently; the
    // drop loop below then runs on memoized verdicts. More probes than
    // the lazy serial scan, but each is independent and the cache makes
    // repeats cheap.
    matrix.assign(n * n, Verdict::kUnknown);
    std::mutex stats_mu;
    std::vector<std::pair<size_t, size_t>> pairs;
    pairs.reserve(n * (n - 1));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i != j) pairs.emplace_back(i, j);
      }
    }
    ThreadPool pool(std::min(options.num_threads, static_cast<int>(n)));
    ParallelFor(pool, static_cast<int>(pairs.size()), [&](int p) {
      const auto [i, j] = pairs[static_cast<size_t>(p)];
      Budget worker = Budget::Unlimited();
      matrix[i * n + j] =
          ProbeContained(items[i].query, items[i].facts, items[j].query,
                         items[j].facts, worker, options, s, &stats_mu);
    });
  }
  const auto verdict_of = [&](size_t i, size_t j) -> Verdict {
    if (!matrix.empty()) return matrix[i * n + j];
    if (!budget.Checkpoint()) return Verdict::kUnknown;
    return ProbeContained(items[i].query, items[i].facts, items[j].query,
                          items[j].facts, budget, options, s, nullptr);
  };

  std::vector<bool> keep(n, true);
  bool any_unknown = false;
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    for (size_t j = 0; j < n; ++j) {
      if (i == j || !keep[j]) continue;
      const Verdict forward = verdict_of(i, j);
      if (forward == Verdict::kUnknown) any_unknown = true;
      if (forward != Verdict::kYes) continue;
      // i ⊆ j. Keep i only when they are equivalent and i's canonical
      // fingerprint is smaller (items is fingerprint-sorted, so index
      // order is fingerprint order).
      if (i < j) {
        const Verdict backward = verdict_of(j, i);
        if (backward == Verdict::kUnknown) {
          any_unknown = true;
          continue;  // equivalence undecidable: keep i
        }
        if (backward == Verdict::kYes) continue;  // equivalent, i first
      }
      keep[i] = false;
      break;
    }
  }
  // A stopped budget surfaced as kUnknown verdicts; record the rung once
  // (per-probe "opt/contain" events were already recorded by the probe).
  if (budget.Stopped()) {
    s.degradations.push_back({DegradationKind::kMinimizeToUnminimized,
                              "opt/budget",
                              "subsumption budget exhausted; kept the "
                              "remaining candidates"});
  }

  std::vector<ConjunctiveQuery> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) kept.push_back(std::move(items[i].query));
  }
  s.output_disjuncts = static_cast<int>(kept.size());
  UnionOfCq result(std::move(kept), q.Arity());
  // The unknown-verdict path only ever keeps extra (redundant)
  // disjuncts, so the equivalence contract holds even degraded; the
  // verify pass is skipped there anyway to keep the fallback cheap.
  if (options.verify && !any_unknown && !s.degraded_to_input) {
    HOMPRES_CHECK(UcqEquivalent(q, result));
  }
  return result;
}

UnionOfCq OptimizeUcq(const UnionOfCq& q, const OptimizerOptions& options,
                      OptimizerStats* stats) {
  Budget unlimited = Budget::Unlimited();
  return OptimizeUcqBudgeted(q, unlimited, options, stats);
}

uint64_t UcqFingerprint(const UnionOfCq& q) {
  std::vector<uint64_t> fps;
  fps.reserve(q.Disjuncts().size());
  for (const ConjunctiveQuery& d : q.Disjuncts()) {
    fps.push_back(CqFingerprint(d));
  }
  return CombineUcqFingerprint(std::move(fps), q.Arity());
}

}  // namespace hompres
