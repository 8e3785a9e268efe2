#include "opt/optimizer.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/failpoint.h"
#include "hom/core.h"

namespace hompres {
namespace {

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

// One subsumption probe "sub ⊆ sup" on the disjuncts' precomputed
// facts. kUnknown means no verdict could be produced — the caller must
// conservatively keep the candidate disjunct. A pair the signature
// prefilter dismisses is a certain "no" even when the "opt/contain"
// failpoint would fire, so the prefilter runs first.
Verdict ProbeContained(const Analyzed& sub, const Analyzed& sup,
                       Budget& budget, const OptimizerOptions& options,
                       OptimizerStats& stats) {
  if (!MayBeContainedIn(sub.facts.signature, sup.facts.signature)) {
    ++stats.prefilter_skips;
    return Verdict::kNo;
  }
  if (HOMPRES_FAILPOINT("opt/contain")) {
    stats.degradations.push_back(
        {DegradationKind::kMinimizeToUnminimized, "opt/contain",
         "containment probe unavailable; keeping the candidate disjunct"});
    return Verdict::kUnknown;
  }
  const Outcome<bool> contained =
      CqContainedBudgeted(sub.query, sub.facts, sup.query, sup.facts, budget,
                          options.cache, &stats);
  if (!contained.IsDone()) return Verdict::kUnknown;
  return contained.Value() ? Verdict::kYes : Verdict::kNo;
}

// Minimizes one disjunct in place (Boolean disjuncts through the core
// machinery, which knows the sharper one-step-reduction pruning). False
// = the budget ran out.
bool MinimizeOne(Analyzed& item, Budget& budget) {
  if (item.query.Arity() == 0) {
    Outcome<Structure> core =
        ComputeCoreBudgeted(item.query.Canonical(), budget);
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

  // Stage 1: canonicalize and fingerprint every disjunct, then collapse
  // renamed/exact duplicates before any homomorphism search runs.
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
  for (Analyzed& item : items) {
    if (!MinimizeOne(item, budget)) {
      return degrade("minimization budget exhausted");
    }
  }
  SortAndDedup(items, s);

  // Stage 3: subsumption. items is in canonical-fingerprint order; drop
  // every disjunct contained in a kept one, breaking mutual-containment
  // ties toward the smaller fingerprint so the survivor set is invariant
  // under permutations of the input. An unavailable verdict
  // conservatively keeps the candidate (always sound: extra disjuncts
  // are redundancy, not error).
  const size_t n = items.size();
  const auto verdict_of = [&](size_t i, size_t j) -> Verdict {
    if (!budget.Checkpoint()) return Verdict::kUnknown;
    return ProbeContained(items[i], items[j], budget, options, s);
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
    Budget unlimited = Budget::Unlimited();
    HOMPRES_CHECK(UcqEquivalentBudgeted(q, result, unlimited).Value());
  }
  return result;
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
