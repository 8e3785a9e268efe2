#include "opt/containment.h"

#include <optional>
#include <utility>

#include "base/check.h"
#include "engine/config.h"
#include "engine/engine.h"

namespace hompres {
namespace {

void Record(ContainmentStats* stats, DegradationEvent event) {
  if (stats != nullptr) stats->degradations.push_back(std::move(event));
}

// The signature always; the fingerprint only when a cache will read it
// (canonicalizing a query costs far more than the uncached prefilter).
CqFacts FactsFor(const ConjunctiveQuery& q, const ContainmentCache* cache) {
  return CqFacts{SignatureOf(q), cache != nullptr ? CqFingerprint(q) : 0};
}

}  // namespace

CqFacts FactsOf(const ConjunctiveQuery& q) {
  return CqFacts{SignatureOf(q), CqFingerprint(q)};
}

Outcome<bool> CqContainedBudgeted(const ConjunctiveQuery& q1,
                                  const CqFacts& facts1,
                                  const ConjunctiveQuery& q2,
                                  const CqFacts& facts2, Budget& budget,
                                  ContainmentCache* cache,
                                  ContainmentStats* stats) {
  HOMPRES_CHECK_EQ(q1.Arity(), q2.Arity());
  // Prefilter and cache verdicts carry an empty report (see the header).
  if (!MayBeContainedIn(facts1.signature, facts2.signature)) {
    if (stats != nullptr) ++stats->prefilter_skips;
    return Outcome<bool>::Done(false);
  }
  const ContainmentKey key{facts1.fingerprint, facts2.fingerprint};
  if (cache != nullptr) {
    bool failed = false;
    const std::optional<bool> cached = cache->Lookup(key, &failed);
    if (failed) {
      cache->EvictShardFor(key);
      Record(stats,
             {DegradationKind::kCacheLookupToMiss, "containment_cache/lookup",
              "unreadable shard evicted; recomputing the verdict"});
    } else if (cached.has_value()) {
      if (stats != nullptr) ++stats->cache_hits;
      return Outcome<bool>::Done(*cached);
    }
  }
  if (stats != nullptr) ++stats->containment_tests;
  EngineConfig config;
  for (int i = 0; i < q2.Arity(); ++i) {
    config.forced.emplace_back(q2.FreeElements()[static_cast<size_t>(i)],
                               q1.FreeElements()[static_cast<size_t>(i)]);
  }
  config.factorize = config.forced.empty();
  Outcome<bool> contained =
      Engine::Has(q2.Canonical(), q1.Canonical(), budget, config);
  if (cache != nullptr && contained.IsDone() &&
      !cache->Insert(key, contained.Value())) {
    Record(stats,
           {DegradationKind::kCacheInsertSkipped, "containment_cache/insert",
            "verdict computed but not memoized"});
  }
  return contained;
}

Outcome<bool> CqContainedBudgeted(const ConjunctiveQuery& q1,
                                  const ConjunctiveQuery& q2, Budget& budget,
                                  ContainmentCache* cache) {
  return CqContainedBudgeted(q1, FactsFor(q1, cache), q2, FactsFor(q2, cache),
                             budget, cache, nullptr);
}

bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  Budget unlimited = Budget::Unlimited();
  return CqContainedBudgeted(q1, q2, unlimited).Value();
}

Outcome<bool> CqEquivalentBudgeted(const ConjunctiveQuery& q1,
                                   const ConjunctiveQuery& q2, Budget& budget) {
  const Outcome<bool> forward = CqContainedBudgeted(q1, q2, budget);
  if (!forward.IsDone()) return forward;
  if (!forward.Value()) return Outcome<bool>::Done(false, budget.Report());
  const Outcome<bool> backward = CqContainedBudgeted(q2, q1, budget);
  if (!backward.IsDone()) return backward;
  return Outcome<bool>::Done(backward.Value(), budget.Report());
}

Outcome<bool> UcqContainedBudgeted(const UnionOfCq& q1, const UnionOfCq& q2,
                                   Budget& budget) {
  HOMPRES_CHECK_EQ(q1.Arity(), q2.Arity());
  std::vector<CqFacts> facts2;
  facts2.reserve(q2.Disjuncts().size());
  for (const ConjunctiveQuery& d2 : q2.Disjuncts()) {
    facts2.push_back(CqFacts{SignatureOf(d2)});
  }
  for (const ConjunctiveQuery& d1 : q1.Disjuncts()) {
    const CqFacts facts1{SignatureOf(d1)};
    bool covered = false;
    for (size_t j = 0; j < facts2.size() && !covered; ++j) {
      const Outcome<bool> contained = CqContainedBudgeted(
          d1, facts1, q2.Disjuncts()[j], facts2[j], budget, nullptr, nullptr);
      if (!contained.IsDone()) return contained;
      covered = contained.Value();
    }
    if (!covered) return Outcome<bool>::Done(false, budget.Report());
  }
  return Outcome<bool>::Done(true, budget.Report());
}

Outcome<bool> UcqEquivalentBudgeted(const UnionOfCq& q1, const UnionOfCq& q2,
                                    Budget& budget) {
  const Outcome<bool> forward = UcqContainedBudgeted(q1, q2, budget);
  if (!forward.IsDone() || !forward.Value()) return forward;
  return UcqContainedBudgeted(q2, q1, budget);
}

namespace {

// Tries to find a one-step reduction of q's canonical structure (remove
// one non-free element, or one tuple) that stays equivalent to q.
// Returns false with a stopped budget when the search ran out mid-scan.
bool FindOneStepReduction(const ConjunctiveQuery& q, Budget& budget,
                          ConjunctiveQuery* out) {
  const Structure& canonical = q.Canonical();
  std::vector<bool> is_free(static_cast<size_t>(canonical.UniverseSize()),
                            false);
  for (int e : q.FreeElements()) is_free[static_cast<size_t>(e)] = true;
  for (int e = 0; e < canonical.UniverseSize(); ++e) {
    if (is_free[static_cast<size_t>(e)]) continue;
    std::vector<int> old_to_new;
    Structure candidate = canonical.RemoveElement(e, &old_to_new);
    std::vector<int> free_elements;
    for (int f : q.FreeElements()) {
      free_elements.push_back(old_to_new[static_cast<size_t>(f)]);
    }
    ConjunctiveQuery reduced(std::move(candidate), std::move(free_elements));
    auto equivalent = CqEquivalentBudgeted(q, reduced, budget);
    if (!equivalent.IsDone()) return false;
    if (equivalent.Value()) {
      *out = std::move(reduced);
      return true;
    }
  }
  for (int rel = 0; rel < canonical.GetVocabulary().NumRelations(); ++rel) {
    const int count = static_cast<int>(canonical.Tuples(rel).size());
    for (int i = 0; i < count; ++i) {
      ConjunctiveQuery reduced(canonical.RemoveTuple(rel, i),
                               q.FreeElements());
      auto equivalent = CqEquivalentBudgeted(q, reduced, budget);
      if (!equivalent.IsDone()) return false;
      if (equivalent.Value()) {
        *out = std::move(reduced);
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Outcome<ConjunctiveQuery> MinimizeCqBudgeted(const ConjunctiveQuery& q,
                                             Budget& budget) {
  ConjunctiveQuery current = q;
  ConjunctiveQuery next = q;
  while (FindOneStepReduction(current, budget, &next)) {
    current = next;
  }
  if (budget.Stopped()) {
    return Outcome<ConjunctiveQuery>::StoppedShort(budget.Report());
  }
  return Outcome<ConjunctiveQuery>::Done(std::move(current), budget.Report());
}

}  // namespace hompres
