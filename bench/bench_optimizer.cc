// E17 — the containment-driven UCQ optimizer (src/opt). Benchmarks the
// historical O(n^2) UCQ minimization scan (reproduced below as the
// baseline, including its always-on equivalence CHECKs) against the
// production OptimizeUcqBudgeted configuration — the one preservation.cc
// and hompresd run, sound by construction so without the post-hoc
// verify — on generated redundant unions and on real Theorem 3.1
// pipeline outputs. The `answers` counter is the number
// of satisfied structures on a fixed random panel and must be identical
// between each Legacy/Optimized pair; `agree` is an explicit equivalence
// check of the two minimized unions. `ccache_hit_rate` surfaces how much
// containment work the verdict cache absorbed.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "json_main.h"

#include "base/budget.h"
#include "base/check.h"
#include "base/rng.h"
#include "core/classes.h"
#include "core/minimal_models.h"
#include "core/preservation.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "fo/parser.h"
#include "opt/optimizer.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

// The historical containment test: the nullary-atom guard, then the
// engine with each free variable of q2 forced onto q1's — no signature
// prefilter and no verdict memo.
bool LegacyContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (!NullaryAtomsHold(q2.Canonical(), q1.Canonical())) return false;
  EngineConfig config;
  for (int i = 0; i < q2.Arity(); ++i) {
    config.forced.emplace_back(q2.FreeElements()[static_cast<size_t>(i)],
                               q1.FreeElements()[static_cast<size_t>(i)]);
  }
  config.factorize = config.forced.empty();
  Budget unlimited = Budget::Unlimited();
  return Engine::Has(q2.Canonical(), q1.Canonical(), unlimited, config)
      .Value();
}

bool LegacyContained(const UnionOfCq& q1, const UnionOfCq& q2) {
  return std::all_of(
      q1.Disjuncts().begin(), q1.Disjuncts().end(),
      [&](const ConjunctiveQuery& d1) {
        return std::any_of(q2.Disjuncts().begin(), q2.Disjuncts().end(),
                           [&](const ConjunctiveQuery& d2) {
                             return LegacyContained(d1, d2);
                           });
      });
}

// The pre-optimizer UCQ minimization: CQ minimization (with its
// historical equivalence check) on every disjunct, a full O(n^2)
// pairwise LegacyContained scan with no fingerprint dedup, prefilter or
// verdict memo, and the historical verify check.
UnionOfCq LegacyMinimizeUcq(const UnionOfCq& q) {
  Budget unlimited = Budget::Unlimited();
  std::vector<ConjunctiveQuery> minimized;
  minimized.reserve(q.Disjuncts().size());
  for (const auto& d : q.Disjuncts()) {
    minimized.push_back(MinimizeCqBudgeted(d, unlimited).TakeValue());
    HOMPRES_CHECK(LegacyContained(d, minimized.back()) &&
                  LegacyContained(minimized.back(), d));
  }
  std::vector<bool> keep(minimized.size(), true);
  for (size_t i = 0; i < minimized.size(); ++i) {
    if (!keep[i]) continue;
    for (size_t j = 0; j < minimized.size(); ++j) {
      if (i == j || !keep[j]) continue;
      if (LegacyContained(minimized[i], minimized[j])) {
        if (!(LegacyContained(minimized[j], minimized[i]) && i < j)) {
          keep[i] = false;
          break;
        }
      }
    }
  }
  std::vector<ConjunctiveQuery> kept;
  for (size_t i = 0; i < minimized.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(minimized[i]));
  }
  UnionOfCq result(std::move(kept), q.Arity());
  HOMPRES_CHECK(LegacyContained(q, result) && LegacyContained(result, q));
  return result;
}

// Renamed copy: same query under a random permutation of the elements.
// Collapsed by the optimizer's fingerprint pass with zero hom searches;
// full minimize-and-scan cost for the legacy baseline.
ConjunctiveQuery RenamedCopy(const ConjunctiveQuery& q, Rng& rng) {
  const Structure& canonical = q.Canonical();
  const int n = canonical.UniverseSize();
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[rng.Next() % static_cast<uint64_t>(i + 1)]);
  }
  Structure renamed(canonical.GetVocabulary(), n);
  for (int rel = 0; rel < canonical.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : canonical.Tuples(rel)) {
      Tuple image(t.size());
      for (size_t i = 0; i < t.size(); ++i) {
        image[i] = perm[static_cast<size_t>(t[i])];
      }
      renamed.AddTuple(rel, image);
    }
  }
  std::vector<int> free_elements;
  for (int e : q.FreeElements()) {
    free_elements.push_back(perm[static_cast<size_t>(e)]);
  }
  return ConjunctiveQuery(std::move(renamed), std::move(free_elements));
}

// Specialization: the query plus one pendant edge out of element 0. The
// canonical structure includes into it, so the specialization is
// contained in (and pruned in favor of) the original.
ConjunctiveQuery Specialized(const ConjunctiveQuery& q) {
  const Structure& canonical = q.Canonical();
  Structure wider(canonical.GetVocabulary(), canonical.UniverseSize() + 1);
  for (int rel = 0; rel < canonical.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : canonical.Tuples(rel)) wider.AddTuple(rel, t);
  }
  wider.AddTuple(0, {0, canonical.UniverseSize()});
  return ConjunctiveQuery(std::move(wider), q.FreeElements());
}

// A redundant boolean union: `base` random CQs, three renamed
// respellings of each, and a pendant-edge specialization of each — 5x
// the minimal disjunct count, the shape Theorem 3.1 enumeration and
// hand-written unions both produce. The legacy scan pays a full
// CQ minimization per respelling; the optimizer collapses them for the price
// of a fingerprint.
UnionOfCq RedundantUnion(int base, uint64_t seed) {
  Rng rng(seed);
  std::vector<ConjunctiveQuery> disjuncts;
  for (int i = 0; i < base; ++i) {
    // Loop-free acyclic bases: with loops (or short cycles) present,
    // every core degenerates to the cycle and the workload goes trivial.
    // DAG cores are directed paths of varying length, so per-disjunct
    // minimization does real work for both contenders.
    const int n = 4 + static_cast<int>(rng.Next() % 3);
    const int edges = 4 + static_cast<int>(rng.Next() % 4);
    Structure s(GraphVocabulary(), n);
    for (int e = 0; e < edges; ++e) {
      const int a = static_cast<int>(rng.Next() % static_cast<uint64_t>(n));
      const int b = static_cast<int>(rng.Next() % static_cast<uint64_t>(n));
      if (a == b) continue;
      s.AddTuple(0, {std::min(a, b), std::max(a, b)});
    }
    disjuncts.push_back(ConjunctiveQuery::BooleanQueryOf(std::move(s)));
  }
  for (int i = 0; i < base; ++i) {
    for (int copy = 0; copy < 3; ++copy) {
      disjuncts.push_back(
          RenamedCopy(disjuncts[static_cast<size_t>(i)], rng));
    }
    disjuncts.push_back(Specialized(disjuncts[static_cast<size_t>(i)]));
  }
  return UnionOfCq(std::move(disjuncts), 0);
}

// Fixed panel of evaluation targets for the bit-identical answer counter.
std::vector<Structure> AnswerPanel(uint64_t seed) {
  Rng rng(seed);
  std::vector<Structure> panel;
  for (int i = 0; i < 8; ++i) {
    const int n = 2 + static_cast<int>(rng.Next() % 4);
    const int tuples = 1 + static_cast<int>(rng.Next() % 7);
    panel.push_back(RandomStructure(GraphVocabulary(), n, tuples, rng));
  }
  return panel;
}

int CountSatisfied(const UnionOfCq& q, const std::vector<Structure>& panel) {
  int satisfied = 0;
  for (const Structure& b : panel) {
    if (q.SatisfiedBy(b)) ++satisfied;
  }
  return satisfied;
}

void ExportStats(benchmark::State& state, const UnionOfCq& input,
                 const UnionOfCq& output,
                 const std::vector<Structure>& panel) {
  state.counters["input_disjuncts"] =
      static_cast<double>(input.Disjuncts().size());
  state.counters["output_disjuncts"] =
      static_cast<double>(output.Disjuncts().size());
  state.counters["answers"] =
      static_cast<double>(CountSatisfied(output, panel));
  const CacheStats ccache = GlobalContainmentCache().Stats();
  state.counters["ccache_hit_rate"] =
      static_cast<double>(ccache.HitRatePercent());
}

void BM_MinimizeRedundantUcqLegacy(benchmark::State& state) {
  const int base = static_cast<int>(state.range(0));
  const UnionOfCq redundant = RedundantUnion(base, 424242);
  const std::vector<Structure> panel = AnswerPanel(171717);
  UnionOfCq minimized({}, 0);
  for (auto _ : state) {
    minimized = LegacyMinimizeUcq(redundant);
    benchmark::DoNotOptimize(minimized);
  }
  ExportStats(state, redundant, minimized, panel);
}
BENCHMARK(BM_MinimizeRedundantUcqLegacy)->Arg(2)->Arg(4)->Arg(8);

void BM_MinimizeRedundantUcqOptimized(benchmark::State& state) {
  const int base = static_cast<int>(state.range(0));
  const UnionOfCq redundant = RedundantUnion(base, 424242);
  const std::vector<Structure> panel = AnswerPanel(171717);
  UnionOfCq minimized({}, 0);
  OptimizerStats stats;
  for (auto _ : state) {
    stats = OptimizerStats();
    Budget unlimited = Budget::Unlimited();
    minimized = OptimizeUcqBudgeted(redundant, unlimited, {}, &stats);
    benchmark::DoNotOptimize(minimized);
  }
  state.counters["fingerprint_dedups"] =
      static_cast<double>(stats.fingerprint_dedups);
  state.counters["prefilter_skips"] =
      static_cast<double>(stats.prefilter_skips);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["containment_tests"] =
      static_cast<double>(stats.containment_tests);
  // The optimized union answers exactly as the legacy one (checked as a
  // counter, not an assertion, so a regression shows up in the JSON).
  const UnionOfCq legacy = LegacyMinimizeUcq(redundant);
  Budget unlimited = Budget::Unlimited();
  state.counters["agree"] =
      (UcqEquivalentBudgeted(minimized, legacy, unlimited).Value() &&
       CountSatisfied(minimized, panel) == CountSatisfied(legacy, panel))
          ? 1.0
          : 0.0;
  ExportStats(state, redundant, minimized, panel);
}
BENCHMARK(BM_MinimizeRedundantUcqOptimized)->Arg(2)->Arg(4)->Arg(8);

// --- Real Theorem 3.1 outputs. ---

FormulaPtr Parse(const std::string& text) {
  auto f = ParseFormula(text);
  return *f;
}

// The raw (unoptimized) Theorem 3.1 unions of six preserved sentences,
// each run on three structure classes, concatenated: minimal-model
// canonical queries are frequently hom-comparable across (and even
// within) runs — the loop model subsumes under every other disjunct,
// the single-edge model recurs in every class — so this is the
// redundancy profile the preservation pipeline and hompresd's
// cross-request unions hand the optimizer in production.
UnionOfCq Theorem31RawUnion() {
  const char* kSentences[] = {
      "exists x exists y E(x,y) | exists x E(x,x)",
      "exists x exists y (E(x,y) & E(y,x)) | exists x E(x,x)",
      "exists x exists y exists z (E(x,y) & E(y,z)) | "
      "exists x exists y (E(x,y) & E(y,x))",
      "exists w exists x exists y exists z (E(w,x) & E(x,y) & E(y,z))",
      "exists x exists y exists z (E(x,y) & E(x,z) & E(y,z)) | "
      "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x))",
      "exists x exists y exists z (E(x,y) & E(y,z)) | "
      "exists x exists y exists z (E(y,x) & E(y,z)) | "
      "exists x exists y exists z (E(x,y) & E(z,y))",
  };
  const std::vector<StructureClass> classes = {
      AllStructuresClass(), BoundedDegreeClass(2), BoundedTreewidthClass(2)};
  std::vector<ConjunctiveQuery> disjuncts;
  for (const char* sentence : kSentences) {
    // The walk-of-length-3 sentence gets the deeper model search: its
    // 4-element minimal models (directed paths and their foldings) are
    // the expensive-to-minimize disjuncts of the profile.
    const bool deep = std::string(sentence).find("E(w,x)") != std::string::npos;
    for (const StructureClass& c : classes) {
      const PreservationResult result = PreservationPipeline(
          Parse(sentence), GraphVocabulary(), c,
          /*search_universe=*/deep ? 4 : 3, /*verify_universe=*/2);
      const UnionOfCq raw = UcqFromMinimalModels(result.minimal_models);
      for (const auto& d : raw.Disjuncts()) disjuncts.push_back(d);
    }
  }
  return UnionOfCq(std::move(disjuncts), 0);
}

void BM_MinimizeTheorem31UcqLegacy(benchmark::State& state) {
  const UnionOfCq raw = Theorem31RawUnion();
  const std::vector<Structure> panel = AnswerPanel(171717);
  UnionOfCq minimized({}, 0);
  for (auto _ : state) {
    minimized = LegacyMinimizeUcq(raw);
    benchmark::DoNotOptimize(minimized);
  }
  ExportStats(state, raw, minimized, panel);
}
BENCHMARK(BM_MinimizeTheorem31UcqLegacy);

void BM_MinimizeTheorem31UcqOptimized(benchmark::State& state) {
  const UnionOfCq raw = Theorem31RawUnion();
  const std::vector<Structure> panel = AnswerPanel(171717);
  UnionOfCq minimized({}, 0);
  OptimizerStats stats;
  for (auto _ : state) {
    stats = OptimizerStats();
    Budget unlimited = Budget::Unlimited();
    minimized = OptimizeUcqBudgeted(raw, unlimited, {}, &stats);
    benchmark::DoNotOptimize(minimized);
  }
  state.counters["fingerprint_dedups"] =
      static_cast<double>(stats.fingerprint_dedups);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["containment_tests"] =
      static_cast<double>(stats.containment_tests);
  const UnionOfCq legacy = LegacyMinimizeUcq(raw);
  Budget unlimited = Budget::Unlimited();
  state.counters["agree"] =
      (UcqEquivalentBudgeted(minimized, legacy, unlimited).Value() &&
       CountSatisfied(minimized, panel) == CountSatisfied(legacy, panel))
          ? 1.0
          : 0.0;
  ExportStats(state, raw, minimized, panel);
}
BENCHMARK(BM_MinimizeTheorem31UcqOptimized);

// --- Component costs: fingerprinting and cached containment. ---

void BM_CqFingerprint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(99);
  const Structure s = RandomStructure(GraphVocabulary(), n, 2 * n, rng);
  const ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CqFingerprint(q));
  }
}
BENCHMARK(BM_CqFingerprint)->Arg(4)->Arg(8)->Arg(16);

void BM_CqContainedCachedWarm(benchmark::State& state) {
  // Steady-state probe cost once the verdict is memoized: the loop hits
  // the sharded cache on every iteration after the first.
  Rng rng(7);
  const ConjunctiveQuery q1 = ConjunctiveQuery::BooleanQueryOf(
      RandomStructure(GraphVocabulary(), 4, 6, rng));
  const ConjunctiveQuery q2 = ConjunctiveQuery::BooleanQueryOf(
      RandomStructure(GraphVocabulary(), 5, 8, rng));
  bool contained = false;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    contained =
        CqContainedBudgeted(q1, q2, unlimited, &GlobalContainmentCache())
            .Value();
    benchmark::DoNotOptimize(contained);
  }
  state.counters["contained"] = contained ? 1.0 : 0.0;
  const CacheStats ccache = GlobalContainmentCache().Stats();
  state.counters["ccache_hit_rate"] =
      static_cast<double>(ccache.HitRatePercent());
}
BENCHMARK(BM_CqContainedCachedWarm);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
