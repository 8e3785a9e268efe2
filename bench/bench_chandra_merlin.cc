// E1 — Theorem 2.1 (Chandra-Merlin): hom(A,B) <=> B |= phi_A <=> phi_B
// implies phi_A. Benchmarks the three decision procedures on random
// structures and checks (as a counter) that they agree on every instance.

#include <benchmark/benchmark.h>

#include "json_main.h"

#include "base/rng.h"
#include "cq/cq.h"
#include "engine/engine.h"
#include "opt/containment.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

void BM_ChandraMerlinAgreement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int tuples = static_cast<int>(state.range(1));
  Rng rng(2024);
  long long checked = 0;
  long long agreements = 0;
  for (auto _ : state) {
    Structure a = RandomStructure(GraphVocabulary(), n, tuples, rng);
    Structure b = RandomStructure(GraphVocabulary(), n, tuples, rng);
    Budget unlimited = Budget::Unlimited();
    const bool hom = Engine::Has(a, b, unlimited).Value();
    // B |= phi_A.
    const bool models =
        ConjunctiveQuery::BooleanQueryOf(a).SatisfiedBy(b);
    // phi_B implies phi_A (containment of the canonical queries).
    const bool implies =
        CqContainedBudgeted(ConjunctiveQuery::BooleanQueryOf(b),
                            ConjunctiveQuery::BooleanQueryOf(a), unlimited)
            .Value();
    ++checked;
    if (hom == models && models == implies) ++agreements;
    benchmark::DoNotOptimize(hom);
  }
  state.counters["agreement"] =
      checked == 0 ? 1.0 : static_cast<double>(agreements) /
                               static_cast<double>(checked);
}

BENCHMARK(BM_ChandraMerlinAgreement)
    ->Args({4, 5})
    ->Args({6, 8})
    ->Args({8, 12})
    ->Args({10, 16});

void BM_HomomorphismCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  Structure a = RandomStructure(GraphVocabulary(), n, 2 * n, rng);
  Structure b = RandomStructure(GraphVocabulary(), n + 2, 3 * n, rng);
  long long yes = 0;
  long long total = 0;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    yes += Engine::Has(a, b, unlimited).Value() ? 1 : 0;
    ++total;
  }
  state.counters["sat_fraction"] =
      static_cast<double>(yes) / static_cast<double>(total);
}

BENCHMARK(BM_HomomorphismCheck)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
