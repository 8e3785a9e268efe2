// E13 — Proposition 7.9 / Corollary 7.10: the query q(C3, 2) (Duplicator
// wins the existential 2-pebble game against C3) holds exactly on
// structures containing a directed cycle — a non-first-order query — and
// with 3 pebbles the game collapses to homomorphism on treewidth-2 cores
// (Dalmau-Kolaitis-Vardi).

#include <benchmark/benchmark.h>

#include "json_main.h"

#include "base/rng.h"
#include "engine/engine.h"
#include "pebble/pebble_game.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

// Does the directed graph structure contain a directed cycle? (DFS.)
bool HasDirectedCycle(const Structure& b) {
  const int n = b.UniverseSize();
  std::vector<int> color(static_cast<size_t>(n), 0);  // 0 new 1 open 2 done
  std::function<bool(int)> dfs = [&](int u) {
    color[static_cast<size_t>(u)] = 1;
    for (const Tuple& t : b.Tuples(0)) {
      if (t[0] != u) continue;
      if (color[static_cast<size_t>(t[1])] == 1) return true;
      if (color[static_cast<size_t>(t[1])] == 0 && dfs(t[1])) return true;
    }
    color[static_cast<size_t>(u)] = 2;
    return false;
  };
  for (int u = 0; u < n; ++u) {
    if (color[static_cast<size_t>(u)] == 0 && dfs(u)) return true;
  }
  return false;
}

void BM_Proposition79Acyclicity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Structure c3 = DirectedCycleStructure(3);
  Rng rng(9);
  long long checked = 0;
  long long agreements = 0;
  for (auto _ : state) {
    Structure b = RandomStructure(GraphVocabulary(), n, 2 * n, rng);
    const bool game = PebbleGameQuery(c3, 2, b);
    const bool cyclic = HasDirectedCycle(b);
    ++checked;
    if (game == cyclic) ++agreements;
    benchmark::DoNotOptimize(game);
  }
  state.counters["agreement_with_cyclicity"] =
      static_cast<double>(agreements) / static_cast<double>(checked);
}

BENCHMARK(BM_Proposition79Acyclicity)->Arg(3)->Arg(5)->Arg(7);

void BM_PebbleVsHomomorphismOnLowTreewidthCores(benchmark::State& state) {
  // Dalmau et al.: A with core of treewidth < k => game(A,B,k) == hom.
  // Directed paths have treewidth 1.
  const int n = static_cast<int>(state.range(0));
  Structure a = DirectedPathStructure(4);
  Rng rng(21);
  long long checked = 0;
  long long agreements = 0;
  for (auto _ : state) {
    Structure b = RandomStructure(GraphVocabulary(), n, 2 * n, rng);
    const bool game = DuplicatorWinsExistentialKPebbleGame(a, b, 2);
    Budget unlimited = Budget::Unlimited();
    const bool hom = Engine::Has(a, b, unlimited).Value();
    ++checked;
    if (game == hom) ++agreements;
    benchmark::DoNotOptimize(game);
  }
  state.counters["agreement_with_hom"] =
      static_cast<double>(agreements) / static_cast<double>(checked);
}

BENCHMARK(BM_PebbleVsHomomorphismOnLowTreewidthCores)->Arg(4)->Arg(6);

void BM_PebbleGameCost(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Structure a = DirectedCycleStructure(3);
  Rng rng(5);
  Structure b = RandomStructure(GraphVocabulary(), n, 3 * n, rng);
  for (auto _ : state) {
    bool wins = DuplicatorWinsExistentialKPebbleGame(a, b, k);
    benchmark::DoNotOptimize(wins);
  }
}

// The n=6/10 rows keep the historical small-instance baseline; the
// n=32/16 rows extend the cost curve to larger position-map families.
// Pebble value-set rows are target-universe-wide (n bits), so all of
// these stay on the inline scalar bitset path — the fixpoint cost here
// scales with the family size, not the row width.
BENCHMARK(BM_PebbleGameCost)
    ->Args({2, 6})
    ->Args({2, 10})
    ->Args({2, 32})
    ->Args({3, 6})
    ->Args({3, 10})
    ->Args({3, 16});

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
