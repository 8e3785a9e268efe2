// E7 — Theorem 5.3: large K_k-minor-free graphs contain d-scattered sets
// of size m after removing < k-1 vertices. Runs the staged construction
// (independent neighborhoods -> bipartite contact graph -> Lemma 5.2) on
// planar families and reports the witness shape; the paper bound c^d(m)
// saturates.

#include <benchmark/benchmark.h>

#include "json_main.h"

#include "base/rng.h"
#include "core/lemmas.h"
#include "graph/builders.h"

namespace hompres {
namespace {

void Report(benchmark::State& state,
            const std::optional<ScatteredWitness>& witness) {
  state.counters["witness_found"] = witness.has_value() ? 1.0 : 0.0;
  state.counters["removed"] =
      witness.has_value() ? static_cast<double>(witness->removed.size())
                          : -1.0;
  state.counters["scattered"] =
      witness.has_value()
          ? static_cast<double>(witness->scattered.size())
          : -1.0;
}

void BM_Theorem53OnGrids(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  Graph grid = GridGraph(side, side);
  std::optional<ScatteredWitness> witness;
  for (auto _ : state) {
    witness = Theorem53Witness(grid, /*k=*/5, /*d=*/1, /*m=*/3);
    benchmark::DoNotOptimize(witness);
  }
  Report(state, witness);
}

// No fixed iteration count: a 4x4 grid finishes in tens of microseconds,
// and three iterations of it swing past bench/check_regression.py's 3x
// gate on scheduler noise alone. --benchmark_min_time sizes the run.
BENCHMARK(BM_Theorem53OnGrids)->Arg(4)->Arg(5)->Arg(6);

void BM_Theorem53OnOuterplanar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  Graph g = RandomOuterplanarGraph(n, rng);
  std::optional<ScatteredWitness> witness;
  for (auto _ : state) {
    witness = Theorem53Witness(g, /*k=*/4, /*d=*/1, /*m=*/3);
    benchmark::DoNotOptimize(witness);
  }
  Report(state, witness);
}

BENCHMARK(BM_Theorem53OnOuterplanar)->Arg(16)->Arg(32)->Iterations(3);

void BM_Theorem53DeeperScattering(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Graph g = GridGraph(3, 15);
  std::optional<ScatteredWitness> witness;
  for (auto _ : state) {
    witness = Theorem53Witness(g, 5, d, 3);
    benchmark::DoNotOptimize(witness);
  }
  Report(state, witness);
}

BENCHMARK(BM_Theorem53DeeperScattering)->Arg(1)->Arg(2)->Iterations(3);

void BM_Theorem53OnTrees(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(13);
  Graph g = RandomTree(n, rng);
  std::optional<ScatteredWitness> witness;
  for (auto _ : state) {
    witness = Theorem53Witness(g, 3, 2, 3);
    benchmark::DoNotOptimize(witness);
  }
  Report(state, witness);
}

BENCHMARK(BM_Theorem53OnTrees)->Arg(30)->Arg(60)->Iterations(3);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
