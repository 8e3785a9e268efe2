// E14 — Engine baselines: arc-consistency vs naive homomorphism search,
// exact vs heuristic treewidth, and core computation cost. These ablate
// the design choices DESIGN.md calls out (the solver architecture is the
// substrate every theorem-level experiment stands on).

#include <benchmark/benchmark.h>

#include <optional>

#include "json_main.h"

#include "base/rng.h"
#include "graph/builders.h"
#include "cq/decomposed_eval.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "hom/core.h"
#include "structure/gaifman.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"
#include "tw/tree_decomposition.h"

namespace hompres {
namespace {

// Hard coloring (homomorphism) instances: iterated Mycielski graphs are
// triangle-free with chromatic number rising by one per level, so
// "level-L Mycielskian -> K_{L+1}" is unsatisfiable and forces real
// search. Level 1 = C5 (Mycielskian of K2), level 2 = the Grötzsch graph
// (11 vertices), level 3 = 23 vertices.
Structure MycielskiInstance(int level) {
  Graph g = CompleteGraph(2);
  for (int i = 0; i < level; ++i) g = MycielskiGraph(g);
  return UndirectedGraphStructure(g);
}

// Labels the row with the engine's plan summary for the query the
// benchmark body runs; --json emits the label as the "plan" field, and
// bench/check_regression.py flags rows whose summary changed.
void LabelPlan(benchmark::State& state, const Structure& a,
               const Structure& b, HomQueryMode mode,
               const EngineConfig& config = {}) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = mode;
  const PlanResult planned = PlanHomQuery(problem, config);
  state.SetLabel(planned.plan->Summary());
}

void BM_HomomorphismWithAC(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  Structure a = MycielskiInstance(level);
  // chi = level + 2, so level+1 colors are not enough: unsatisfiable.
  Structure target = UndirectedGraphStructure(CompleteGraph(level + 1));
  bool sat = true;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    auto h = Engine::Find(a, target, unlimited).Value();
    sat = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["satisfiable"] = sat ? 1.0 : 0.0;
  LabelPlan(state, a, target, HomQueryMode::kFind);
}

BENCHMARK(BM_HomomorphismWithAC)->Arg(1)->Arg(2)->Arg(3);

void BM_HomomorphismNaive(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  Structure a = MycielskiInstance(level);
  Structure target = UndirectedGraphStructure(CompleteGraph(level + 1));
  EngineConfig naive;
  naive.use_arc_consistency = false;
  naive.use_index = false;  // only the AC kernel narrows through the index
  bool sat = true;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    auto h = Engine::Find(a, target, unlimited, naive).Value();
    sat = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["satisfiable"] = sat ? 1.0 : 0.0;
  LabelPlan(state, a, target, HomQueryMode::kFind, naive);
}

BENCHMARK(BM_HomomorphismNaive)->Arg(1)->Arg(2)->Iterations(3);

// Serial vs parallel engine on the same adversarial family. Args are
// {level, threads}; threads = 0 is the serial engine, so comparing rows
// with equal level gives the parallel speedup (expect ~linear scaling up
// to the core count on the unsatisfiable instances: the subtree tasks
// partition the search space with little overlap).
void BM_HomomorphismParallel(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  Structure a = MycielskiInstance(level);
  Structure target = UndirectedGraphStructure(CompleteGraph(level + 1));
  EngineConfig options;
  options.num_threads = static_cast<int>(state.range(1));
  bool sat = true;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    auto h = Engine::Find(a, target, unlimited, options).Value();
    sat = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["satisfiable"] = sat ? 1.0 : 0.0;
  state.counters["threads"] = static_cast<double>(options.num_threads);
  LabelPlan(state, a, target, HomQueryMode::kFind, options);
}

BENCHMARK(BM_HomomorphismParallel)
    ->Args({2, 0})
    ->Args({2, 2})
    ->Args({2, 4})
    ->Args({3, 0})
    ->Args({3, 2})
    ->Args({3, 4});

// Core computation with parallel retraction searches; rows with equal n
// compare the serial (threads = 0) and fanned-out candidate checks.
void BM_CoreComputationParallel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Structure b = UndirectedGraphStructure(BicycleGraph(n));
  for (auto _ : state) {
    Structure core = ComputeCore(b, threads);
    benchmark::DoNotOptimize(core);
  }
  state.counters["threads"] = static_cast<double>(threads);
}

BENCHMARK(BM_CoreComputationParallel)
    ->Args({9, 0})
    ->Args({9, 2})
    ->Args({9, 4});

void BM_ExactTreewidth(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  Graph g = RandomGraph(n, 0.3, rng);
  int tw = 0;
  for (auto _ : state) {
    tw = ExactTreewidth(g);
    benchmark::DoNotOptimize(tw);
  }
  state.counters["treewidth"] = static_cast<double>(tw);
}

BENCHMARK(BM_ExactTreewidth)->Arg(8)->Arg(12)->Arg(16);

void BM_HeuristicTreewidth(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  Graph g = RandomGraph(n, 0.3, rng);
  int width = 0;
  for (auto _ : state) {
    width = TreewidthUpperBound(g);
    benchmark::DoNotOptimize(width);
  }
  state.counters["heuristic_width"] = static_cast<double>(width);
  state.counters["exact_width"] =
      n <= 16 ? static_cast<double>(ExactTreewidth(g)) : -1.0;
}

BENCHMARK(BM_HeuristicTreewidth)->Arg(8)->Arg(16)->Arg(32);

void BM_CoreComputation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Structure b = UndirectedGraphStructure(BicycleGraph(n));
  for (auto _ : state) {
    Structure core = ComputeCore(b);
    benchmark::DoNotOptimize(core);
  }
}

BENCHMARK(BM_CoreComputation)->Arg(5)->Arg(7)->Arg(9);

// Bounded-treewidth DP evaluation (Dechter-Pearl) vs the generic
// backtracking solver on long path queries: the DP's |B|^{w+1} bound is
// the tractability result the paper's introduction cites.
void BM_PathQueryViaTreewidthDp(benchmark::State& state) {
  const int query_length = static_cast<int>(state.range(0));
  const int target_size = static_cast<int>(state.range(1));
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(
      DirectedPathStructure(query_length));
  Rng rng(41);
  Structure b =
      RandomStructure(GraphVocabulary(), target_size, 3 * target_size, rng);
  const TreeDecomposition td =
      ExactTreeDecomposition(GaifmanGraph(q.Canonical()));
  bool result = false;
  for (auto _ : state) {
    result = SatisfiedByTreewidthDp(q, b, td);
    benchmark::DoNotOptimize(result);
  }
  state.counters["satisfied"] = result ? 1.0 : 0.0;
}

BENCHMARK(BM_PathQueryViaTreewidthDp)
    ->Args({8, 10})
    ->Args({8, 20})
    ->Args({16, 20});

void BM_PathQueryViaSolver(benchmark::State& state) {
  const int query_length = static_cast<int>(state.range(0));
  const int target_size = static_cast<int>(state.range(1));
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(
      DirectedPathStructure(query_length));
  Rng rng(41);
  Structure b =
      RandomStructure(GraphVocabulary(), target_size, 3 * target_size, rng);
  bool result = false;
  for (auto _ : state) {
    result = q.SatisfiedBy(b);
    benchmark::DoNotOptimize(result);
  }
  state.counters["satisfied"] = result ? 1.0 : 0.0;
}

BENCHMARK(BM_PathQueryViaSolver)
    ->Args({8, 10})
    ->Args({8, 20})
    ->Args({16, 20});

// Index-aware vs pure-scan AC-3 propagation: counting embeddings of a
// short directed path in a large sparse random digraph. Propagation
// dominates here, and each revision touches only the inverted list of
// the one bound endpoint instead of scanning every edge, so rows with
// equal target size give the index speedup (counts are identical by
// construction).
void RunPathCountEngines(benchmark::State& state, bool use_index) {
  const int target_size = static_cast<int>(state.range(0));
  Structure path = DirectedPathStructure(5);
  Rng rng(47);
  Structure b =
      RandomStructure(GraphVocabulary(), target_size, 4 * target_size, rng);
  EngineConfig options;
  options.use_index = use_index;
  uint64_t count = 0;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    count = Engine::Count(path, b, unlimited, /*limit=*/0, options).Value();
    benchmark::DoNotOptimize(count);
  }
  state.counters["hom_count"] = static_cast<double>(count);
  LabelPlan(state, path, b, HomQueryMode::kCount, options);
}

void BM_PathCountIndexed(benchmark::State& state) {
  RunPathCountEngines(state, /*use_index=*/true);
}

// The 1024-element target puts 16 words in every domain row, so the AC-3
// revisions run on the dispatched SIMD kernels; the smaller rows stay on
// the inline scalar path and preserve the historical baseline. The scan
// ablation skips 1024: without the index (and hence without the bitwise
// adjacency rows) each revision rescans all ~3n tuples and a single
// iteration takes tens of seconds.
BENCHMARK(BM_PathCountIndexed)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

void BM_PathCountScan(benchmark::State& state) {
  RunPathCountEngines(state, /*use_index=*/false);
}

BENCHMARK(BM_PathCountScan)->Arg(64)->Arg(128)->Arg(256);

// A random digraph on n elements in which every element has
// `out_degree` distinct successors other than itself.
Structure RegularDigraph(int n, int out_degree, Rng& rng) {
  Structure b(GraphVocabulary(), n);
  for (int u = 0; u < n; ++u) {
    int added = 0;
    while (added < out_degree) {
      const int v = rng.UniformInt(0, n - 1);
      if (v != u && b.AddTuple(0, {u, v})) ++added;
    }
  }
  return b;
}

// The three 256-element targets of hompresd's hom_miss workload: 0 = the
// 16x16 grid, 1 = a random 2-tree, 2 = a random out-degree-3 digraph.
Structure MissTarget(int which) {
  Rng rng(2004);
  switch (which) {
    case 0:
      return UndirectedGraphStructure(GridGraph(16, 16));
    case 1:
      return UndirectedGraphStructure(RandomKTree(256, 2, rng));
    default:
      return RegularDigraph(256, 3, rng);
  }
}

// Refutations of the shape hompresd's hom_miss workload spends its time
// on: a small source, a 256-element target, and no homomorphism. The
// search fails after one step, so the row is dominated by the AC
// revisions that follow the first assignment, whose partner domain still
// holds all 256 values. Arg 0: the 5-cycle into the 16x16 grid (an odd
// cycle into a bipartite graph). Arg 1: K4 into a random 2-tree on 256
// elements (3-colourable, so no K4 image: a deeper refutation). Args 2
// and 3: the same queries with the target's retract (K2 and K3) in the
// problem, as hompresd passes it for a named target.
void BM_HasRefutation(benchmark::State& state) {
  const bool grid = state.range(0) % 2 == 0;
  const bool with_retract = state.range(0) >= 2;
  const Structure a =
      UndirectedGraphStructure(grid ? CycleGraph(5) : CompleteGraph(4));
  const Structure b = MissTarget(grid ? 0 : 1);
  std::optional<TargetRetract> retract;
  if (with_retract) {
    Budget probe = Budget::MaxSteps(kTargetRetractMaxSteps);
    retract = FindTargetRetractBudgeted(b, probe).Value();
  }
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kHas;
  problem.target_retract = retract.has_value() ? &*retract : nullptr;
  const HomPlan plan = *PlanHomQuery(problem, EngineConfig{}).plan;
  bool has = true;
  uint64_t steps = 0;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    has = Engine::Execute(plan, unlimited).Value().has;
    steps = unlimited.StepsUsed();
    benchmark::DoNotOptimize(has);
  }
  state.counters["has"] = has ? 1.0 : 0.0;
  state.counters["steps"] = static_cast<double>(steps);
  state.SetLabel(plan.Summary());
}

BENCHMARK(BM_HasRefutation)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The once-per-target cost hompresd pays at define: the bounded retract
// probe on each hom_miss target. Arg 0: the grid (retract K2), 1: the
// 2-tree (K3), 2: the out-degree-3 digraph (no retract: the cost of
// trying and failing).
void BM_FindTargetRetract(benchmark::State& state) {
  const Structure b = MissTarget(static_cast<int>(state.range(0)));
  size_t retract_size = 0;
  uint64_t steps = 0;
  for (auto _ : state) {
    Budget probe = Budget::MaxSteps(kTargetRetractMaxSteps);
    auto found = FindTargetRetractBudgeted(b, probe);
    retract_size = found.IsDone() && found.Value().has_value()
                       ? found.Value()->elements.size()
                       : 0;
    steps = probe.StepsUsed();
    benchmark::DoNotOptimize(retract_size);
  }
  state.counters["retract_size"] = static_cast<double>(retract_size);
  state.counters["steps"] = static_cast<double>(steps);
}

BENCHMARK(BM_FindTargetRetract)->Arg(0)->Arg(1)->Arg(2);

void BM_HomomorphismCounting(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Structure cycle = UndirectedGraphStructure(CycleGraph(5));
  Structure target = UndirectedGraphStructure(CompleteGraph(n));
  uint64_t count = 0;
  for (auto _ : state) {
    Budget unlimited = Budget::Unlimited();
    count = Engine::Count(cycle, target, unlimited, /*limit=*/0).Value();
    benchmark::DoNotOptimize(count);
  }
  state.counters["hom_count"] = static_cast<double>(count);
  LabelPlan(state, cycle, target, HomQueryMode::kCount);
}

BENCHMARK(BM_HomomorphismCounting)->Arg(3)->Arg(4)->Arg(5);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
