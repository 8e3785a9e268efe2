// E2 — Theorem 3.1: minimal models <=> existential-positive definability.
// Benchmarks minimal-model enumeration for UCQs, the rebuild of the
// equivalent EP sentence, and reports (as counters) the number of minimal
// models and whether the round trip is logically equivalent.

#include <benchmark/benchmark.h>

#include "json_main.h"

#include "base/budget.h"
#include "core/classes.h"
#include "core/minimal_models.h"
#include "cq/cq.h"
#include "opt/containment.h"
#include "structure/generators.h"

namespace hompres {
namespace {

UnionOfCq PathUnion(int max_length) {
  std::vector<ConjunctiveQuery> disjuncts;
  for (int l = 1; l <= max_length; ++l) {
    disjuncts.push_back(
        ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(l + 1)));
  }
  return UnionOfCq(std::move(disjuncts));
}

void BM_MinimalModelsOfPathUnion(benchmark::State& state) {
  const int max_length = static_cast<int>(state.range(0));
  const UnionOfCq q = PathUnion(max_length);
  const StructureClass all = AllStructuresClass();
  size_t models = 0;
  bool equivalent = true;
  for (auto _ : state) {
    const auto found = MinimalModelsOfUcq(q, all);
    models = found.size();
    Budget unlimited = Budget::Unlimited();
    equivalent =
        UcqEquivalentBudgeted(q, UcqFromMinimalModels(found), unlimited)
            .Value();
    benchmark::DoNotOptimize(found);
  }
  state.counters["minimal_models"] = static_cast<double>(models);
  state.counters["roundtrip_equivalent"] = equivalent ? 1.0 : 0.0;
}

BENCHMARK(BM_MinimalModelsOfPathUnion)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_MinimalModelsCycleQuery(benchmark::State& state) {
  const int cycle = static_cast<int>(state.range(0));
  UnionOfCq q(
      {ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(cycle))});
  const StructureClass all = AllStructuresClass();
  size_t models = 0;
  for (auto _ : state) {
    const auto found = MinimalModelsOfUcq(q, all);
    models = found.size();
    benchmark::DoNotOptimize(found);
  }
  // Minimal models of "contains a hom image of C_n" are the quotient
  // cycles whose length divides n (loops included).
  state.counters["minimal_models"] = static_cast<double>(models);
}

BENCHMARK(BM_MinimalModelsCycleQuery)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

void BM_MinimalModelsRestrictedClass(benchmark::State& state) {
  // Same query, smaller class: the loop-free structures of degree <= 2.
  const int length = static_cast<int>(state.range(0));
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(
      DirectedPathStructure(length + 1))});
  StructureClass degree2 = BoundedDegreeClass(2);
  size_t models = 0;
  for (auto _ : state) {
    const auto found = MinimalModelsOfUcq(q, degree2);
    models = found.size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["minimal_models"] = static_cast<double>(models);
}

BENCHMARK(BM_MinimalModelsRestrictedClass)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
