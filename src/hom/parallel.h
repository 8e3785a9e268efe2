// Parallel homomorphism search (the CSP view of Chandra-Merlin, fanned
// out over a work-stealing thread pool).
//
// The driver executes a planned subtree split (ExecStrategy::
// kParallelSplit, engine/plan.h). The planner has already chosen the
// split: the source elements that occur in the most tuples (the
// strongest constraints, engine/ordering.h). The driver forms one task
// per assignment of target values to those elements and runs the serial
// kernel (hom/kernel.h) inside each task with the split assignment
// appended to the plan's forced pairs. Tasks are independent subtrees —
// their assignment sets partition the full space — so existence, certain
// absence, and exact counts compose without coordination beyond:
//
//  - a shared atomic step counter (Budget::SpawnWorker) so the workers
//    together respect the caller's step limit;
//  - per-task cancellation flags for first-finisher cancellation: a task
//    that finds a witness cancels the subtrees that can no longer affect
//    the answer.
//
// Determinism: the has/none decision equals the serial engine's. The
// witness returned depends on thread timing unless
// config.deterministic_witness is set, in which case it is the witness
// of the lexicographically first subtree — a pure function of the inputs
// and config (including num_threads), though not necessarily the same
// map the serial engine finds. Under budget exhaustion the accounting is
// approximate: concurrent workers may overshoot the step limit by up to
// one step each.
//
// Reached only through Engine::Execute (engine/engine.h), which hands
// over a dispatch-ready plan: planned strictly, degraded, uncached.

#ifndef HOMPRES_HOM_PARALLEL_H_
#define HOMPRES_HOM_PARALLEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "engine/plan.h"

namespace hompres {

// Parallel witness search over plan.split_elements. Requires
// plan.strategy == ExecStrategy::kParallelSplit.
Outcome<std::optional<std::vector<int>>> RunParallelFind(const HomPlan& plan,
                                                         Budget& budget);

// Parallel counting: subtree counts are summed (the subtrees partition
// the assignment space, so the total is exact). With a nonzero
// plan.problem.limit the count stops early once that many homomorphisms
// have been seen across all subtrees and returns the limit, like the
// serial count. Requires plan.strategy == ExecStrategy::kParallelSplit.
Outcome<uint64_t> RunParallelCount(const HomPlan& plan, Budget& budget);

}  // namespace hompres

#endif  // HOMPRES_HOM_PARALLEL_H_
