#include "hom/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "base/check.h"
#include "base/parallel_driver.h"
#include "base/thread_pool.h"
#include "hom/homomorphism.h"
#include "hom/kernel.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// One forced-pair prefix per task: the value ranges of the plan's split
// elements crossed in lexicographic order (the order that defines the
// deterministic_witness winner).
using SplitPrefixes = std::vector<std::vector<std::pair<int, int>>>;

SplitPrefixes CrossSplitValues(const HomPlan& plan) {
  const int m = plan.problem.target->UniverseSize();
  SplitPrefixes prefixes(1);
  for (int v : plan.split_elements) {
    SplitPrefixes next;
    next.reserve(prefixes.size() * static_cast<size_t>(m));
    for (const auto& prefix : prefixes) {
      for (int val = 0; val < m; ++val) {
        auto task = prefix;
        task.emplace_back(v, val);
        next.push_back(std::move(task));
      }
    }
    prefixes = std::move(next);
  }
  return prefixes;
}

// The serial kernel's options for one subtree: the plan's, with the
// task's split assignment appended to the forced pairs.
KernelOptions TaskOptions(const HomPlan& plan,
                          const std::vector<std::pair<int, int>>& prefix) {
  KernelOptions options = ToKernelOptions(plan.config);
  options.forced.insert(options.forced.end(), prefix.begin(), prefix.end());
  return options;
}

// Checks the preconditions, charges the driver's own step, and builds
// the indexes the subtree searches will share before the workers start,
// so the lazy build happens exactly once instead of the first tasks
// racing for the build lock. False = the budget stopped first.
bool StartSplit(const HomPlan& plan, Budget& budget) {
  HOMPRES_CHECK(plan.strategy == ExecStrategy::kParallelSplit);
  HOMPRES_CHECK(plan.split_tasks >= 2);
  if (!budget.Checkpoint()) return false;
  if (plan.use_index) {
    (void)plan.problem.source->Index();
    (void)plan.problem.target->Index();
  }
  return true;
}

}  // namespace

Outcome<std::optional<std::vector<int>>> RunParallelFind(const HomPlan& plan,
                                                         Budget& budget) {
  using Result = Outcome<std::optional<std::vector<int>>>;
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  if (!StartSplit(plan, budget)) return Result::StoppedShort(budget.Report());
  const SplitPrefixes prefixes = CrossSplitValues(plan);

  const int num_tasks = static_cast<int>(prefixes.size());
  struct TaskState {
    bool completed = false;
    std::optional<std::vector<int>> witness;
    StopReason stop = StopReason::kNone;
  };
  std::vector<TaskState> states(static_cast<size_t>(num_tasks));
  std::mutex state_mu;
  int best_witness = num_tasks;  // smallest task index with a witness

  ParallelRegion region(budget, num_tasks);
  ThreadPool pool(std::min(plan.config.num_threads, num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit(region.GuardedTask([&, i] {
      Budget worker = region.WorkerBudget(i);
      std::optional<std::vector<int>> witness;
      RunSerialHomKernel(
          a, b, TaskOptions(plan, prefixes[static_cast<size_t>(i)]), worker,
          [&](const std::vector<int>& h) {
            witness = h;
            return false;  // stop at the first witness
          });
      {
        std::lock_guard<std::mutex> lock(state_mu);
        TaskState& state = states[static_cast<size_t>(i)];
        // A witness found as the budget ran out still completes the task.
        if (witness.has_value() || !worker.Stopped()) {
          state.completed = true;
          state.witness = std::move(witness);
          if (state.witness.has_value()) {
            if (!plan.config.deterministic_witness) {
              // First finisher: no other subtree can change the decision.
              region.CancelAll();
            } else if (i < best_witness) {
              // Subtrees right of the best witness can no longer win;
              // those left of it may still produce an earlier one.
              best_witness = i;
              region.CancelFrom(best_witness + 1);
            }
          }
        } else {
          state.stop = worker.Report().reason;
        }
      }
      region.TaskDone();
    }));
  }
  const bool external_cancel = region.Join(pool);

  for (TaskState& state : states) {
    if (state.witness.has_value()) {
      HOMPRES_CHECK(VerifyHomomorphism(a, b, *state.witness));
      return Result::Done(std::move(state.witness), budget.Report());
    }
  }
  WorkerStopScan scan;
  for (const TaskState& state : states) {
    scan.Observe(state.completed, state.stop);
  }
  if (!scan.AnyIncomplete()) {
    return Result::Done(std::nullopt, budget.Report());
  }
  return Result::StoppedShort(scan.StoppedReport(budget, external_cancel));
}

Outcome<uint64_t> RunParallelCount(const HomPlan& plan, Budget& budget) {
  using Result = Outcome<uint64_t>;
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  const uint64_t limit = plan.problem.limit;
  if (!StartSplit(plan, budget)) return Result::StoppedShort(budget.Report());
  const SplitPrefixes prefixes = CrossSplitValues(plan);

  const int num_tasks = static_cast<int>(prefixes.size());
  std::atomic<uint64_t> found{0};
  struct TaskState {
    bool completed = false;
    StopReason stop = StopReason::kNone;
  };
  std::vector<TaskState> states(static_cast<size_t>(num_tasks));

  ParallelRegion region(budget, num_tasks);
  ThreadPool pool(std::min(plan.config.num_threads, num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit(region.GuardedTask([&, i] {
      Budget worker = region.WorkerBudget(i);
      bool limit_reached = false;
      RunSerialHomKernel(
          a, b, TaskOptions(plan, prefixes[static_cast<size_t>(i)]), worker,
          [&](const std::vector<int>&) {
            const uint64_t now =
                found.fetch_add(1, std::memory_order_relaxed) + 1;
            if (limit != 0 && now >= limit) {
              // The answer is `limit`; stop every subtree.
              region.CancelAll();
              limit_reached = true;
              return false;
            }
            return true;
          });
      // Stopping at the global limit completes this task. The state is
      // task-exclusive: TaskDone/Join publish it to the joining thread.
      TaskState& state = states[static_cast<size_t>(i)];
      if (limit_reached || !worker.Stopped()) {
        state.completed = true;
      } else {
        state.stop = worker.Report().reason;
      }
      region.TaskDone();
    }));
  }
  const bool external_cancel = region.Join(pool);

  const uint64_t total = found.load(std::memory_order_relaxed);
  if (limit != 0 && total >= limit) {
    return Result::Done(limit, budget.Report());
  }
  WorkerStopScan scan;
  for (const TaskState& state : states) {
    scan.Observe(state.completed, state.stop);
  }
  if (!scan.AnyIncomplete()) return Result::Done(total, budget.Report());
  return Result::StoppedShort(scan.StoppedReport(budget, external_cancel));
}

}  // namespace hompres
