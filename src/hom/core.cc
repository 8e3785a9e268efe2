#include "hom/core.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/parallel_driver.h"
#include "base/thread_pool.h"
#include "engine/engine.h"
#include "hom/homomorphism.h"

namespace hompres {

namespace {

enum class RetractResult { kFound, kNone, kStopped };

// If some one-step removal of `a` (one element with its incident tuples,
// or one tuple) admits a homomorphism from `a`, writes it to `out` and
// returns kFound. kNone is a certain answer; kStopped means the budget
// ran out mid-search and nothing is known — `*stop` then says why (the
// parent budget itself may carry no reason after a parallel region).
// Retract probes opt into the global result cache: the core loop's final
// IsCore pass repeats every probe of its last reduction round verbatim,
// and unchanged candidates recur across rounds.
EngineConfig RetractProbeConfig() {
  EngineConfig config;
  config.use_cache = true;
  return config;
}

RetractResult FindOneStepRetractSerial(const Structure& a, Budget& budget,
                                       Structure* out, StopReason* stop) {
  for (int e = 0; e < a.UniverseSize(); ++e) {
    Structure candidate = a.RemoveElement(e);
    auto has = Engine::Has(a, candidate, budget, RetractProbeConfig());
    if (!has.IsDone()) {
      *stop = budget.Reason();
      return RetractResult::kStopped;
    }
    if (has.Value()) {
      *out = std::move(candidate);
      return RetractResult::kFound;
    }
  }
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    const int count = static_cast<int>(a.Tuples(rel).size());
    for (int i = 0; i < count; ++i) {
      Structure candidate = a.RemoveTuple(rel, i);
      auto has = Engine::Has(a, candidate, budget, RetractProbeConfig());
      if (!has.IsDone()) {
        *stop = budget.Reason();
        return RetractResult::kStopped;
      }
      if (has.Value()) {
        *out = std::move(candidate);
        return RetractResult::kFound;
      }
    }
  }
  return RetractResult::kNone;
}

// Parallel variant: one task per candidate removal, indexed in the serial
// scan order (element removals first, then tuples relation by relation).
// The accepted retraction is the lowest-index candidate whose check
// succeeded with every lower-index check completed "no" — exactly the
// serial choice — so the greedy reduction is deterministic for any
// thread count. A task that finds a retraction cancels the candidates to
// its right (their answers can no longer be chosen).
RetractResult FindOneStepRetractParallel(const Structure& a, Budget& budget,
                                         int num_threads, Structure* out,
                                         StopReason* stop) {
  const int n = a.UniverseSize();
  std::vector<std::pair<int, int>> tuple_jobs;
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    const int count = static_cast<int>(a.Tuples(rel).size());
    for (int i = 0; i < count; ++i) tuple_jobs.emplace_back(rel, i);
  }
  const int num_tasks = n + static_cast<int>(tuple_jobs.size());
  if (num_tasks == 0) return RetractResult::kNone;

  struct TaskState {
    bool completed = false;
    std::optional<Structure> retract;
    StopReason stop = StopReason::kNone;
  };
  std::vector<TaskState> states(static_cast<size_t>(num_tasks));
  std::mutex state_mu;
  int best = num_tasks;  // smallest candidate index with a retraction

  ParallelRegion region(budget, num_tasks);
  ThreadPool pool(std::min(num_threads, num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit([&, i] {
      Budget worker = region.WorkerBudget(i);
      Structure candidate =
          i < n ? a.RemoveElement(i)
                : a.RemoveTuple(tuple_jobs[static_cast<size_t>(i - n)].first,
                                tuple_jobs[static_cast<size_t>(i - n)].second);
      auto has = Engine::Has(a, candidate, worker, RetractProbeConfig());
      {
        std::lock_guard<std::mutex> lock(state_mu);
        TaskState& state = states[static_cast<size_t>(i)];
        if (has.IsDone()) {
          state.completed = true;
          if (has.Value()) {
            state.retract = std::move(candidate);
            if (i < best) {
              best = i;
              region.CancelFrom(best + 1);
            }
          }
        } else {
          state.stop = has.Report().reason;
        }
      }
      region.TaskDone();
    });
  }
  const bool external_cancel = region.Join(pool);

  for (int i = 0; i < num_tasks; ++i) {
    TaskState& state = states[static_cast<size_t>(i)];
    if (state.retract.has_value()) {
      // Every earlier candidate completed without a retraction, so this
      // is the candidate the serial scan would descend into.
      *out = std::move(*state.retract);
      return RetractResult::kFound;
    }
    if (!state.completed) {
      WorkerStopScan scan;
      for (int j = i; j < num_tasks; ++j) {
        const TaskState& later = states[static_cast<size_t>(j)];
        scan.Observe(later.completed, later.stop);
      }
      *stop = scan.StoppedReport(budget, external_cancel).reason;
      return RetractResult::kStopped;
    }
  }
  return RetractResult::kNone;
}

RetractResult FindOneStepRetract(const Structure& a, Budget& budget,
                                 int num_threads, Structure* out,
                                 StopReason* stop) {
  if (num_threads > 0) {
    return FindOneStepRetractParallel(a, budget, num_threads, out, stop);
  }
  return FindOneStepRetractSerial(a, budget, out, stop);
}

// The first element v with every relation of arity >= 1 holding at
// (v, ..., v); every structure maps to {v} by the constant map.
std::optional<int> LoopElement(const Structure& b) {
  const Vocabulary& vocabulary = b.GetVocabulary();
  for (int v = 0; v < b.UniverseSize(); ++v) {
    bool loop = true;
    for (int rel = 0; rel < vocabulary.NumRelations() && loop; ++rel) {
      const int arity = vocabulary.Arity(rel);
      if (arity > 0) {
        loop = b.HasTuple(rel, Tuple(static_cast<size_t>(arity), v));
      }
    }
    if (loop) return v;
  }
  return std::nullopt;
}

// A clique of the symmetric part of binary relation `rel`, grown
// greedily: start at the highest-degree element, then add neighbours in
// decreasing degree order while they stay adjacent to every member.
// Sorted; empty when the symmetric part has no pair.
std::vector<int> GreedySymmetricClique(const Structure& b, int rel) {
  const size_t n = static_cast<size_t>(b.UniverseSize());
  std::vector<std::vector<int>> adjacent(n);
  for (const Tuple& t : b.Tuples(rel)) {
    if (t[0] != t[1] && b.HasTuple(rel, {t[1], t[0]})) {
      adjacent[static_cast<size_t>(t[0])].push_back(t[1]);
    }
  }
  const auto degree = [&](int v) {
    return adjacent[static_cast<size_t>(v)].size();
  };
  const auto higher_degree_first = [&](int u, int v) {
    return degree(u) != degree(v) ? degree(u) > degree(v) : u < v;
  };
  int start = 0;
  for (int v = 1; v < static_cast<int>(n); ++v) {
    if (higher_degree_first(v, start)) start = v;
  }
  if (n == 0 || degree(start) == 0) return {};
  // Tuples are sorted, so each adjacency list is too.
  const auto adjacent_to = [&](int u, int v) {
    const std::vector<int>& row = adjacent[static_cast<size_t>(u)];
    return std::binary_search(row.begin(), row.end(), v);
  };
  std::vector<int> order = adjacent[static_cast<size_t>(start)];
  std::sort(order.begin(), order.end(), higher_degree_first);
  std::vector<int> clique = {start};
  for (int v : order) {
    bool joins = true;
    for (int u : clique) joins = joins && adjacent_to(u, v);
    if (joins) clique.push_back(v);
  }
  std::sort(clique.begin(), clique.end());
  return clique;
}

Outcome<Structure> StoppedCore(const Budget& budget, StopReason stop) {
  BudgetReport report = budget.Report();
  if (report.reason == StopReason::kNone) report.reason = stop;
  return Outcome<Structure>::StoppedShort(report);
}

}  // namespace

Outcome<Structure> ComputeCoreBudgeted(const Structure& a, Budget& budget,
                                       int num_threads) {
  Structure current = a;
  Structure next(current.GetVocabulary(), 0);
  StopReason stop = StopReason::kNone;
  for (;;) {
    const RetractResult step =
        FindOneStepRetract(current, budget, num_threads, &next, &stop);
    if (step == RetractResult::kStopped) return StoppedCore(budget, stop);
    if (step == RetractResult::kNone) break;
    // `next` is hom-equivalent to `current`: current -> next was just
    // witnessed, and next embeds into current... note the embedding is not
    // the identity after element renumbering, but next was built from
    // current by a removal, so the inclusion (modulo renumbering) is a
    // homomorphism by construction.
    current = std::move(next);
    next = Structure(current.GetVocabulary(), 0);
  }
  // The final FindOneStepRetract returned kNone with budget to spare,
  // which is exactly the IsCore condition.
  return Outcome<Structure>::Done(std::move(current), budget.Report());
}

Structure ComputeCore(const Structure& a, int num_threads) {
  Budget unlimited = Budget::Unlimited();
  Structure core =
      std::move(ComputeCoreBudgeted(a, unlimited, num_threads)).TakeValue();
  HOMPRES_CHECK(IsCore(core));
  return core;
}

bool IsCore(const Structure& a, int num_threads) {
  Budget unlimited = Budget::Unlimited();
  return IsCoreBudgeted(a, unlimited, num_threads).Value();
}

Outcome<std::optional<TargetRetract>> FindTargetRetractBudgeted(
    const Structure& b, Budget& budget) {
  using Result = Outcome<std::optional<TargetRetract>>;
  std::vector<std::vector<int>> candidates;
  if (const std::optional<int> loop = LoopElement(b)) {
    candidates.push_back({*loop});
  }
  const Vocabulary& vocabulary = b.GetVocabulary();
  for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
    if (vocabulary.Arity(rel) != 2) continue;
    std::vector<int> clique = GreedySymmetricClique(b, rel);
    if (!clique.empty() &&
        std::find(candidates.begin(), candidates.end(), clique) ==
            candidates.end()) {
      candidates.push_back(std::move(clique));
    }
  }
  for (std::vector<int>& elements : candidates) {
    if (static_cast<int>(elements.size()) >= b.UniverseSize()) continue;
    Structure s = b.InducedSubstructure(elements);
    auto found = Engine::Find(b, s, budget);
    if (!found.IsDone()) return Result::StoppedShort(found.Report());
    const std::optional<std::vector<int>>& h = found.Value();
    if (h.has_value() && VerifyHomomorphism(b, s, *h)) {
      return Result::Done(TargetRetract{std::move(s), std::move(elements)},
                          found.Report());
    }
  }
  return Result::Finish(budget, std::nullopt);
}

Outcome<bool> IsCoreBudgeted(const Structure& a, Budget& budget,
                             int num_threads) {
  Structure scratch(a.GetVocabulary(), 0);
  StopReason stop = StopReason::kNone;
  switch (FindOneStepRetract(a, budget, num_threads, &scratch, &stop)) {
    case RetractResult::kFound:
      return Outcome<bool>::Done(false, budget.Report());
    case RetractResult::kNone:
      return Outcome<bool>::Done(true, budget.Report());
    case RetractResult::kStopped:
      break;
  }
  BudgetReport report = budget.Report();
  if (report.reason == StopReason::kNone) report.reason = stop;
  return Outcome<bool>::StoppedShort(report);
}

}  // namespace hompres
