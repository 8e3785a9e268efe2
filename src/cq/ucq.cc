#include "cq/ucq.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <sstream>

#include "base/budget.h"
#include "base/check.h"
#include "base/thread_pool.h"
#include "engine/engine.h"
#include "structure/relation_index.h"

namespace hompres {

UnionOfCq::UnionOfCq(std::vector<ConjunctiveQuery> disjuncts, int arity)
    : disjuncts_(std::move(disjuncts)), arity_(arity) {
  if (!disjuncts_.empty()) {
    arity_ = disjuncts_.front().Arity();
    for (const auto& d : disjuncts_) {
      HOMPRES_CHECK_EQ(d.Arity(), arity_);
    }
  }
  HOMPRES_CHECK_GE(arity_, 0);
}

bool UnionOfCq::SatisfiedBy(const Structure& b) const {
  for (const auto& d : disjuncts_) {
    if (d.SatisfiedBy(b)) return true;
  }
  return false;
}

bool UnionOfCq::SatisfiedBy(const Structure& b, int num_threads) const {
  if (num_threads <= 0 || disjuncts_.size() < 2) return SatisfiedBy(b);
  // Every disjunct's search probes the same target: build its index once
  // up front instead of the first tasks racing for the lazy build.
  (void)b.Index();
  // One task per disjunct. A satisfied disjunct raises `found`, which
  // doubles as the cancellation flag of every still-running search; if
  // `found` stays false, every search necessarily ran to completion, so
  // the negative answer is certain.
  std::atomic<bool> found{false};
  ThreadPool pool(std::min(num_threads, static_cast<int>(disjuncts_.size())));
  for (const ConjunctiveQuery& d : disjuncts_) {
    pool.Submit([&found, &d, &b] {
      if (found.load(std::memory_order_relaxed)) return;
      // Same nullary guard the serial path applies inside
      // CQ::SatisfiedBy; this path calls the engine directly for the
      // cancellation budget.
      if (!NullaryAtomsHold(d.Canonical(), b)) return;
      Budget budget = Budget().WithCancelFlag(&found);
      EngineConfig config;
      config.use_cache = true;
      auto has = Engine::Has(d.Canonical(), b, budget, config);
      if (has.IsDone() && has.Value()) {
        found.store(true, std::memory_order_relaxed);
      }
    });
  }
  pool.WaitIdle();
  return found.load(std::memory_order_relaxed);
}

std::vector<Tuple> UnionOfCq::Evaluate(const Structure& b) const {
  std::vector<Tuple> answers;
  for (const auto& d : disjuncts_) {
    std::vector<Tuple> part = d.Evaluate(b);
    answers.insert(answers.end(), part.begin(), part.end());
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

std::vector<Tuple> UnionOfCq::Evaluate(const Structure& b,
                                       int num_threads) const {
  if (num_threads <= 0 || disjuncts_.size() < 2) return Evaluate(b);
  (void)b.Index();  // shared by every disjunct's enumeration
  std::vector<std::vector<Tuple>> parts(disjuncts_.size());
  ThreadPool pool(std::min(num_threads, static_cast<int>(disjuncts_.size())));
  ParallelFor(pool, static_cast<int>(disjuncts_.size()), [&](int i) {
    parts[static_cast<size_t>(i)] =
        disjuncts_[static_cast<size_t>(i)].Evaluate(b);
  });
  std::vector<Tuple> answers;
  for (std::vector<Tuple>& part : parts) {
    answers.insert(answers.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

std::string UnionOfCq::ToString() const {
  if (disjuncts_.empty()) return "false";
  std::ostringstream out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out << " | ";
    out << disjuncts_[i].ToString();
  }
  return out.str();
}

}  // namespace hompres
