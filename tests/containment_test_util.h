// Unbudgeted containment questions for the tests: each runs the one
// budgeted form of opt/containment.h (or OptimizeUcqBudgeted) with
// Budget::Unlimited(), so the answer is always Done. CQ containment runs
// uncached unless a cache is passed.

#ifndef HOMPRES_TESTS_CONTAINMENT_TEST_UTIL_H_
#define HOMPRES_TESTS_CONTAINMENT_TEST_UTIL_H_

#include "base/budget.h"
#include "base/check.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "opt/containment.h"
#include "opt/optimizer.h"

namespace hompres {

inline bool IsContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                        ContainmentCache* cache = nullptr) {
  Budget unlimited = Budget::Unlimited();
  return CqContainedBudgeted(q1, q2, unlimited, cache).Value();
}

inline bool IsContained(const UnionOfCq& q1, const UnionOfCq& q2) {
  Budget unlimited = Budget::Unlimited();
  return UcqContainedBudgeted(q1, q2, unlimited).Value();
}

inline bool IsEquivalent(const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2) {
  Budget unlimited = Budget::Unlimited();
  return CqEquivalentBudgeted(q1, q2, unlimited).Value();
}

inline bool IsEquivalent(const UnionOfCq& q1, const UnionOfCq& q2) {
  Budget unlimited = Budget::Unlimited();
  return UcqEquivalentBudgeted(q1, q2, unlimited).Value();
}

// CQ minimization, checked equivalent to its input.
inline ConjunctiveQuery Minimized(const ConjunctiveQuery& q) {
  Budget unlimited = Budget::Unlimited();
  ConjunctiveQuery minimized = MinimizeCqBudgeted(q, unlimited).TakeValue();
  HOMPRES_CHECK(IsEquivalent(q, minimized));
  return minimized;
}

// The optimizer pass under an unlimited budget.
inline UnionOfCq Optimized(const UnionOfCq& q,
                           const OptimizerOptions& options = {},
                           OptimizerStats* stats = nullptr) {
  Budget unlimited = Budget::Unlimited();
  return OptimizeUcqBudgeted(q, unlimited, options, stats);
}

// UCQ minimization: the optimizer pass with its equivalence check on.
inline UnionOfCq Minimized(const UnionOfCq& q) {
  return Optimized(q, {.verify = true});
}

}  // namespace hompres

#endif  // HOMPRES_TESTS_CONTAINMENT_TEST_UTIL_H_
