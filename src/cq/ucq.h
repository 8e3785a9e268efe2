// Unions of conjunctive queries (select-project-join-union queries).
// Their Sagiv-Yannakakis containment test (used in Theorem 7.4's proof)
// and minimization live in opt/containment.h and opt/optimizer.h.

#ifndef HOMPRES_CQ_UCQ_H_
#define HOMPRES_CQ_UCQ_H_

#include <string>
#include <vector>

#include "cq/cq.h"

namespace hompres {

class UnionOfCq {
 public:
  // All disjuncts must share the arity. An empty union is the constant
  // false query (pass the arity explicitly).
  explicit UnionOfCq(std::vector<ConjunctiveQuery> disjuncts, int arity = 0);

  const std::vector<ConjunctiveQuery>& Disjuncts() const {
    return disjuncts_;
  }
  int Arity() const { return arity_; }

  bool SatisfiedBy(const Structure& b) const;

  // Parallel satisfaction: the disjuncts' homomorphism searches run
  // concurrently on `num_threads` workers, and the first disjunct found
  // satisfied cancels the rest. Same answer as the serial overload;
  // num_threads <= 0 falls back to it.
  bool SatisfiedBy(const Structure& b, int num_threads) const;

  // Union of the disjuncts' answers, sorted and deduplicated.
  std::vector<Tuple> Evaluate(const Structure& b) const;

  // Parallel evaluation: one task per disjunct, answers merged, sorted
  // and deduplicated — identical output to the serial overload.
  std::vector<Tuple> Evaluate(const Structure& b, int num_threads) const;

  std::string ToString() const;

 private:
  std::vector<ConjunctiveQuery> disjuncts_;
  int arity_;
};

}  // namespace hompres

#endif  // HOMPRES_CQ_UCQ_H_
