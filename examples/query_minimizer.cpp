// query_minimizer: the database-side motivation from the paper's
// introduction — select-project-join-union queries are the bread and
// butter of relational systems, and Chandra-Merlin minimization removes
// redundant joins. Feed an existential-positive formula (or use the
// default), get back the minimized union of conjunctive queries.
//
//   ./build/examples/query_minimizer
//   ./build/examples/query_minimizer "exists x exists y exists z (E(x,y) & E(x,z))"

#include <cstdio>
#include <string>

#include "base/budget.h"
#include "cq/ucq.h"
#include "fo/ep.h"
#include "fo/parser.h"
#include "opt/optimizer.h"
#include "structure/vocabulary.h"

int main(int argc, char** argv) {
  using namespace hompres;

  const std::string text =
      argc > 1 ? argv[1]
               : "exists x exists y exists z exists w "
                 "(E(x,y) & E(x,z) & E(z,w)) | "
                 "exists u exists v (E(u,v) & E(u,v) & exists t E(v,t))";
  std::printf("input formula: %s\n", text.c_str());

  std::string error;
  auto formula = ParseFormula(text, &error);
  if (!formula.has_value()) {
    std::printf("parse error: %s\n", error.c_str());
    return 1;
  }
  if (!IsExistentialPositive(*formula)) {
    std::printf(
        "not existential-positive: only atoms, =, &, | and exists are "
        "SPJU-expressible\n");
    return 1;
  }

  auto ucq = ExistentialPositiveSentenceToUcq(*formula, GraphVocabulary());
  if (!ucq.has_value()) {
    std::printf("conversion failed (unknown relation or wrong arity?)\n");
    return 1;
  }
  std::printf("\nas a union of conjunctive queries (%zu disjuncts):\n",
              ucq->Disjuncts().size());
  for (const auto& d : ucq->Disjuncts()) {
    std::printf("  %s   [%d joins]\n", d.ToString().c_str(),
                d.Canonical().NumTuples());
  }

  Budget unlimited = Budget::Unlimited();
  UnionOfCq minimized =
      OptimizeUcqBudgeted(*ucq, unlimited, {.verify = true});
  std::printf("\nafter Chandra-Merlin minimization (%zu disjuncts):\n",
              minimized.Disjuncts().size());
  int before = 0;
  int after = 0;
  for (const auto& d : ucq->Disjuncts()) before += d.Canonical().NumTuples();
  for (const auto& d : minimized.Disjuncts()) {
    std::printf("  %s   [%d joins]\n", d.ToString().c_str(),
                d.Canonical().NumTuples());
    after += d.Canonical().NumTuples();
  }
  std::printf("\njoins before: %d, after: %d, equivalent: %s\n", before,
              after,
              UcqEquivalentBudgeted(*ucq, minimized, unlimited).Value()
                  ? "yes"
                  : "no");
  return 0;
}
