// Compiled rule bodies, shared by the batch evaluators (datalog/eval.cc)
// and the incremental view maintainer (datalog/incremental.cc).
//
// Variable names resolve to dense integer slots once per evaluation, so
// join loops never touch a string map. Body atoms are reordered greedily
// — the atom with the most already-bound positions joins next, ties
// keeping the original order — and every inequality is attached to the
// earliest atom after which both of its slots are bound. Compilation is
// a pure function of the rule (and an optional pinned first atom): both
// consumers compile full joins identically, so a maintained view
// enumerates the same joins the batch engine would, and the maintainer's
// delta joins pin the delta position first so they start from the delta.

#ifndef HOMPRES_DATALOG_RULE_EVAL_H_
#define HOMPRES_DATALOG_RULE_EVAL_H_

#include <utility>
#include <vector>

#include "datalog/program.h"

namespace hompres {

struct CompiledAtom {
  int body_pos;            // original body index (keys into job sources)
  std::vector<int> slots;  // variable slot per argument position
};

struct CompiledRule {
  int num_slots = 0;
  std::vector<CompiledAtom> atoms;  // greedy bound-first order
  std::vector<int> head_slots;
  // ineqs_after[i]: slot pairs to check right after atoms[i] unifies.
  std::vector<std::vector<std::pair<int, int>>> ineqs_after;
};

// `first_atom` >= 0 pins that body atom to the front of the join order
// (the incremental maintainer's delta joins start from the delta set).
CompiledRule CompileRule(const DatalogRule& rule, int first_atom = -1);

// One compiled rule per program rule, in rule order.
std::vector<CompiledRule> CompileProgram(const DatalogProgram& program);

}  // namespace hompres

#endif  // HOMPRES_DATALOG_RULE_EVAL_H_
