#include "datalog/stages.h"

#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/check.h"
#include "opt/optimizer.h"

namespace hompres {

namespace {

constexpr size_t kRunawayGuard = 1u << 20;

// Plain union-find over dense ints.
class IntUnion {
 public:
  explicit IntUnion(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Merge(int a, int b) { parent_[static_cast<size_t>(Find(a))] = Find(b); }

  int Size() const { return static_cast<int>(parent_.size()); }

 private:
  std::vector<int> parent_;
};

// Assembles one disjunct of the unfolded stage: the rule body with the
// chosen previous-stage disjunct inlined at each IDB atom.
ConjunctiveQuery UnfoldRule(const DatalogProgram& program,
                            const DatalogRule& rule,
                            const std::vector<const ConjunctiveQuery*>&
                                chosen /* per body atom; null for EDB */) {
  // Pre-universe: rule variables first, then one block per inlined
  // disjunct.
  std::map<std::string, int> var_node;
  for (const DatalogAtom& atom : rule.body) {
    for (const auto& v : atom.arguments) {
      if (var_node.find(v) == var_node.end()) {
        const int id = static_cast<int>(var_node.size());
        var_node[v] = id;
      }
    }
  }
  int total = static_cast<int>(var_node.size());
  std::vector<int> block_offset(rule.body.size(), -1);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (chosen[i] != nullptr) {
      block_offset[i] = total;
      total += chosen[i]->Canonical().UniverseSize();
    }
  }
  IntUnion classes(total);
  // Identify each inlined disjunct's free elements with the atom's
  // argument variables.
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (chosen[i] == nullptr) continue;
    const auto& free_elements = chosen[i]->FreeElements();
    HOMPRES_CHECK_EQ(free_elements.size(), rule.body[i].arguments.size());
    for (size_t pos = 0; pos < free_elements.size(); ++pos) {
      classes.Merge(
          block_offset[i] + free_elements[pos],
          var_node.at(rule.body[i].arguments[pos]));
    }
  }
  // Quotient to element ids.
  std::vector<int> element(static_cast<size_t>(total), -1);
  int next = 0;
  for (int node = 0; node < total; ++node) {
    const int root = classes.Find(node);
    if (element[static_cast<size_t>(root)] == -1) {
      element[static_cast<size_t>(root)] = next++;
    }
    element[static_cast<size_t>(node)] = element[static_cast<size_t>(root)];
  }
  Structure canonical(program.Edb(), next);
  // EDB atoms of the rule body.
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (chosen[i] != nullptr) continue;
    const int rel = *program.Edb().IndexOf(rule.body[i].relation);
    Tuple t;
    for (const auto& v : rule.body[i].arguments) {
      t.push_back(element[static_cast<size_t>(var_node.at(v))]);
    }
    canonical.AddTuple(rel, t);
  }
  // Inlined disjunct tuples.
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (chosen[i] == nullptr) continue;
    const Structure& inner = chosen[i]->Canonical();
    for (int rel = 0; rel < inner.GetVocabulary().NumRelations(); ++rel) {
      for (const Tuple& t : inner.Tuples(rel)) {
        Tuple mapped;
        mapped.reserve(t.size());
        for (int e : t) {
          mapped.push_back(element[static_cast<size_t>(block_offset[i] + e)]);
        }
        canonical.AddTuple(rel, mapped);
      }
    }
  }
  std::vector<int> head_elements;
  for (const auto& v : rule.head.arguments) {
    head_elements.push_back(element[static_cast<size_t>(var_node.at(v))]);
  }
  return ConjunctiveQuery(std::move(canonical), std::move(head_elements));
}

}  // namespace

UnionOfCq StageUcq(const DatalogProgram& program, int idb_index, int m,
                   bool minimize) {
  HOMPRES_CHECK_GE(idb_index, 0);
  HOMPRES_CHECK_LT(idb_index, program.Idb().NumRelations());
  HOMPRES_CHECK_GE(m, 0);
  // Stage formulas are unions of conjunctive queries; inequalities leave
  // that fragment (Section 7.3), so Datalog(≠) programs are rejected.
  HOMPRES_CHECK(!program.HasInequalities());
  const size_t idb_count =
      static_cast<size_t>(program.Idb().NumRelations());
  // Theta^0: false for every IDB.
  std::vector<UnionOfCq> current;
  for (size_t i = 0; i < idb_count; ++i) {
    current.emplace_back(std::vector<ConjunctiveQuery>{},
                         program.Idb().Arity(static_cast<int>(i)));
  }
  for (int step = 0; step < m; ++step) {
    std::vector<std::vector<ConjunctiveQuery>> next(idb_count);
    for (const DatalogRule& rule : program.Rules()) {
      const int head = *program.IdbIndexOf(rule.head.relation);
      // Per body atom: list of previous-stage disjuncts (IDB) or a
      // single nullptr slot (EDB).
      std::vector<std::vector<const ConjunctiveQuery*>> options(
          rule.body.size());
      bool feasible = true;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const auto idb = program.IdbIndexOf(rule.body[i].relation);
        if (!idb.has_value()) {
          options[i] = {nullptr};
          continue;
        }
        for (const ConjunctiveQuery& d :
             current[static_cast<size_t>(*idb)].Disjuncts()) {
          options[i].push_back(&d);
        }
        if (options[i].empty()) feasible = false;
      }
      if (!feasible) continue;
      // Cartesian product over the options.
      std::vector<const ConjunctiveQuery*> chosen(rule.body.size());
      std::function<void(size_t)> expand = [&](size_t index) {
        if (index == rule.body.size()) {
          next[static_cast<size_t>(head)].push_back(
              UnfoldRule(program, rule, chosen));
          HOMPRES_CHECK_LT(next[static_cast<size_t>(head)].size(),
                           kRunawayGuard);
          return;
        }
        for (const ConjunctiveQuery* option : options[index]) {
          chosen[index] = option;
          expand(index + 1);
        }
      };
      expand(0);
    }
    std::vector<UnionOfCq> stage;
    for (size_t i = 0; i < idb_count; ++i) {
      UnionOfCq ucq(std::move(next[i]),
                    program.Idb().Arity(static_cast<int>(i)));
      if (minimize) {
        Budget unlimited = Budget::Unlimited();
        ucq = OptimizeUcqBudgeted(ucq, unlimited, {.verify = true});
      }
      stage.push_back(std::move(ucq));
    }
    current = std::move(stage);
  }
  return current[static_cast<size_t>(idb_index)];
}

std::optional<int> FindBoundednessWitness(const DatalogProgram& program,
                                          int idb_index, int max_stage) {
  UnionOfCq previous = StageUcq(program, idb_index, 0);
  Budget unlimited = Budget::Unlimited();
  for (int s = 0; s < max_stage; ++s) {
    UnionOfCq next = StageUcq(program, idb_index, s + 1);
    if (UcqEquivalentBudgeted(previous, next, unlimited).Value()) return s;
    previous = std::move(next);
  }
  return std::nullopt;
}

}  // namespace hompres
