#include "fo/cqk.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "base/budget.h"
#include "base/check.h"
#include "core/minimal_models.h"
#include "engine/engine.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "fo/eval.h"
#include "hom/homomorphism.h"
#include "opt/containment.h"
#include "structure/gaifman.h"

namespace hompres {

int DistinctVariableCount(const FormulaPtr& f) {
  return static_cast<int>(AllVariables(f).size());
}

namespace {

bool HasCqShape(const FormulaPtr& f) {
  switch (f->Kind()) {
    case FormulaKind::kAtom:
      return true;
    case FormulaKind::kAnd: {
      for (const auto& child : f->Children()) {
        if (!HasCqShape(child)) return false;
      }
      return true;
    }
    case FormulaKind::kExists:
      return HasCqShape(f->Children()[0]);
    default:
      return false;
  }
}

}  // namespace

bool IsCqkFormula(const FormulaPtr& f, int k) {
  return HasCqShape(f) && DistinctVariableCount(f) <= k;
}

namespace {

// Builds the renamed-apart parse tree while collecting atoms, bags, and
// tree edges.
class CqkBuilder {
 public:
  CqkBuilder(const Vocabulary& vocabulary) : vocabulary_(vocabulary) {}

  // Returns the node id of the subtree root, or -1 on vocabulary error.
  // `subst` maps original variable names to renamed ones. Fills
  // `free_vars_out` with the renamed free variables of this subformula.
  int Build(const FormulaPtr& f, std::map<std::string, std::string> subst,
            std::set<std::string>* free_vars_out) {
    switch (f->Kind()) {
      case FormulaKind::kAtom: {
        const auto rel = vocabulary_.IndexOf(f->Relation());
        if (!rel.has_value()) return -1;
        if (vocabulary_.Arity(*rel) !=
            static_cast<int>(f->Variables().size())) {
          return -1;
        }
        std::vector<std::string> arguments;
        for (const auto& v : f->Variables()) {
          auto it = subst.find(v);
          if (it == subst.end()) return -1;  // free variable: not a sentence
          arguments.push_back(it->second);
          free_vars_out->insert(it->second);
        }
        atoms_.emplace_back(*rel, std::move(arguments));
        return NewNode(*free_vars_out);
      }
      case FormulaKind::kAnd: {
        std::vector<int> child_nodes;
        for (const auto& child : f->Children()) {
          std::set<std::string> child_free;
          const int node = Build(child, subst, &child_free);
          if (node == -1) return -1;
          child_nodes.push_back(node);
          free_vars_out->insert(child_free.begin(), child_free.end());
        }
        const int node = NewNode(*free_vars_out);
        for (int child : child_nodes) edges_.emplace_back(node, child);
        return node;
      }
      case FormulaKind::kExists: {
        const std::string fresh = "@q" + std::to_string(counter_++);
        renamed_variables_.push_back(fresh);
        subst[f->Variables()[0]] = fresh;
        std::set<std::string> child_free;
        const int child = Build(f->Children()[0], subst, &child_free);
        if (child == -1) return -1;
        // Bag: free vars of the child plus the bound variable (covers the
        // unused-variable case); the node's own free vars drop it.
        child_free.insert(fresh);
        const int node = NewNode(child_free);
        edges_.emplace_back(node, child);
        child_free.erase(fresh);
        *free_vars_out = std::move(child_free);
        return node;
      }
      default:
        return -1;
    }
  }

  std::optional<CqkCanonicalResult> Finish(int root, int k) {
    if (root == -1) return std::nullopt;
    // Elements: every renamed variable.
    std::map<std::string, int> element_of;
    std::vector<std::string> element_names;
    for (const auto& name : renamed_variables_) {
      element_of[name] = static_cast<int>(element_names.size());
      element_names.push_back(name);
    }
    Structure structure(vocabulary_,
                        static_cast<int>(element_names.size()));
    for (const auto& [rel, arguments] : atoms_) {
      Tuple t;
      t.reserve(arguments.size());
      for (const auto& v : arguments) t.push_back(element_of.at(v));
      structure.AddTuple(rel, t);
    }
    TreeDecomposition td;
    td.tree = Graph(static_cast<int>(bags_.size()));
    for (const auto& [parent, child] : edges_) td.tree.AddEdge(parent, child);
    td.bags.reserve(bags_.size());
    for (const auto& bag_names : bags_) {
      std::vector<int> bag;
      for (const auto& v : bag_names) bag.push_back(element_of.at(v));
      std::sort(bag.begin(), bag.end());
      HOMPRES_CHECK_LE(static_cast<int>(bag.size()), k);
      td.bags.push_back(std::move(bag));
    }
    HOMPRES_CHECK(IsValidTreeDecomposition(GaifmanGraph(structure), td));
    HOMPRES_CHECK_LE(td.Width(), k - 1);
    return CqkCanonicalResult{std::move(structure),
                              std::move(element_names), std::move(td)};
  }

 private:
  int NewNode(const std::set<std::string>& bag) {
    bags_.push_back(bag);
    return static_cast<int>(bags_.size()) - 1;
  }

  const Vocabulary& vocabulary_;
  int counter_ = 0;
  std::vector<std::string> renamed_variables_;
  std::vector<std::pair<int, std::vector<std::string>>> atoms_;
  std::vector<std::set<std::string>> bags_;
  std::vector<std::pair<int, int>> edges_;
};

}  // namespace

std::optional<CqkCanonicalResult> CqkCanonicalStructure(
    const FormulaPtr& f, const Vocabulary& vocabulary, int k) {
  if (!IsCqkFormula(f, k)) return std::nullopt;
  if (!IsSentence(f)) return std::nullopt;
  CqkBuilder builder(vocabulary);
  std::set<std::string> free_vars;
  const int root = builder.Build(f, {}, &free_vars);
  if (root == -1 || !free_vars.empty()) return std::nullopt;
  return builder.Finish(root, k);
}

namespace {

// Does `s` satisfy the disjunction of the sentences in phi?
bool SatisfiesSome(const std::vector<FormulaPtr>& phi, const Structure& s) {
  for (const FormulaPtr& f : phi) {
    if (EvaluateSentence(s, f)) return true;
  }
  return false;
}

}  // namespace

std::optional<Lemma73Result> Lemma73Witness(
    const std::vector<FormulaPtr>& phi, const Vocabulary& vocabulary, int k,
    const Structure& a) {
  // Find a disjunct satisfied by a.
  const FormulaPtr* satisfied = nullptr;
  for (const FormulaPtr& f : phi) {
    if (!IsCqkFormula(f, k) || !IsSentence(f)) return std::nullopt;
    if (satisfied == nullptr && EvaluateSentence(a, f)) satisfied = &f;
  }
  if (satisfied == nullptr) return std::nullopt;

  // Lemma 7.2: canonical structure D of treewidth < k, hom D -> A.
  auto canonical = CqkCanonicalStructure(*satisfied, vocabulary, k);
  HOMPRES_CHECK(canonical.has_value());
  Structure current = std::move(canonical->structure);
  Budget unlimited = Budget::Unlimited();
  std::vector<int> hom = *Engine::Find(current, a, unlimited).Value();

  // Descend to a minimal model of the disjunction inside D: greedily
  // remove one tuple or one element while the result still satisfies
  // some disjunct; track the homomorphism restriction along the way.
  bool reduced = true;
  while (reduced) {
    reduced = false;
    for (int rel = 0;
         rel < current.GetVocabulary().NumRelations() && !reduced; ++rel) {
      const int count = static_cast<int>(current.Tuples(rel).size());
      for (int i = 0; i < count; ++i) {
        Structure candidate = current.RemoveTuple(rel, i);
        if (SatisfiesSome(phi, candidate)) {
          current = std::move(candidate);
          reduced = true;
          break;
        }
      }
    }
    if (reduced) continue;
    for (int e = 0; e < current.UniverseSize(); ++e) {
      std::vector<int> old_to_new;
      Structure candidate = current.RemoveElement(e, &old_to_new);
      if (SatisfiesSome(phi, candidate)) {
        std::vector<int> reduced_hom(
            static_cast<size_t>(candidate.UniverseSize()));
        for (int old = 0; old < current.UniverseSize(); ++old) {
          const int now = old_to_new[static_cast<size_t>(old)];
          if (now >= 0) {
            reduced_hom[static_cast<size_t>(now)] =
                hom[static_cast<size_t>(old)];
          }
        }
        current = std::move(candidate);
        hom = std::move(reduced_hom);
        reduced = true;
        break;
      }
    }
  }

  Lemma73Result result{
      .minimal_model = current,
      .decomposition = ExactTreeDecomposition(GaifmanGraph(current)),
      .hom_to_a = hom,
      .surjective = false,
  };
  HOMPRES_CHECK_LE(result.decomposition.Width(), k - 1);
  HOMPRES_CHECK(VerifyHomomorphism(current, a, hom));
  std::vector<bool> covered(static_cast<size_t>(a.UniverseSize()), false);
  for (int v : hom) covered[static_cast<size_t>(v)] = true;
  result.surjective = true;
  for (bool c : covered) result.surjective &= c;
  return result;
}

std::optional<std::vector<int>> Theorem74Subdisjunction(
    const std::vector<FormulaPtr>& phi, const Vocabulary& vocabulary,
    int k) {
  // Build the UCQ ∨Φ from the canonical structures of Lemma 7.2.
  std::vector<ConjunctiveQuery> disjuncts;
  for (const FormulaPtr& f : phi) {
    auto canonical = CqkCanonicalStructure(f, vocabulary, k);
    if (!canonical.has_value()) return std::nullopt;
    disjuncts.push_back(
        ConjunctiveQuery::BooleanQueryOf(std::move(canonical->structure)));
  }
  const UnionOfCq union_phi(disjuncts, 0);
  // Minimal models of ∨Φ over all finite structures; for each, the proof
  // picks a disjunct it satisfies (footnote 1: via Theorem 2.1 this
  // means phi_D logically implies that disjunct).
  const std::vector<Structure> models =
      MinimalModelsOfUcq(union_phi, AllStructuresClass());
  std::set<int> chosen;
  for (const Structure& model : models) {
    for (size_t i = 0; i < disjuncts.size(); ++i) {
      if (disjuncts[i].SatisfiedBy(model)) {
        chosen.insert(static_cast<int>(i));
        break;
      }
    }
  }
  std::vector<int> result(chosen.begin(), chosen.end());
  // Sanity: the subdisjunction is equivalent to the full disjunction.
  std::vector<ConjunctiveQuery> kept;
  for (int i : result) kept.push_back(disjuncts[static_cast<size_t>(i)]);
  Budget unlimited = Budget::Unlimited();
  HOMPRES_CHECK(
      UcqEquivalentBudgeted(union_phi, UnionOfCq(kept, 0), unlimited).Value());
  return result;
}

FormulaPtr RandomCqkSentence(const Vocabulary& vocabulary, int k,
                             int atom_budget, Rng& rng) {
  HOMPRES_CHECK_GE(k, 1);
  for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
    HOMPRES_CHECK_LE(vocabulary.Arity(rel), k);
  }
  std::vector<std::string> pool;
  for (int i = 0; i < k; ++i) pool.push_back("v" + std::to_string(i));

  // Recursive random generator; consumes the atom budget.
  std::function<FormulaPtr(int&)> generate = [&](int& budget) -> FormulaPtr {
    const int kind = budget <= 1 ? 0 : static_cast<int>(rng.Uniform(3));
    if (kind == 0 || budget <= 1) {
      // Atom over random variables.
      budget -= 1;
      const int rel = static_cast<int>(
          rng.Uniform(static_cast<uint64_t>(vocabulary.NumRelations())));
      std::vector<std::string> arguments;
      for (int i = 0; i < vocabulary.Arity(rel); ++i) {
        arguments.push_back(
            pool[static_cast<size_t>(rng.Uniform(pool.size()))]);
      }
      return Formula::Atom(vocabulary.Name(rel), std::move(arguments));
    }
    if (kind == 1) {
      // Conjunction of 2.
      std::vector<FormulaPtr> parts;
      parts.push_back(generate(budget));
      if (budget > 0) parts.push_back(generate(budget));
      if (parts.size() == 1) return parts[0];
      return Formula::And(std::move(parts));
    }
    // Requantify a random pool variable.
    const std::string& v =
        pool[static_cast<size_t>(rng.Uniform(pool.size()))];
    return Formula::Exists(v, generate(budget));
  };

  int budget = std::max(1, atom_budget);
  FormulaPtr body = generate(budget);
  // Close the sentence: quantify every pool variable at the top.
  for (auto it = pool.rbegin(); it != pool.rend(); ++it) {
    body = Formula::Exists(*it, body);
  }
  HOMPRES_CHECK(IsSentence(body));
  HOMPRES_CHECK(IsCqkFormula(body, k));
  return body;
}

}  // namespace hompres
