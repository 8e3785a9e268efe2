#include "cq/cq.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/budget.h"
#include "base/check.h"
#include "engine/engine.h"

namespace hompres {

ConjunctiveQuery::ConjunctiveQuery(Structure canonical,
                                   std::vector<int> free_elements)
    : canonical_(std::move(canonical)),
      free_elements_(std::move(free_elements)) {
  for (int e : free_elements_) {
    HOMPRES_CHECK_GE(e, 0);
    HOMPRES_CHECK_LT(e, canonical_.UniverseSize());
  }
}

ConjunctiveQuery ConjunctiveQuery::BooleanQueryOf(Structure canonical) {
  return ConjunctiveQuery(std::move(canonical), {});
}

bool ConjunctiveQuery::SatisfiedBy(const Structure& b) const {
  // Satisfaction is a pure has-hom question; the pipeline's minimal-model
  // and verification scans ask it about the same (canonical, b) pairs
  // over and over, so consult the global result cache.
  EngineConfig config;
  config.use_cache = true;
  Budget unlimited = Budget::Unlimited();
  return Engine::Has(canonical_, b, unlimited, config).Value();
}

std::vector<Tuple> ConjunctiveQuery::Evaluate(const Structure& b) const {
  std::vector<Tuple> answers;
  Budget unlimited = Budget::Unlimited();
  Engine::Enumerate(canonical_, b, unlimited, [&](const std::vector<int>& h) {
    Tuple answer;
    answer.reserve(free_elements_.size());
    for (int e : free_elements_) {
      answer.push_back(h[static_cast<size_t>(e)]);
    }
    answers.push_back(std::move(answer));
    return true;
  });
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream out;
  std::vector<bool> is_free(static_cast<size_t>(canonical_.UniverseSize()),
                            false);
  for (int e : free_elements_) is_free[static_cast<size_t>(e)] = true;
  for (int e = 0; e < canonical_.UniverseSize(); ++e) {
    if (!is_free[static_cast<size_t>(e)]) out << "Ex" << e << ' ';
  }
  out << '(';
  bool first = true;
  for (int rel = 0; rel < canonical_.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : canonical_.Tuples(rel)) {
      if (!first) out << " & ";
      first = false;
      out << canonical_.GetVocabulary().Name(rel) << '(';
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ',';
        out << 'x' << t[i];
      }
      out << ')';
    }
  }
  if (first) out << "true";
  out << ')';
  return out.str();
}

}  // namespace hompres
