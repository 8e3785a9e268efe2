// Engine configuration: every tunable of the homomorphism engine in one
// value type (src/engine is the planning/execution layer behind all
// homomorphism-shaped queries; see engine/plan.h for how a config is
// validated and turned into an executable HomPlan).
//
// EngineConfig is the only way to configure a homomorphism query. Its
// validation is strict: an incompatible combination is a structured
// PlanError, and only the mode-driven normalizations (engine/plan.h,
// pass 1) adjust a config silently, recording what they changed.

#ifndef HOMPRES_ENGINE_CONFIG_H_
#define HOMPRES_ENGINE_CONFIG_H_

#include <utility>
#include <vector>

namespace hompres {

struct EngineConfig {
  // Require the witness to be surjective onto the target's universe
  // (Lemma 7.3: minimal models are surjective images). A global property:
  // incompatible with component factorization.
  bool surjective = false;

  // Pre-assigned pairs (a, b): h(a) must equal b. A pair referencing an
  // element outside either universe is an unsatisfiable constraint: the
  // query answers "no homomorphism" rather than aborting. Forced pairs
  // name elements of the unsplit universe: incompatible with component
  // factorization.
  std::vector<std::pair<int, int>> forced;

  // Disable arc consistency (naive backtracking baseline kernel).
  bool use_arc_consistency = true;

  // Use the target's RelationIndex to narrow the propagation scans.
  // Bit-identical results with fewer tuples visited. Only meaningful with
  // use_arc_consistency (the naive kernel probes single tuples and never
  // scans).
  bool use_index = true;

  // Worker threads for the parallel subtree-split driver. 0 = serial,
  // bit-identical to the single-threaded engine. Enumeration is always
  // serial (the callback makes no thread-safety promise).
  int num_threads = 0;

  // With num_threads > 0: return the witness of the lexicographically
  // first completed subtree (a deterministic function of the inputs)
  // instead of the first finisher's.
  bool deterministic_witness = false;

  // Factor the search through the connected components of the source's
  // Gaifman graph (existence = conjunction, count = saturating product).
  bool factorize = true;

  // Consult and fill the global homomorphism-result cache
  // (hom/hom_cache.h) for has/count queries, keyed by structure
  // fingerprints. Witness and enumeration queries are not cacheable (the
  // cache stores scalar answers only).
  bool use_cache = false;
};

}  // namespace hompres

#endif  // HOMPRES_ENGINE_CONFIG_H_
