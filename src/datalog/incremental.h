// Incremental Datalog view maintenance (DESIGN.md §4.10).
//
// A MaterializedView owns a program, a base structure, and the program's
// least fixpoint over it, and keeps all three consistent under
// StructureDelta edit scripts without refixpointing from scratch. The
// strategy is chosen per delta by engine/maintain.h's planner:
//
//   * counting        — every non-recursive program keeps the number of
//                       derivations of every IDB fact. A delta updates
//                       the counts by the signed inclusion-exclusion
//                       staging sum (one join per rule and delta
//                       position, starting from the delta set; positions
//                       left of the delta read the new state, positions
//                       right of it the old), exact under insertion AND
//                       deletion. This holds for certified-bounded
//                       non-recursive programs too: their cost follows
//                       the delta instead of the whole unfolding.
//   * bounded-UCQ     — a recursive program whose every IDB carries an
//                       Ajtai-Gurevich boundedness certificate
//                       (datalog/stages.h): the fixpoint IS the stage-s
//                       unfolding Theta^s, a plain UCQ over the EDB. The
//                       view optimizes each unfolding once at
//                       certification time (opt/optimizer.h) and
//                       afterwards maintains by re-evaluating it: cost
//                       independent of the delta shape, no deletion
//                       machinery at all.
//   * delta-insert    — insertion-only deltas into recursive programs
//                       run semi-naive rounds seeded by the inserted
//                       tuples; set semantics make over-derivation
//                       harmless.
//   * DRed            — deletions in recursive programs overdelete
//                       (everything with a derivation through a deleted
//                       fact, computed on the old state), then rederive
//                       survivors by head-bound existence probes, then
//                       handle the inserted half by delta-insert.
//   * from-scratch    — the always-sound fallback: a full semi-naive
//                       refixpoint. Forced by options (the differential
//                       baseline) or by a "view/maintain" fault, which
//                       is recorded as a kMaintainToFromScratch
//                       degradation — faults cost time, never answers.
//
// Every strategy yields the same IDB a from-scratch evaluation of the
// mutated base would: the randomized differential harness
// (tests/incremental_datalog_test.cc) replays insert/delete streams
// against both and requires equality at every step.
//
// Deltas are applied by NET effect: inserts and removes of the same
// tuple within one script cancel, and element appends take effect before
// any tuple op. The resulting base state equals the sequential
// Structure::Apply of the same script.

#ifndef HOMPRES_DATALOG_INCREMENTAL_H_
#define HOMPRES_DATALOG_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "cq/ucq.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/rule_eval.h"
#include "engine/maintain.h"
#include "structure/delta.h"
#include "structure/structure.h"

namespace hompres {

// Derivation count per IDB fact, for the counting strategy.
struct TupleHasher {
  size_t operator()(const Tuple& tuple) const;
};
using DerivationCounts = std::unordered_map<Tuple, long long, TupleHasher>;

struct MaterializedViewOptions {
  // Cap for the construction-time Ajtai-Gurevich boundedness probe
  // (datalog/stages.h): the smallest witness <= cap certifies the
  // program (Bounded()/BoundedStage()). Only a certified recursive
  // program maintains by bounded-UCQ; non-recursive programs count
  // whatever the certificate says. 0 disables the probe (and the
  // strategy). Programs with inequalities are never probed — stage
  // unfolding is unavailable for Datalog(≠).
  int max_bounded_stage = 2;

  // Worker threads for from-scratch evaluation and for bounded-UCQ
  // re-evaluation. 0 = serial.
  int num_threads = 0;

  // Always maintain by full refixpoint: the bit-identical baseline the
  // differential tests compare the incremental strategies against.
  bool force_from_scratch = false;
};

// What one Apply() did, for callers that report or assert on it
// (hompresd's per-request maintenance block, the benches, the tests).
struct ViewMaintenanceStats {
  // Chosen strategy, the traits that chose it, and any degradations
  // taken while executing it (Explain()/Summary() render it).
  MaintenancePlan plan;

  // What the base structure's own delta application did (index
  // maintenance, compaction, version). For DRed the script is applied
  // in stages (removals before insertions) and the fields accumulate.
  DeltaApplyResult base;

  // Rule-body assignments enumerated by the maintenance joins.
  long long derivations = 0;

  // Semi-naive / overdeletion rounds run (from-scratch: fixpoint
  // stages).
  int rounds = 0;

  // Gross IDB tuple flow out of this Apply: facts inserted into /
  // removed from the maintained interpretation.
  int idb_inserted = 0;
  int idb_removed = 0;

  // DRed only: overdeleted facts saved by the rederivation pass.
  int rederived = 0;

  // A full refixpoint ran (from-scratch strategy, forced or degraded).
  bool recomputed = false;
};

class MaterializedView {
 public:
  // Evaluates the initial fixpoint (and, when enabled, runs the
  // boundedness probe + stage-UCQ optimization) up front, so Apply()
  // never pays first-call setup. Requires program.Edb() ==
  // base.GetVocabulary().
  MaterializedView(DatalogProgram program, Structure base,
                   MaterializedViewOptions options = {});

  const DatalogProgram& GetProgram() const { return program_; }
  const Structure& Base() const { return base_; }

  // Version of the maintained base structure (bumps with every
  // effective op applied through this view).
  uint64_t Version() const { return base_.Version(); }

  // The maintained least fixpoint: one tuple set per IDB index.
  const IdbInterpretation& Idb() const { return idb_; }
  const std::set<Tuple>& IdbRelation(int idb_index) const;

  bool Recursive() const { return recursive_; }

  // True iff every IDB was certified bounded at construction;
  // BoundedStage() is then the largest witness stage.
  bool Bounded() const { return bounded_; }
  int BoundedStage() const { return bounded_stage_; }

  // Applies `delta` to the base structure and maintains the fixpoint.
  ViewMaintenanceStats Apply(const StructureDelta& delta);

 private:
  struct NetDelta;  // per-relation net insert/remove sets

  NetDelta ComputeNet(const StructureDelta& delta) const;
  void FullCountingEval(long long* derivations);
  void Refixpoint(ViewMaintenanceStats* stats);
  void EvaluateBounded(ViewMaintenanceStats* stats);
  void MaintainCounting(const NetDelta& net, ViewMaintenanceStats* stats);
  void DeltaInsert(const std::vector<std::set<Tuple>>& edb_ins,
                   ViewMaintenanceStats* stats);
  void DRed(const NetDelta& net, ViewMaintenanceStats* stats);
  bool ExistsDerivation(int idb_index, const Tuple& fact,
                        long long* derivations) const;

  DatalogProgram program_;
  MaterializedViewOptions options_;
  Structure base_;
  std::vector<CompiledRule> compiled_;
  // delta_compiled_[r][i]: rule r compiled with body position i joining
  // first, for the delta joins that read a small delta set at i.
  std::vector<std::vector<CompiledRule>> delta_compiled_;
  std::vector<int> rule_heads_;  // IDB index per rule
  std::vector<bool> idb_read_;   // per IDB: some rule body reads it

  bool recursive_ = false;
  bool has_inequalities_ = false;
  std::vector<int> topo_;  // IDB evaluation order (empty when recursive)

  bool bounded_ = false;
  int bounded_stage_ = 0;
  // Per IDB, optimized; built only when the bounded-UCQ strategy can run
  // (recursive and certified bounded).
  std::vector<UnionOfCq> stage_ucqs_;

  IdbInterpretation idb_;
  // Derivation counts per IDB fact; maintained exactly when the
  // counting strategy is reachable (non-recursive, not a forced
  // baseline), whether or not the program is certified bounded.
  std::vector<DerivationCounts> counts_;
  bool counting_state_ = false;
};

}  // namespace hompres

#endif  // HOMPRES_DATALOG_INCREMENTAL_H_
