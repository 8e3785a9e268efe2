// Randomized update-stream differential testing of incremental Datalog
// view maintenance (datalog/incremental.h).
//
// Every trial draws a random safe program (EDB U/1, E/2; IDB P/1, Q/2,
// sometimes with inequality constraints) and a random EDB structure,
// then replays a random stream of StructureDeltas — tuple insertions,
// tuple deletions, element appends, duplicate/no-op edits — against a
// MaterializedView and against a from-scratch baseline (sequential
// Structure::Apply + EvaluateSemiNaive). At every step the maintained
// IDB must equal the refixpoint, the maintained base must equal (and
// fingerprint-match) the sequentially mutated structure, whichever of
// delta-insert / counting / DRed / bounded-UCQ the planner chose. A
// disagreement shrinks the stream (greedy delta and op removal while the
// disagreement persists) and prints the seed for replay:
//
//   HOMPRES_TEST_SEED=<seed> ./incremental_datalog_test

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "datalog/eval.h"
#include "datalog/incremental.h"
#include "datalog/program.h"
#include "engine/maintain.h"
#include "structure/delta.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

constexpr uint64_t kDefaultSeed = 20260808;

uint64_t TestSeed() {
  const char* env = std::getenv("HOMPRES_TEST_SEED");
  if (env == nullptr || *env == '\0') return kDefaultSeed;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

Vocabulary EdbVocabulary() {
  Vocabulary voc;
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  return voc;
}

// A random safe program over EDB {U/1, E/2} and IDB {P/1, Q/2}; same
// shape as datalog_differential_test's generator, so the maintained
// strategies face recursion, stratified chains, and Datalog(≠) alike.
DatalogProgram RandomProgram(Rng& rng, bool allow_inequalities) {
  const std::vector<std::string> pool = {"x", "y", "z", "w"};
  struct Pred {
    std::string name;
    int arity;
  };
  const std::vector<Pred> body_preds = {
      {"U", 1}, {"E", 2}, {"P", 1}, {"Q", 2}};
  const std::vector<Pred> head_preds = {{"P", 1}, {"Q", 2}};
  std::vector<DatalogRule> rules;
  rules.push_back(DatalogRule{{"P", {"x"}}, {{"U", {"x"}}}});
  rules.push_back(DatalogRule{{"Q", {"x", "y"}}, {{"E", {"x", "y"}}}});
  const int num_rules = rng.UniformInt(1, 4);
  for (int r = 0; r < num_rules; ++r) {
    DatalogRule rule;
    const int num_atoms = rng.UniformInt(1, 3);
    std::vector<std::string> body_vars;
    for (int i = 0; i < num_atoms; ++i) {
      const Pred& p = body_preds[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_preds.size()) - 1))];
      DatalogAtom atom;
      atom.relation = p.name;
      for (int j = 0; j < p.arity; ++j) {
        const std::string& v = pool[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(pool.size()) - 1))];
        atom.arguments.push_back(v);
        body_vars.push_back(v);
      }
      rule.body.push_back(std::move(atom));
    }
    const Pred& head = head_preds[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(head_preds.size()) - 1))];
    rule.head.relation = head.name;
    for (int j = 0; j < head.arity; ++j) {
      rule.head.arguments.push_back(body_vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_vars.size()) - 1))]);
    }
    if (allow_inequalities && rng.UniformInt(0, 3) == 0) {
      const std::string& a = body_vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_vars.size()) - 1))];
      const std::string& b = body_vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_vars.size()) - 1))];
      if (a != b) rule.inequalities.emplace_back(a, b);
    }
    rules.push_back(std::move(rule));
  }
  return DatalogProgram(EdbVocabulary(), std::move(rules));
}

// A random edit script against the current state `s`: mostly inserts
// (sometimes duplicates), some removes (sometimes of absent tuples),
// occasional element appends — including ops that cancel within the
// script, so the net-delta computation is exercised.
StructureDelta RandomDelta(Rng& rng, const Structure& s) {
  StructureDelta delta;
  const int ops = rng.UniformInt(1, 6);
  for (int i = 0; i < ops; ++i) {
    const int kind = rng.UniformInt(0, 9);
    if (kind == 0) {
      delta.AppendElements(rng.UniformInt(0, 2));
      continue;
    }
    const int rel =
        rng.UniformInt(0, s.GetVocabulary().NumRelations() - 1);
    const int arity = s.GetVocabulary().Arity(rel);
    Tuple random_tuple;
    for (int j = 0; j < arity; ++j) {
      random_tuple.push_back(rng.UniformInt(0, s.UniverseSize() - 1));
    }
    if (kind <= 6) {
      delta.InsertTuple(rel, std::move(random_tuple));
    } else if (!s.Tuples(rel).empty() && rng.UniformInt(0, 1) == 0) {
      const auto& tuples = s.Tuples(rel);
      delta.RemoveTuple(
          rel, tuples[static_cast<size_t>(rng.UniformInt(
                   0, static_cast<int>(tuples.size()) - 1))]);
    } else {
      delta.RemoveTuple(rel, std::move(random_tuple));
    }
  }
  return delta;
}

// Replays the stream against a maintained view and the from-scratch
// baseline; returns the first step at which they disagree (0 =
// construction, k >= 1 = after stream[k-1]) or -1 when they agree
// throughout.
int FirstDisagreement(const DatalogProgram& program,
                      const Structure& initial,
                      const std::vector<StructureDelta>& stream,
                      const MaterializedViewOptions& options) {
  MaterializedView view(program, initial, options);
  Structure scratch = initial;
  if (view.Idb() != EvaluateSemiNaive(program, scratch).idb) return 0;
  for (size_t k = 0; k < stream.size(); ++k) {
    view.Apply(stream[k]);
    scratch.Apply(stream[k]);
    if (!(view.Base() == scratch) ||
        view.Base().Fingerprint() != scratch.Fingerprint() ||
        view.Idb() != EvaluateSemiNaive(program, scratch).idb) {
      return static_cast<int>(k) + 1;
    }
  }
  return -1;
}

StructureDelta WithoutOp(const StructureDelta& delta, size_t skip) {
  StructureDelta out;
  const auto& ops = delta.Ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == skip) continue;
    switch (ops[i].kind) {
      case DeltaOp::Kind::kInsertTuple:
        out.InsertTuple(ops[i].rel, ops[i].tuple);
        break;
      case DeltaOp::Kind::kRemoveTuple:
        out.RemoveTuple(ops[i].rel, ops[i].tuple);
        break;
      case DeltaOp::Kind::kAppendElements:
        out.AppendElements(ops[i].count);
        break;
    }
  }
  return out;
}

// Greedy shrink: drop whole deltas, then single ops, while the stream
// still produces a disagreement.
std::vector<StructureDelta> ShrinkStream(
    const DatalogProgram& program, const Structure& initial,
    std::vector<StructureDelta> stream,
    const MaterializedViewOptions& options) {
  const auto still_fails = [&](const std::vector<StructureDelta>& s) {
    return FirstDisagreement(program, initial, s, options) >= 0;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < stream.size() && !progress; ++i) {
      std::vector<StructureDelta> candidate = stream;
      candidate.erase(candidate.begin() + static_cast<long>(i));
      if (still_fails(candidate)) {
        stream = std::move(candidate);
        progress = true;
      }
    }
    for (size_t i = 0; i < stream.size() && !progress; ++i) {
      for (size_t j = 0; j < stream[i].Ops().size() && !progress; ++j) {
        std::vector<StructureDelta> candidate = stream;
        candidate[i] = WithoutOp(stream[i], j);
        if (still_fails(candidate)) {
          stream = std::move(candidate);
          progress = true;
        }
      }
    }
  }
  return stream;
}

std::string FailureReport(uint64_t seed, int trial,
                          const DatalogProgram& program,
                          const Structure& initial,
                          const std::vector<StructureDelta>& stream,
                          const MaterializedViewOptions& options) {
  const std::vector<StructureDelta> shrunk =
      ShrinkStream(program, initial, stream, options);
  std::string report =
      "maintained view disagrees with the from-scratch baseline\n"
      "replay: HOMPRES_TEST_SEED=" +
      std::to_string(seed) + " (trial " + std::to_string(trial) + ")\n" +
      "program:\n" + program.DebugString() +
      "\ninitial: " + initial.DebugString() + "\nshrunken stream (" +
      std::to_string(shrunk.size()) + " deltas, first disagreement step " +
      std::to_string(FirstDisagreement(program, initial, shrunk, options)) +
      "):";
  for (const StructureDelta& delta : shrunk) {
    report += "\n  " + delta.DebugString(initial.GetVocabulary());
  }
  return report;
}

TEST(IncrementalDatalog, MaintainedMatchesFromScratchOnRandomStreams) {
  const uint64_t seed = TestSeed();
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/true);
    const int n = rng.UniformInt(1, 4);
    const Structure initial =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(0, 3 * n), rng);
    MaterializedViewOptions options;
    // Half the trials run the boundedness probe, so recursive programs it
    // certifies take the bounded-UCQ path; half skip it, so those run
    // delta-insert / DRed. Recursion-free programs count either way.
    options.max_bounded_stage = trial % 2 == 0 ? 2 : 0;
    std::vector<StructureDelta> stream;
    {
      // Deltas are drawn against the evolving state, so removals can hit
      // existing tuples and appended elements become insert candidates.
      Structure evolving = initial;
      const int steps = rng.UniformInt(1, 5);
      for (int k = 0; k < steps; ++k) {
        stream.push_back(RandomDelta(rng, evolving));
        evolving.Apply(stream.back());
      }
    }
    ASSERT_EQ(FirstDisagreement(program, initial, stream, options), -1)
        << FailureReport(seed, trial, program, initial, stream, options);
  }
}

TEST(IncrementalDatalog, TenSeedSweepStaysBitIdentical) {
  // The acceptance sweep: ten derived seeds, each replaying a stream
  // against every strategy family the planner can choose, requiring the
  // maintained base to stay fingerprint-identical to the sequential
  // Structure::Apply and the IDB to match the refixpoint at every step.
  const uint64_t base_seed = TestSeed() ^ 0x9E3779B97F4A7C15ULL;
  for (int s = 0; s < 10; ++s) {
    Rng rng(base_seed + static_cast<uint64_t>(s));
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/s % 3 == 0);
    const int n = rng.UniformInt(2, 4);
    const Structure initial =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(n, 3 * n), rng);
    MaterializedViewOptions options;
    // As above: the probe decides bounded-UCQ vs delta-insert / DRed for
    // recursive programs; recursion-free ones count either way.
    options.max_bounded_stage = s % 2 == 0 ? 2 : 0;
    std::vector<StructureDelta> stream;
    Structure evolving = initial;
    for (int k = 0; k < 4; ++k) {
      stream.push_back(RandomDelta(rng, evolving));
      evolving.Apply(stream.back());
    }
    ASSERT_EQ(FirstDisagreement(program, initial, stream, options), -1)
        << FailureReport(base_seed + static_cast<uint64_t>(s), s, program,
                         initial, stream, options);
  }
}

TEST(IncrementalDatalog, PlannerChoosesTheExpectedStrategies) {
  // Transitive closure: recursive, unbounded. Insert-only deltas run
  // delta-insert; any removal runs DRed.
  const DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Vocabulary evoc;
  evoc.AddRelation("E", 2);
  Structure chain(evoc, 5);
  for (int i = 0; i + 1 < 5; ++i) chain.AddTuple(0, {i, i + 1});

  MaterializedView view(tc, chain);
  EXPECT_TRUE(view.Recursive());
  EXPECT_FALSE(view.Bounded());

  StructureDelta insert;
  insert.InsertTuple(0, {4, 0});
  ViewMaintenanceStats stats = view.Apply(insert);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kDeltaInsert);
  EXPECT_FALSE(stats.recomputed);
  EXPECT_GT(stats.idb_inserted, 0);

  StructureDelta remove;
  remove.RemoveTuple(0, {4, 0});
  stats = view.Apply(remove);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kDRed);
  EXPECT_FALSE(stats.recomputed);
  EXPECT_GT(stats.idb_removed, 0);

  StructureDelta noop;
  noop.InsertTuple(0, {0, 1});  // already present
  stats = view.Apply(noop);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kNoOp);
  EXPECT_EQ(stats.base.noop_ops, 1);

  // Cancelling ops net to nothing.
  StructureDelta cancel;
  cancel.InsertTuple(0, {2, 0}).RemoveTuple(0, {2, 0});
  stats = view.Apply(cancel);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kNoOp);

  // The maintained fixpoint survived the ladder.
  EXPECT_EQ(view.Idb(), EvaluateSemiNaive(tc, view.Base()).idb);

  // Two-step reachability: non-recursive and bounded (stage witness
  // within the default cap). The certificate is still reported, but a
  // non-recursive program maintains by counting: a few joins per delta
  // tuple instead of re-evaluating the whole stage UCQ.
  const DatalogProgram two_step = DatalogProgram::TwoStepReachability();
  MaterializedView counting_view(two_step, chain);
  EXPECT_FALSE(counting_view.Recursive());
  EXPECT_TRUE(counting_view.Bounded());
  StructureDelta mixed;
  mixed.InsertTuple(0, {4, 2}).RemoveTuple(0, {0, 1});
  stats = counting_view.Apply(mixed);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kCounting);
  EXPECT_TRUE(stats.plan.traits.bounded);
  EXPECT_EQ(counting_view.Idb(),
            EvaluateSemiNaive(two_step, counting_view.Base()).idb);

  // Probe disabled: no certificate, and the plan for the same
  // non-recursive program does not change.
  MaterializedViewOptions no_probe;
  no_probe.max_bounded_stage = 0;
  MaterializedView unprobed_view(two_step, chain, no_probe);
  EXPECT_FALSE(unprobed_view.Bounded());
  StructureDelta mixed2;
  mixed2.InsertTuple(0, {3, 0}).RemoveTuple(0, {1, 2});
  stats = unprobed_view.Apply(mixed2);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kCounting);
  EXPECT_EQ(unprobed_view.Idb(),
            EvaluateSemiNaive(two_step, unprobed_view.Base()).idb);

  // Forced baseline: always from-scratch, always recomputed.
  MaterializedViewOptions baseline;
  baseline.force_from_scratch = true;
  MaterializedView forced(tc, chain, baseline);
  StructureDelta edit;
  edit.InsertTuple(0, {2, 4});
  stats = forced.Apply(edit);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kFromScratch);
  EXPECT_TRUE(stats.recomputed);
  EXPECT_EQ(forced.Idb(), EvaluateSemiNaive(tc, forced.Base()).idb);
}

TEST(IncrementalDatalog, BoundedShortCircuitTracksMixedStreams) {
  // A bounded *recursive* program: Q(x) <- U(x); Q(x) <- Q(x), E(x,y).
  // The second rule derives nothing new, so Theta^1 ≡ Theta^2 and the
  // planner certifies it despite the recursion.
  std::vector<DatalogRule> rules;
  rules.push_back(DatalogRule{{"Q", {"x"}}, {{"U", {"x"}}}});
  rules.push_back(DatalogRule{{"Q", {"x"}}, {{"Q", {"x"}}, {"E", {"x", "y"}}}});
  const DatalogProgram program(EdbVocabulary(), std::move(rules));

  const uint64_t seed = TestSeed() ^ 0xBF58476D1CE4E5B9ULL;
  Rng rng(seed);
  const Structure initial = RandomStructure(EdbVocabulary(), 4, 8, rng);
  MaterializedView view(program, initial);
  EXPECT_TRUE(view.Recursive());
  ASSERT_TRUE(view.Bounded());
  Structure scratch = initial;
  for (int k = 0; k < 8; ++k) {
    const StructureDelta delta = RandomDelta(rng, scratch);
    const ViewMaintenanceStats stats = view.Apply(delta);
    scratch.Apply(delta);
    if (stats.plan.traits.inserted > 0 || stats.plan.traits.removed > 0) {
      ASSERT_EQ(stats.plan.strategy, MaintainStrategy::kBoundedUcq);
    }
    ASSERT_EQ(view.Idb(), EvaluateSemiNaive(program, scratch).idb)
        << "step " << k << " (seed " << seed << ")";
  }
}

TEST(IncrementalDatalog, AppendOnlyDeltasAreNoOps) {
  const DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Vocabulary evoc;
  evoc.AddRelation("E", 2);
  Structure s(evoc, 3);
  s.AddTuple(0, {0, 1});
  s.AddTuple(0, {1, 2});
  MaterializedView view(tc, s);
  const IdbInterpretation before = view.Idb();
  StructureDelta delta;
  delta.AppendElements(3);
  const ViewMaintenanceStats stats = view.Apply(delta);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kNoOp);
  EXPECT_EQ(stats.base.elements_appended, 3);
  EXPECT_EQ(stats.derivations, 0);
  EXPECT_EQ(view.Idb(), before);
  EXPECT_EQ(view.Base().UniverseSize(), 6);
  EXPECT_EQ(view.Idb(), EvaluateSemiNaive(tc, view.Base()).idb);
}

TEST(IncrementalDatalog, MaintenancePlanRendersStably) {
  MaintenanceTraits traits;
  traits.recursive = true;
  traits.inserted = 2;
  traits.removed = 1;
  const MaintenancePlan plan = PlanMaintenance(traits);
  EXPECT_EQ(plan.strategy, MaintainStrategy::kDRed);
  EXPECT_EQ(plan.Summary(),
            "maintain=dred recursive=1 bounded=0 ins=2 rem=1 appends=0");
  plan.degradations.push_back(
      DegradationEvent{DegradationKind::kMaintainToFromScratch,
                       "view/maintain", "injected"});
  EXPECT_EQ(plan.Summary(),
            "maintain=dred recursive=1 bounded=0 ins=2 rem=1 appends=0"
            " degraded=maintain-to-scratch");
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("strategy: dred"), std::string::npos);
  EXPECT_NE(explain.find("maintain-to-scratch (view/maintain): injected"),
            std::string::npos);
}

}  // namespace
}  // namespace hompres
