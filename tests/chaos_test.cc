// Chaos harness: reruns engine queries under injected faults and checks
// the degradation contract of DESIGN.md §4.6 — no crash, no leak, and
// for every answer-preserving failpoint the answer is bit-identical to
// the fault-free run with the fallback recorded as a DegradationEvent.
// Hard faults (kernel allocation failure) must surface as a structured
// budget stop, never as a crash.
//
// The random-schedule section draws its schedules from a fixed seed;
// HOMPRES_CHAOS_SEED overrides it, which the CI chaos job uses to sweep
// fresh seeds under ASan.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/failpoint.h"
#include "base/parse_error.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "containment_test_util.h"
#include "core/classes.h"
#include "core/preservation.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "datalog/eval.h"
#include "datalog/incremental.h"
#include "datalog/parser.h"
#include "engine/config.h"
#include "engine/maintain.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "fo/parser.h"
#include "hom/hom_cache.h"
#include "hom/homomorphism.h"
#include "hom_test_util.h"
#include "opt/optimizer.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "structure/delta.h"
#include "structure/generators.h"
#include "structure/parser.h"
#include "structure/relation_index.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

constexpr uint64_t kDefaultChaosSeed = 20260807;

uint64_t ChaosSeed() {
  const char* env = std::getenv("HOMPRES_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return kDefaultChaosSeed;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == nullptr || *end != '\0') {
    ADD_FAILURE() << "HOMPRES_CHAOS_SEED is not a number: " << env;
    return kDefaultChaosSeed;
  }
  return static_cast<uint64_t>(value);
}

Vocabulary GraphVoc() {
  Vocabulary voc;
  voc.AddRelation("E", 2);
  return voc;
}

// Two disjoint edges: two Gaifman components (exercises factorization).
Structure TwoEdges() {
  Structure a(GraphVoc(), 4);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {2, 3});
  return a;
}

// Triangle with both directions: 6 E-tuples, so TwoEdges has 6*6 = 36
// homomorphisms into it.
Structure Triangle() {
  Structure b(GraphVoc(), 3);
  b.AddTuple(0, {0, 1});
  b.AddTuple(0, {1, 2});
  b.AddTuple(0, {2, 0});
  b.AddTuple(0, {1, 0});
  b.AddTuple(0, {2, 1});
  b.AddTuple(0, {0, 2});
  return b;
}

constexpr uint64_t kTwoEdgesToTriangleCount = 36;

// Independent witness oracle (not VerifyHomomorphism, which the engines
// use internally).
bool CheckIsHomomorphism(const Structure& a, const Structure& b,
                         const std::vector<int>& h) {
  if (static_cast<int>(h.size()) != a.UniverseSize()) return false;
  for (int image : h) {
    if (image < 0 || image >= b.UniverseSize()) return false;
  }
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : a.Tuples(rel)) {
      Tuple image(t.size());
      for (size_t i = 0; i < t.size(); ++i) {
        image[i] = h[static_cast<size_t>(t[i])];
      }
      if (!b.HasTuple(rel, image)) return false;
    }
  }
  return true;
}

// The full-ladder configuration: every degradation rung is reachable.
EngineConfig LadderConfig() {
  EngineConfig config;
  config.num_threads = 2;
  config.factorize = true;
  config.use_cache = true;
  return config;
}

PlanResult PlanCount(const Structure& a, const Structure& b,
                     const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kCount;
  return PlanHomQuery(problem, config);
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    GlobalHomCache().Clear();
    GlobalContainmentCache().Clear();
  }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

// --- Every ladder rung, one armed failpoint at a time. ---

struct LadderSite {
  const char* failpoint;
  DegradationKind kind;
};

TEST_F(ChaosTest, EachLadderSiteDegradesGracefullyWithIdenticalAnswer) {
  const LadderSite ladder[] = {
      {"relation_index/build", DegradationKind::kIndexToScan},
      {"thread_pool/spawn", DegradationKind::kParallelToSerial},
      {"engine/factorize", DegradationKind::kFactorizedToMonolithic},
      {"hom/workspace_alloc", DegradationKind::kAcToNaive},
      {"hom_cache/lookup", DegradationKind::kCacheLookupToMiss},
      {"hom_cache/shard_insert", DegradationKind::kCacheInsertSkipped},
  };
  auto& registry = FailpointRegistry::Global();
  for (const LadderSite& site : ladder) {
    SCOPED_TRACE(site.failpoint);
    // Fresh structures every iteration: the lazily built (and cached)
    // RelationIndex must be rebuilt so relation_index/build is probed.
    const Structure a = TwoEdges();
    const Structure b = Triangle();
    GlobalHomCache().Clear();
    ASSERT_TRUE(registry.Arm(site.failpoint, "once"));

    ExecutionTrace trace;
    const PlanResult planned = PlanCount(a, b, LadderConfig());
    ASSERT_TRUE(planned.plan.has_value());
    Budget budget = Budget::Unlimited();
    auto outcome = Engine::Execute(*planned.plan, budget, &trace);

    ASSERT_TRUE(outcome.IsDone());
    EXPECT_EQ(outcome.Value().count, kTwoEdgesToTriangleCount)
        << "degraded run changed the answer";
    EXPECT_GT(registry.FireCount(site.failpoint), 0u)
        << "armed site was never reached";
    registry.Disarm(site.failpoint);  // drops the point's counters
    const auto matches = [&](const DegradationEvent& e) {
      return e.kind == site.kind;
    };
    EXPECT_TRUE(std::any_of(trace.degradations.begin(),
                            trace.degradations.end(), matches))
        << "fired fault produced no DegradationEvent";
    EXPECT_NE(planned.plan->Explain().find(site.failpoint),
              std::string::npos)
        << "Explain() does not surface the degradation site";
    EXPECT_NE(planned.plan->Summary().find("degraded="),
              std::string::npos);
  }

  // Sanity: disarmed reruns are clean — right answer, no degradations.
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  GlobalHomCache().Clear();
  ExecutionTrace trace;
  const PlanResult planned = PlanCount(a, b, LadderConfig());
  ASSERT_TRUE(planned.plan.has_value());
  Budget budget = Budget::Unlimited();
  auto outcome = Engine::Execute(*planned.plan, budget, &trace);
  ASSERT_TRUE(outcome.IsDone());
  EXPECT_EQ(outcome.Value().count, kTwoEdgesToTriangleCount);
  EXPECT_TRUE(trace.degradations.empty());
  EXPECT_EQ(planned.plan->Summary().find("degraded="), std::string::npos);
}

TEST_F(ChaosTest, HardAllocationFaultIsAStructuredMemoryStop) {
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Arm("hom/workspace_alloc_hard", "always"));
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  EngineConfig config;  // serial, uncached: straight into the kernel
  config.use_cache = false;
  const PlanResult planned = PlanCount(a, b, config);
  ASSERT_TRUE(planned.plan.has_value());
  Budget budget = Budget::Unlimited();
  auto outcome = Engine::Execute(*planned.plan, budget);
  EXPECT_FALSE(outcome.IsDone());
  EXPECT_EQ(outcome.Report().reason, StopReason::kMemory);
}

// --- Random schedules over the answer-preserving sites. ---

TEST_F(ChaosTest, RandomSchedulesNeverChangeAnswers) {
  const char* kSites[] = {
      "relation_index/build",  "thread_pool/spawn",
      "engine/factorize",      "hom/workspace_alloc",
      "hom_cache/lookup",      "hom_cache/shard_insert",
  };
  const char* kSpecs[] = {"once", "always", "every:2", "every:3",
                          "prob:0.5"};
  const uint64_t seed = ChaosSeed();
  auto& registry = FailpointRegistry::Global();
  Rng rng(seed);
  const Vocabulary voc = GraphVoc();

  constexpr int kTrials = 25;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial));
    const int na = 2 + static_cast<int>(rng.Next() % 4);
    const int nb = 2 + static_cast<int>(rng.Next() % 4);
    const int ta = 2 + static_cast<int>(rng.Next() % 6);
    const int tb = 2 + static_cast<int>(rng.Next() % 8);
    const Structure a = RandomStructure(voc, na, ta, rng);
    const Structure b = RandomStructure(voc, nb, tb, rng);

    // Fault-free reference answer.
    registry.DisarmAll();
    GlobalHomCache().Clear();
    ExecutionTrace clean_trace;
    const PlanResult clean_plan = PlanCount(a, b, LadderConfig());
    ASSERT_TRUE(clean_plan.plan.has_value());
    Budget clean_budget = Budget::Unlimited();
    auto clean = Engine::Execute(*clean_plan.plan, clean_budget,
                                 &clean_trace);
    ASSERT_TRUE(clean.IsDone());
    ASSERT_TRUE(clean_trace.degradations.empty());

    // Arm a random schedule over 1-3 sites and rerun on fresh copies
    // (fresh = the index rebuild and cache rungs stay reachable).
    const Structure a2 = a;
    const Structure b2 = b;
    GlobalHomCache().Clear();
    registry.SetSeed(seed ^ static_cast<uint64_t>(trial));
    const int num_armed = 1 + static_cast<int>(rng.Next() % 3);
    for (int k = 0; k < num_armed; ++k) {
      const char* site = kSites[rng.Next() % (sizeof(kSites) /
                                              sizeof(kSites[0]))];
      const char* spec = kSpecs[rng.Next() % (sizeof(kSpecs) /
                                              sizeof(kSpecs[0]))];
      ASSERT_TRUE(registry.Arm(site, spec));
    }

    ExecutionTrace chaos_trace;
    const PlanResult chaos_plan = PlanCount(a2, b2, LadderConfig());
    ASSERT_TRUE(chaos_plan.plan.has_value());
    Budget chaos_budget = Budget::Unlimited();
    auto chaotic = Engine::Execute(*chaos_plan.plan, chaos_budget,
                                   &chaos_trace);
    ASSERT_TRUE(chaotic.IsDone())
        << "answer-preserving faults must not exhaust the budget";
    EXPECT_EQ(chaotic.Value().count, clean.Value().count);

    // Witness mode under the same schedule: existence matches the
    // fault-free count and any witness passes the independent oracle.
    HomProblem find;
    find.source = &a2;
    find.target = &b2;
    find.mode = HomQueryMode::kFind;
    EngineConfig config = LadderConfig();
    config.use_cache = false;  // find is uncacheable
    config.deterministic_witness = true;
    const PlanResult planned = PlanHomQuery(find, config);
    ASSERT_TRUE(planned.plan.has_value());
    Budget budget = Budget::Unlimited();
    auto found = Engine::Execute(*planned.plan, budget);
    ASSERT_TRUE(found.IsDone());
    EXPECT_EQ(found.Value().witness.has_value(), clean.Value().count > 0);
    if (found.Value().witness.has_value()) {
      EXPECT_TRUE(CheckIsHomomorphism(a2, b2, *found.Value().witness));
    }
    registry.DisarmAll();
  }
}

// --- Optimizer failpoints: faults weaken pruning, never the answer. ---

// Boolean cycle query C_k: E(x0,x1) & ... & E(x{k-1},x0).
ConjunctiveQuery CycleQuery(int length) {
  Structure s(GraphVoc(), length);
  for (int i = 0; i < length; ++i) {
    s.AddTuple(0, {i, (i + 1) % length});
  }
  return ConjunctiveQuery::BooleanQueryOf(std::move(s));
}

// Boolean two-edge path Ex0 Ex1 Ex2 (E(x0,x1) & E(x1,x2)).
ConjunctiveQuery Path2Query() {
  Structure s(GraphVoc(), 3);
  s.AddTuple(0, {0, 1});
  s.AddTuple(0, {1, 2});
  return ConjunctiveQuery::BooleanQueryOf(std::move(s));
}

// Redundant by construction: C3 and C4 each admit a hom from the path
// structure, so both are subsumed by the path disjunct, and the reversed
// 3-cycle is an isomorphic respelling of C3 the fingerprint pass drops
// before any containment probe runs. Fault-free optimum: {path2} alone.
UnionOfCq RedundantPathCycleUnion() {
  Structure reversed(GraphVoc(), 3);
  reversed.AddTuple(0, {0, 2});
  reversed.AddTuple(0, {2, 1});
  reversed.AddTuple(0, {1, 0});
  return UnionOfCq({Path2Query(), CycleQuery(3),
                    ConjunctiveQuery::BooleanQueryOf(std::move(reversed)),
                    CycleQuery(4)},
                   0);
}

// Chain 0 -> 1 -> 2: satisfies path2 but no cycle query. If a faulted
// pass ever wrongly dropped the path disjunct, the answer here flips.
Structure Chain3() {
  Structure s(GraphVoc(), 3);
  s.AddTuple(0, {0, 1});
  s.AddTuple(0, {1, 2});
  return s;
}

TEST_F(ChaosTest, OptimizerFaultsNeverChangeUcqAnswers) {
  const LadderSite kOptimizerSites[] = {
      {"opt/contain", DegradationKind::kMinimizeToUnminimized},
      {"containment_cache/lookup", DegradationKind::kCacheLookupToMiss},
      {"containment_cache/insert", DegradationKind::kCacheInsertSkipped},
  };
  const char* kSpecs[] = {"once", "always", "every:2", "prob:0.5"};

  const UnionOfCq redundant = RedundantPathCycleUnion();
  const Structure chain = Chain3();
  const Structure two_edges = TwoEdges();
  const Structure triangle = Triangle();

  // Fault-free reference: the union collapses to the path query alone.
  OptimizerStats clean_stats;
  const UnionOfCq clean = Optimized(redundant, {}, &clean_stats);
  ASSERT_TRUE(clean_stats.degradations.empty());
  ASSERT_EQ(clean.Disjuncts().size(), 1u);
  ASSERT_TRUE(clean.SatisfiedBy(chain));
  ASSERT_FALSE(clean.SatisfiedBy(two_edges));
  ASSERT_TRUE(clean.SatisfiedBy(triangle));

  auto& registry = FailpointRegistry::Global();
  for (const LadderSite& site : kOptimizerSites) {
    for (const char* spec : kSpecs) {
      SCOPED_TRACE(std::string(site.failpoint) + " " + spec);
      // Cold verdict cache each round so lookup/insert stay reachable.
      GlobalContainmentCache().Clear();
      registry.SetSeed(ChaosSeed());
      ASSERT_TRUE(registry.Arm(site.failpoint, spec));

      OptimizerStats stats;
      const UnionOfCq faulted = Optimized(redundant, {}, &stats);
      const uint64_t fired = registry.FireCount(site.failpoint);
      registry.Disarm(site.failpoint);

      // The contract: a fault may only weaken pruning. The result stays
      // equivalent to the input, never grows, and answers bit-identical.
      EXPECT_LE(faulted.Disjuncts().size(), redundant.Disjuncts().size());
      EXPECT_TRUE(faulted.SatisfiedBy(chain));
      EXPECT_FALSE(faulted.SatisfiedBy(two_edges));
      EXPECT_TRUE(faulted.SatisfiedBy(triangle));
      EXPECT_TRUE(IsEquivalent(faulted, redundant));

      // Every fired fault is visible as a matching DegradationEvent.
      if (fired > 0) {
        const auto matches = [&](const DegradationEvent& e) {
          return e.kind == site.kind && e.site == site.failpoint;
        };
        EXPECT_TRUE(std::any_of(stats.degradations.begin(),
                                stats.degradations.end(), matches))
            << "fired optimizer fault produced no DegradationEvent";
      } else {
        EXPECT_TRUE(stats.degradations.empty());
      }
    }
  }

  // A probe degraded by opt/contain must keep the candidate disjunct:
  // with every probe faulted, nothing is pruned by subsumption, so the
  // three pairwise-inequivalent survivors of the fingerprint/minimize
  // stages (path2, C3, C4) all remain.
  GlobalContainmentCache().Clear();
  ASSERT_TRUE(registry.Arm("opt/contain", "always"));
  OptimizerStats unpruned_stats;
  const UnionOfCq unpruned = Optimized(redundant, {}, &unpruned_stats);
  registry.Disarm("opt/contain");
  EXPECT_EQ(unpruned.Disjuncts().size(), 3u);
  EXPECT_EQ(unpruned_stats.containment_tests, 0u);
  EXPECT_TRUE(IsEquivalent(unpruned, clean));

  // Disarmed rerun on a cold cache is clean again.
  GlobalContainmentCache().Clear();
  OptimizerStats rerun_stats;
  const UnionOfCq rerun = Optimized(redundant, {}, &rerun_stats);
  EXPECT_EQ(rerun.Disjuncts().size(), 1u);
  EXPECT_TRUE(rerun_stats.degradations.empty());
}

// Random schedules over the optimizer sites: every trial draws a random
// redundant union (random base CQs plus cycle/path disjuncts known to
// interact), arms 1-3 random optimizer failpoints, and checks the
// optimized union answers exactly as the fault-free optimum on a panel
// of random structures.
TEST_F(ChaosTest, RandomOptimizerSchedulesNeverChangeUcqAnswers) {
  const char* kSites[] = {"opt/contain", "containment_cache/lookup",
                          "containment_cache/insert"};
  const char* kSpecs[] = {"once", "always", "every:2", "every:3",
                          "prob:0.5"};
  const uint64_t seed = ChaosSeed();
  auto& registry = FailpointRegistry::Global();
  Rng rng(seed ^ 0x09717u);  // decorrelate from the engine-site sweep
  const Vocabulary voc = GraphVoc();

  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial));
    // A union with guaranteed redundancy: two random boolean CQs, the
    // path/cycle family, and a duplicate of one random disjunct.
    std::vector<ConjunctiveQuery> disjuncts;
    for (int i = 0; i < 2; ++i) {
      const int n = 2 + static_cast<int>(rng.Next() % 3);
      const int t = 1 + static_cast<int>(rng.Next() % 4);
      disjuncts.push_back(
          ConjunctiveQuery::BooleanQueryOf(RandomStructure(voc, n, t, rng)));
    }
    disjuncts.push_back(disjuncts[rng.Next() % 2]);
    disjuncts.push_back(Path2Query());
    disjuncts.push_back(CycleQuery(3));
    disjuncts.push_back(CycleQuery(4));
    const UnionOfCq redundant(std::move(disjuncts), 0);

    std::vector<Structure> panel;
    for (int i = 0; i < 4; ++i) {
      const int n = 2 + static_cast<int>(rng.Next() % 4);
      const int t = 1 + static_cast<int>(rng.Next() % 6);
      panel.push_back(RandomStructure(voc, n, t, rng));
    }

    registry.DisarmAll();
    GlobalContainmentCache().Clear();
    OptimizerStats clean_stats;
    const UnionOfCq clean = Optimized(redundant, {}, &clean_stats);
    ASSERT_TRUE(clean_stats.degradations.empty());
    std::vector<bool> clean_answers;
    for (const Structure& b : panel) {
      clean_answers.push_back(clean.SatisfiedBy(b));
    }

    GlobalContainmentCache().Clear();
    registry.SetSeed(seed ^ static_cast<uint64_t>(trial));
    const int num_armed = 1 + static_cast<int>(rng.Next() % 3);
    for (int k = 0; k < num_armed; ++k) {
      const char* site = kSites[rng.Next() % (sizeof(kSites) /
                                              sizeof(kSites[0]))];
      const char* spec = kSpecs[rng.Next() % (sizeof(kSpecs) /
                                              sizeof(kSpecs[0]))];
      ASSERT_TRUE(registry.Arm(site, spec));
    }

    const UnionOfCq faulted = Optimized(redundant, {});
    registry.DisarmAll();

    EXPECT_LE(faulted.Disjuncts().size(), redundant.Disjuncts().size());
    for (size_t i = 0; i < panel.size(); ++i) {
      EXPECT_EQ(faulted.SatisfiedBy(panel[i]), clean_answers[i])
          << "structure " << i << " answer changed under optimizer faults";
    }
    EXPECT_TRUE(IsEquivalent(faulted, clean));
  }
}

// --- Parser failpoints: injected I/O faults become ParseErrors. ---

TEST_F(ChaosTest, ParserFaultsSurfaceAsParseErrors) {
  auto& registry = FailpointRegistry::Global();
  const Vocabulary voc = GraphVoc();

  ASSERT_TRUE(registry.Arm("parser/structure_io", "once"));
  ParseError error;
  auto s = ParseStructure("|A|=2; E={(0 1)}", voc, &error);
  EXPECT_FALSE(s.has_value());
  EXPECT_NE(error.message.find("injected I/O fault"), std::string::npos);
  // The failpoint fired once; the same text now parses.
  s = ParseStructure("|A|=2; E={(0 1)}", voc, &error);
  EXPECT_TRUE(s.has_value());

  ASSERT_TRUE(registry.Arm("parser/datalog_io", "once"));
  auto program = ParseDatalogProgram("T(x,y) :- E(x,y).", voc, &error);
  EXPECT_FALSE(program.has_value());
  EXPECT_NE(error.message.find("injected I/O fault"), std::string::npos);

  ASSERT_TRUE(registry.Arm("parser/formula_io", "once"));
  auto formula = ParseFormula("exists x E(x,x)", &error);
  EXPECT_FALSE(formula.has_value());
  EXPECT_NE(error.message.find("injected I/O fault"), std::string::npos);
}

// --- Datalog: degraded rounds reach the identical fixpoint. ---

TEST_F(ChaosTest, DatalogDegradationsPreserveTheFixpoint) {
  auto& registry = FailpointRegistry::Global();
  const Vocabulary voc = GraphVoc();
  ParseError error;
  auto program = ParseDatalogProgram(
      "T(x,y) <- E(x,y). T(x,z) <- T(x,y), E(y,z).", voc, &error);
  ASSERT_TRUE(program.has_value()) << error.ToString();
  const Structure edb = DirectedCycleStructure(5);

  DatalogEvalOptions options;
  options.num_threads = 2;
  options.use_index = true;
  const DatalogResult clean = EvaluateSemiNaive(*program, edb, options);

  // Parallel-round loss degrades to serial rounds: identical fixpoint,
  // stage count, and derivation total.
  ASSERT_TRUE(registry.Arm("datalog/parallel_round", "once"));
  const DatalogResult serial_fallback =
      EvaluateSemiNaive(*program, edb, options);
  EXPECT_GT(registry.FireCount("datalog/parallel_round"), 0u);
  EXPECT_EQ(serial_fallback.idb, clean.idb);
  EXPECT_EQ(serial_fallback.stages, clean.stages);
  EXPECT_EQ(serial_fallback.derivations, clean.derivations);
  registry.Disarm("datalog/parallel_round");

  // Compile loss degrades to the interpretive scan engine: identical
  // fixpoint and stages (derivation counts legitimately differ).
  ASSERT_TRUE(registry.Arm("datalog/compile", "once"));
  const DatalogResult scan_fallback =
      EvaluateSemiNaive(*program, edb, options);
  EXPECT_GT(registry.FireCount("datalog/compile"), 0u);
  EXPECT_EQ(scan_fallback.idb, clean.idb);
  EXPECT_EQ(scan_fallback.stages, clean.stages);
}

// --- Incremental maintenance: faults cost a recompute, never the IDB. ---

// A "view/maintain" fault demotes whatever incremental strategy the
// planner chose (delta-insert, DRed, counting, bounded-UCQ) to a full
// from-scratch refixpoint. The contract: the maintained IDB still equals
// the from-scratch fixpoint over an identically mutated mirror, the plan
// keeps the strategy it chose, and the demotion is a recorded
// DegradationEvent surfaced by Summary()/Explain().
TEST_F(ChaosTest, ViewMaintainFaultDegradesToFromScratchRecompute) {
  auto& registry = FailpointRegistry::Global();
  const Vocabulary voc = GraphVoc();
  ParseError error;
  auto program = ParseDatalogProgram(
      "T(x,y) <- E(x,y). T(x,z) <- T(x,y), E(y,z).", voc, &error);
  ASSERT_TRUE(program.has_value()) << error.ToString();

  Structure base(voc, 5);
  for (int i = 0; i + 1 < 5; ++i) base.AddTuple(0, {i, i + 1});
  Structure mirror(base);
  MaterializedView view(*program, base);

  struct Drill {
    StructureDelta delta;
    MaintainStrategy planned;
  };
  std::vector<Drill> drills(3);
  drills[0].delta.InsertTuple(0, {4, 0});  // close the cycle
  drills[0].planned = MaintainStrategy::kDeltaInsert;
  drills[1].delta.RemoveTuple(0, {2, 3});  // cut it again
  drills[1].planned = MaintainStrategy::kDRed;
  drills[2].delta.AppendElements(1).InsertTuple(0, {3, 5}).RemoveTuple(
      0, {0, 1});
  drills[2].planned = MaintainStrategy::kDRed;

  for (size_t i = 0; i < drills.size(); ++i) {
    SCOPED_TRACE("drill " + std::to_string(i));
    ASSERT_TRUE(registry.Arm("view/maintain", "once"));
    const ViewMaintenanceStats stats = view.Apply(drills[i].delta);
    EXPECT_GT(registry.FireCount("view/maintain"), 0u);
    registry.Disarm("view/maintain");

    // The plan keeps its chosen strategy; execution recorded the demotion.
    EXPECT_EQ(stats.plan.strategy, drills[i].planned);
    EXPECT_TRUE(stats.recomputed);
    const auto demoted = [](const DegradationEvent& e) {
      return e.kind == DegradationKind::kMaintainToFromScratch;
    };
    EXPECT_TRUE(std::any_of(stats.plan.degradations.begin(),
                            stats.plan.degradations.end(), demoted));
    EXPECT_NE(stats.plan.Summary().find("degraded=maintain-to-scratch"),
              std::string::npos);
    EXPECT_NE(stats.plan.Explain().find("view/maintain"),
              std::string::npos);

    // Never a wrong IDB: still the from-scratch fixpoint of the mirror.
    mirror.Apply(drills[i].delta);
    EXPECT_EQ(view.Base().Fingerprint(), mirror.Fingerprint());
    EXPECT_EQ(view.Idb(), EvaluateSemiNaive(*program, mirror).idb);
  }

  // Fault-free replay of the same stream from the same start: identical
  // IDB, incremental strategies, no degradations.
  Structure replay_base(voc, 5);
  for (int i = 0; i + 1 < 5; ++i) replay_base.AddTuple(0, {i, i + 1});
  MaterializedView clean(*program, replay_base);
  for (const Drill& drill : drills) {
    const ViewMaintenanceStats stats = clean.Apply(drill.delta);
    EXPECT_FALSE(stats.recomputed);
    EXPECT_TRUE(stats.plan.degradations.empty());
  }
  EXPECT_EQ(clean.Idb(), view.Idb());
}

// A "delta/apply" fault inside the base application drops the cached
// RelationIndex (blanket invalidation, lazy rebuild) but never the
// value: tuples, fingerprint, and any maintained view IDB are identical
// to the fault-free run.
TEST_F(ChaosTest, DeltaApplyFaultInvalidatesTheIndexNeverTheValue) {
  auto& registry = FailpointRegistry::Global();
  const Vocabulary voc = GraphVoc();

  // Plain structure drill: index built, fault on apply.
  Structure faulted = DirectedCycleStructure(6);
  Structure mirror(faulted);
  ASSERT_NE(faulted.TryIndex(), nullptr);  // build the cache to poison
  StructureDelta delta;
  delta.InsertTuple(0, {0, 3}).RemoveTuple(0, {1, 2});
  ASSERT_TRUE(registry.Arm("delta/apply", "once"));
  const DeltaApplyResult applied = faulted.Apply(delta);
  EXPECT_GT(registry.FireCount("delta/apply"), 0u);
  registry.Disarm("delta/apply");
  EXPECT_TRUE(applied.index_degraded);
  EXPECT_FALSE(applied.index_maintained);
  mirror.Apply(delta);
  EXPECT_EQ(faulted.Fingerprint(), mirror.Fingerprint());
  for (int rel = 0; rel < voc.NumRelations(); ++rel) {
    EXPECT_EQ(faulted.Tuples(rel), mirror.Tuples(rel));
  }
  // The dropped index lazily rebuilds and serves the new value.
  const RelationIndex* rebuilt = faulted.TryIndex();
  ASSERT_NE(rebuilt, nullptr);

  // Through a view: the fault is recorded as kIndexDeltaToRebuild and
  // the maintained IDB still matches from-scratch.
  ParseError error;
  auto program = ParseDatalogProgram(
      "T(x,y) <- E(x,y). T(x,z) <- T(x,y), E(y,z).", voc, &error);
  ASSERT_TRUE(program.has_value()) << error.ToString();
  Structure view_mirror = DirectedCycleStructure(6);
  MaterializedView view(*program, DirectedCycleStructure(6));
  view.Base().Fingerprint();  // prime the cache so the failpoint probes
  ASSERT_TRUE(registry.Arm("delta/apply", "always"));
  const ViewMaintenanceStats stats = view.Apply(delta);
  registry.Disarm("delta/apply");
  EXPECT_TRUE(stats.base.index_degraded);
  const auto dropped = [](const DegradationEvent& e) {
    return e.kind == DegradationKind::kIndexDeltaToRebuild;
  };
  EXPECT_TRUE(std::any_of(stats.plan.degradations.begin(),
                          stats.plan.degradations.end(), dropped));
  EXPECT_NE(stats.plan.Summary().find("index-delta-to-rebuild"),
            std::string::npos);
  view_mirror.Apply(delta);
  EXPECT_EQ(view.Idb(), EvaluateSemiNaive(*program, view_mirror).idb);
}

// --- Thread-pool and task faults are contained, never terminate. ---

TEST_F(ChaosTest, ThrowingParallelTaskCancelsTheRegion) {
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Arm("parallel/task_throw", "always"));
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  EngineConfig options;
  options.num_threads = 2;
  options.factorize = false;  // one parallel split over the whole source
  Budget budget = Budget::Unlimited();
  auto outcome = Engine::Find(a, b, budget, options);
  // Every subtree task throws; the region cancels cleanly instead of
  // calling std::terminate, and the stop is structured.
  EXPECT_FALSE(outcome.IsDone());
  EXPECT_TRUE(outcome.IsCancelled());
}

TEST_F(ChaosTest, TotalSpawnFailureDegradesSubmitToInline) {
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Arm("thread_pool/spawn", "always"));
  ThreadPool pool(2);
  EXPECT_EQ(pool.NumWorkers(), 0);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Submit([&ran] { ran.fetch_add(1); });
  // Zero workers: Submit ran each task inline before returning.
  EXPECT_EQ(ran.load(), 2);
}

// Steal-drill: the thread_pool/steal failpoint makes every armed steal
// attempt behave like a lost Chase-Lev CAS race (the thief walks away
// empty-handed; the task stays where it is). Containment contract: no
// task is ever lost or run twice, WaitIdle still terminates, and nothing
// calls std::terminate — a worker that cannot steal simply falls back to
// the injection queue and its own deque.
TEST_F(ChaosTest, StealFaultsNeverLoseOrDuplicateTasks) {
  auto& registry = FailpointRegistry::Global();
  const uint64_t seed = ChaosSeed();
  const char* kSpecs[] = {"always", "prob:0.7", "every:2"};
  for (size_t s = 0; s < sizeof(kSpecs) / sizeof(kSpecs[0]); ++s) {
    SCOPED_TRACE(kSpecs[s]);
    registry.SetSeed(seed ^ s);
    ASSERT_TRUE(registry.Arm("thread_pool/steal", kSpecs[s]));
    ThreadPool pool(4);
    constexpr int kTasks = 4000;
    std::atomic<int> ran{0};
    std::vector<std::atomic<int>> per_task(kTasks);
    for (auto& c : per_task) c.store(0);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&pool, &ran, &per_task, i] {
        per_task[static_cast<size_t>(i)].fetch_add(1);
        ran.fetch_add(1);
        // Recursive submission lands in the submitting worker's own
        // deque, the path a poisoned steal leaves as the only consumer.
        if (i % 16 == 0) {
          pool.Submit([&ran] { ran.fetch_add(1); });
        }
      });
    }
    pool.WaitIdle();
    EXPECT_EQ(ran.load(), kTasks + kTasks / 16);
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(per_task[static_cast<size_t>(i)].load(), 1) << "task " << i;
    }
    registry.Disarm("thread_pool/steal");
  }
}

// The same drill through the engine: a parallel hom query under a
// poisoned steal path must return the exact fault-free answer (workers
// that cannot steal still drain the injection queue, so the subtree
// tasks all run).
TEST_F(ChaosTest, StealFaultsPreserveParallelAnswers) {
  auto& registry = FailpointRegistry::Global();
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  EngineConfig serial;
  const uint64_t expected = CountHoms(a, b, /*limit=*/0, serial);

  registry.SetSeed(ChaosSeed());
  ASSERT_TRUE(registry.Arm("thread_pool/steal", "always"));
  EngineConfig parallel;
  parallel.num_threads = 3;
  EXPECT_EQ(CountHoms(a, b, /*limit=*/0, parallel), expected);
  EXPECT_GT(registry.FireCount("thread_pool/steal"), 0u)
      << "the parallel run never reached a steal attempt";
}

// --- Retry layer: a lost attempt is recorded and escalation recovers. ---

TEST_F(ChaosTest, PreservationRetrySurvivesAnInjectedAttemptLoss) {
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Arm("preservation/attempt", "nth:1"));
  const Vocabulary voc = GraphVoc();
  const BooleanQuery q = [](const Structure& s) {
    for (const Tuple& t : s.Tuples(0)) {
      if (t[0] == t[1]) return true;
    }
    return false;
  };
  PreservationBudgetOptions options;
  options.initial_steps = 0;  // unlimited: only the injected loss stops it
  options.initial_timeout = std::chrono::nanoseconds(0);
  options.max_attempts = 3;
  const PreservationReport report = PreservationPipelineWithRetry(
      q, voc, AllStructuresClass(), /*search_universe=*/2,
      /*verify_universe=*/2, options);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts[0].completed);  // the injected loss
  EXPECT_EQ(report.attempts[0].report.reason, StopReason::kSteps);
  EXPECT_TRUE(report.attempts[1].completed);
  EXPECT_TRUE(report.result.verified);
}

// --- hompresd: daemon failpoints follow the §4.7 containment contract.
// A fault in accept drops only the new connection; a frame read/write
// fault tears down only that client; an admission fault rejects exactly
// one request with a structured error; a batch-build fault degrades the
// batch to per-request index builds without changing any answer or
// harming a batch-mate.

class ServerChaosTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    ServerOptions options;
    options.socket_path =
        "/tmp/hompres-chaos-" + std::to_string(::getpid()) + ".sock";
    options.num_workers = 1;  // deterministic batching
    server_ = std::make_unique<Server>(options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    // Disarm before Stop: teardown wakes readers through recv, which
    // would otherwise consume (or trip over) a still-armed schedule.
    FailpointRegistry::Global().DisarmAll();
    if (server_ != nullptr) server_->Stop();
    ChaosTest::TearDown();
  }

  Client Connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.Connect(server_->SocketPath(), &error)) << error;
    return client;
  }

  static JsonValue Ping(int64_t id) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(id));
    request.Set("op", JsonValue::String("ping"));
    return request;
  }

  // hom_has/hom_count over inline graph-vocabulary structure texts.
  static JsonValue HomRequest(int64_t id, const char* op,
                              const std::string& source,
                              const std::string& target) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(id));
    request.Set("op", JsonValue::String(op));
    request.Set("source", JsonValue::String(source));
    request.Set("target", JsonValue::String(target));
    return request;
  }

  static void ExpectPingOk(Client& client, int64_t id,
                           const char* context) {
    std::string error;
    auto response = client.Roundtrip(Ping(id), &error);
    ASSERT_TRUE(response.has_value()) << context << ": " << error;
    EXPECT_TRUE(response->Find("ok")->AsBool()) << context;
    EXPECT_EQ(response->Find("id")->AsInt64(),
              std::optional<int64_t>(id))
        << context;
  }

  static constexpr const char* kEdge = "|A|=2; E={(0 1)}";
  static constexpr const char* kTriangle = "|A|=3; E={(0 1),(1 2),(2 0)}";

  std::unique_ptr<Server> server_;
};

TEST_F(ServerChaosTest, AcceptFaultDropsOnlyTheNewConnection) {
  auto& registry = FailpointRegistry::Global();
  Client established = Connect();
  ExpectPingOk(established, 1, "before the fault");

  ASSERT_TRUE(registry.Arm("server/accept", "once"));
  Client doomed = Connect();  // connect() lands in the listen backlog
  // The server accepts and immediately drops the fd: the client sees
  // EOF (its send may also fail once the far end is gone).
  if (doomed.SendPayload(Ping(2).Serialize())) {
    std::string error;
    EXPECT_FALSE(doomed.ReadFrame(&error).has_value());
  }
  EXPECT_EQ(registry.FireCount("server/accept"), 1u);

  // The established connection never noticed, and ("once") the next
  // fresh connection is accepted normally.
  ExpectPingOk(established, 3, "established survives the accept fault");
  Client fresh = Connect();
  ExpectPingOk(fresh, 4, "post-fault connections are accepted");
  EXPECT_GE(server_->Metrics().connections_dropped, 1u);
}

TEST_F(ServerChaosTest, ReadFaultTearsDownOnlyThatClient) {
  auto& registry = FailpointRegistry::Global();
  Client victim = Connect();
  Client bystander = Connect();
  ExpectPingOk(victim, 1, "victim before the fault");
  ExpectPingOk(bystander, 2, "bystander before the fault");

  // Only the victim sends while armed, so only its reader's recv
  // returns and trips the injected read fault ("once" is then spent).
  ASSERT_TRUE(registry.Arm("server/frame_read", "once"));
  ASSERT_TRUE(victim.SendPayload(Ping(3).Serialize()));
  std::string error;
  EXPECT_FALSE(victim.ReadFrame(&error).has_value())
      << "read fault must tear the victim down, not answer it";
  EXPECT_EQ(registry.FireCount("server/frame_read"), 1u);

  ExpectPingOk(bystander, 4, "bystander survives the read fault");
  EXPECT_GE(server_->Metrics().connections_dropped, 1u);
}

TEST_F(ServerChaosTest, WriteFaultTearsDownOnlyThatClient) {
  auto& registry = FailpointRegistry::Global();
  Client victim = Connect();
  Client bystander = Connect();
  ExpectPingOk(victim, 1, "victim before the fault");
  ExpectPingOk(bystander, 2, "bystander before the fault");

  // The fault fires on the victim's response write: the response is
  // lost and the connection dropped, exactly like a dead socket.
  ASSERT_TRUE(registry.Arm("server/frame_write", "once"));
  ASSERT_TRUE(victim.SendPayload(Ping(3).Serialize()));
  std::string error;
  EXPECT_FALSE(victim.ReadFrame(&error).has_value());
  EXPECT_EQ(registry.FireCount("server/frame_write"), 1u);

  ExpectPingOk(bystander, 4, "bystander survives the write fault");
  EXPECT_GE(server_->Metrics().connections_dropped, 1u);
}

TEST_F(ServerChaosTest, AdmitFaultRejectsExactlyOneRequestStructurally) {
  auto& registry = FailpointRegistry::Global();
  Client client = Connect();

  ASSERT_TRUE(registry.Arm("server/admit", "once"));
  auto rejected = client.Roundtrip(HomRequest(1, "hom_has", kEdge,
                                              kTriangle));
  ASSERT_TRUE(rejected.has_value())
      << "an admission fault is an error response, not a teardown";
  EXPECT_FALSE(rejected->Find("ok")->AsBool());
  EXPECT_EQ(rejected->Find("id")->AsInt64(), std::optional<int64_t>(1));
  const JsonValue* error = rejected->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->AsString(), "admission/rejected");
  EXPECT_EQ(registry.FireCount("server/admit"), 1u);

  // Same connection, next request: admitted and answered.
  auto answered = client.Roundtrip(HomRequest(2, "hom_has", kEdge,
                                              kTriangle));
  ASSERT_TRUE(answered.has_value());
  EXPECT_TRUE(answered->Find("ok")->AsBool());
  EXPECT_TRUE(answered->Find("has")->AsBool());
  EXPECT_EQ(server_->Metrics().requests_rejected, 1u);
}

TEST_F(ServerChaosTest, BatchBuildFaultDegradesWithoutPoisoningTheBatch) {
  auto& registry = FailpointRegistry::Global();
  Client client = Connect();

  // Register the shared target so every queued request batches on its
  // fingerprint.
  JsonValue define = JsonValue::Object();
  define.Set("id", JsonValue::Int(1));
  define.Set("op", JsonValue::String("define"));
  define.Set("name", JsonValue::String("t"));
  define.Set("structure", JsonValue::String(kTriangle));
  auto defined = client.Roundtrip(define);
  ASSERT_TRUE(defined.has_value() && defined->Find("ok")->AsBool());

  // Every multi-request batch loses its shared index build.
  ASSERT_TRUE(registry.Arm("server/batch_build", "always"));

  // A heavier count holds the single worker while the pipeline queues
  // up behind it into real batches.
  const std::string heavy_source =
      "|A|=7; E={(0 1),(1 2),(2 3),(3 4),(4 5),(5 6),(6 0),(0 3),(2 5)}";
  constexpr int kPipelined = 16;
  ASSERT_TRUE(client.SendPayload(
      HomRequest(100, "hom_count", heavy_source, "@t").Serialize()));
  for (int i = 1; i <= kPipelined; ++i) {
    ASSERT_TRUE(client.SendPayload(
        HomRequest(100 + i, "hom_has", kEdge, "@t").Serialize()));
  }

  for (int i = 0; i <= kPipelined; ++i) {
    std::string error;
    auto frame = client.ReadFrame(&error);
    ASSERT_TRUE(frame.has_value()) << "response " << i << ": " << error;
    ParseError json_error;
    auto response = ParseJson(*frame, &json_error);
    ASSERT_TRUE(response.has_value()) << json_error.message;
    // In order, all ok, answers unchanged by the degraded batches.
    EXPECT_EQ(response->Find("id")->AsInt64(),
              std::optional<int64_t>(100 + i));
    EXPECT_TRUE(response->Find("ok")->AsBool())
        << "batch-mate " << i << " was poisoned by the batch fault";
    if (i > 0) {
      EXPECT_TRUE(response->Find("has")->AsBool());
      const JsonValue* batch = response->Find("batch");
      ASSERT_NE(batch, nullptr);
      EXPECT_FALSE(batch->Find("shared_index")->AsBool())
          << "fired batch fault must disable the shared index build";
    }
  }

  // The fault actually fired, which also proves multi-request batches
  // formed (the failpoint sits behind the size > 1 check).
  EXPECT_GT(registry.FireCount("server/batch_build"), 0u)
      << "pipelined same-target requests never formed a batch";
  EXPECT_GT(server_->Metrics().max_batch_size, 1u);
}

}  // namespace
}  // namespace hompres
