// Tests for the engine's planning layer: determinism and golden-stable
// Explain/Summary output, the audited validation table (strict errors
// and mode-driven normalizations), the cache/factorization/parallel
// passes, and the execution-side guarantees the plans encode (a cache
// hit charges no budget steps; an out-of-range forced pair is a certain
// "no" without search).

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/simd.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "engine/ordering.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "gtest/gtest.h"
#include "hom/core.h"
#include "hom/hom_cache.h"
#include "structure/structure.h"

namespace hompres {
namespace {

Vocabulary GraphVocabulary() {
  Vocabulary voc;
  voc.AddRelation("E", 2);
  return voc;
}

// Path 0 - 1 - 2: one Gaifman component, element 1 in two tuples.
Structure Path3() {
  Structure a(GraphVocabulary(), 3);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {1, 2});
  return a;
}

// Two disjoint edges: two Gaifman components {0,1} and {2,3}.
Structure TwoEdges() {
  Structure a(GraphVocabulary(), 4);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {2, 3});
  return a;
}

// Triangle 0-1-2 (directed cycle plus reverse edges): every path maps in.
Structure Triangle() {
  Structure b(GraphVocabulary(), 3);
  b.AddTuple(0, {0, 1});
  b.AddTuple(0, {1, 2});
  b.AddTuple(0, {2, 0});
  b.AddTuple(0, {1, 0});
  b.AddTuple(0, {2, 1});
  b.AddTuple(0, {0, 2});
  return b;
}

HomProblem MakeProblem(const Structure& a, const Structure& b,
                       HomQueryMode mode) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = mode;
  return problem;
}

TEST(EnginePlan, PlanningIsDeterministic) {
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  for (const HomQueryMode mode :
       {HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount,
        HomQueryMode::kEnumerate}) {
    HomProblem problem = MakeProblem(a, b, mode);
    if (mode == HomQueryMode::kEnumerate) {
      problem.callback = [](const std::vector<int>&) { return true; };
    }
    EngineConfig config;
    config.num_threads = 2;
    const PlanResult first = PlanHomQuery(problem, config);
    const PlanResult second = PlanHomQuery(problem, config);
    ASSERT_TRUE(first.plan.has_value());
    ASSERT_TRUE(second.plan.has_value());
    EXPECT_EQ(first.plan->Explain(), second.plan->Explain());
    EXPECT_EQ(first.plan->Summary(), second.plan->Summary());
  }
}

TEST(EnginePlan, ExplainAndSummaryAreGoldenStable) {
  // The dispatched SIMD level is machine-dependent; pin it to scalar so
  // the golden strings are stable everywhere (the detected level still
  // varies, so Explain's parenthetical is matched structurally below).
  simd::ScopedSimdOverride forced_scalar(simd::SimdLevel::kScalar);
  const Structure a = Path3();
  const Structure b = Triangle();
  const PlanResult planned =
      PlanHomQuery(MakeProblem(a, b, HomQueryMode::kFind), EngineConfig{});
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_EQ(planned.plan->Summary(),
            "mode=find strategy=serial kernel=ac-bitset simd=scalar "
            "components=1 tasks=1 cache=0");
  const std::string expected_explain =
      "HomPlan\n"
      "  mode: find\n"
      "  strategy: serial\n"
      "  kernel: ac-bitset (index narrowing on)\n"
      "  simd: scalar (detected " +
      std::string(simd::SimdLevelName(simd::DetectedSimdLevel())) +
      ")\n"
      "  cache: off\n"
      "  components: 1 (monolithic)\n"
      "  split: none\n"
      "  forced: 0 pairs\n"
      "  adjustments: none\n";
  EXPECT_EQ(planned.plan->Explain(), expected_explain);
}

TEST(EnginePlan, StrictModeRejectsEachAuditedCombination) {
  const Structure a = Path3();
  const Structure b = Triangle();
  const auto expect_error = [&](const HomProblem& problem,
                                const EngineConfig& config,
                                PlanErrorCode code) {
    const PlanResult planned = PlanHomQuery(problem, config);
    ASSERT_TRUE(planned.error.has_value())
        << "expected " << PlanErrorCodeName(code);
    EXPECT_EQ(static_cast<int>(planned.error->code), static_cast<int>(code));
    EXPECT_FALSE(planned.plan.has_value());
    // The stable name leads the message, so callers can match on it.
    EXPECT_EQ(planned.error->message.rfind(PlanErrorCodeName(code), 0), 0u)
        << planned.error->message;
  };

  {
    EngineConfig config;
    config.use_cache = true;
    expect_error(MakeProblem(a, b, HomQueryMode::kFind), config,
                 PlanErrorCode::kCacheWithFind);
    HomProblem problem = MakeProblem(a, b, HomQueryMode::kEnumerate);
    problem.callback = [](const std::vector<int>&) { return true; };
    expect_error(problem, config, PlanErrorCode::kCacheWithEnumerate);
  }
  {
    EngineConfig config;
    config.surjective = true;  // factorize defaults on
    expect_error(MakeProblem(a, b, HomQueryMode::kHas), config,
                 PlanErrorCode::kFactorizeWithSurjective);
  }
  {
    EngineConfig config;
    config.forced.emplace_back(0, 0);
    expect_error(MakeProblem(a, b, HomQueryMode::kHas), config,
                 PlanErrorCode::kFactorizeWithForced);
  }
  {
    EngineConfig config;
    config.use_arc_consistency = false;  // use_index defaults on
    expect_error(MakeProblem(a, b, HomQueryMode::kHas), config,
                 PlanErrorCode::kIndexWithoutArcConsistency);
  }
  {
    Vocabulary other;
    other.AddRelation("R", 1);
    const Structure mismatched(other, 1);
    expect_error(MakeProblem(a, mismatched, HomQueryMode::kHas),
                 EngineConfig{}, PlanErrorCode::kVocabularyMismatch);
  }
  expect_error(MakeProblem(a, b, HomQueryMode::kEnumerate), EngineConfig{},
               PlanErrorCode::kMissingCallback);
  {
    HomProblem problem = MakeProblem(a, b, HomQueryMode::kFind);
    problem.limit = 5;
    expect_error(problem, EngineConfig{}, PlanErrorCode::kLimitOutsideCount);
  }
}

TEST(EnginePlan, ModeDrivenNormalizationsApplyEvenInStrictMode) {
  const Structure a = Path3();
  const Structure b = Triangle();
  // Enumeration is always serial and monolithic: the default config must
  // stay valid in every mode, so these are adjustments, not errors.
  HomProblem problem = MakeProblem(a, b, HomQueryMode::kEnumerate);
  problem.callback = [](const std::vector<int>&) { return true; };
  EngineConfig config;
  config.num_threads = 4;
  const PlanResult planned = PlanHomQuery(problem, config);
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_EQ(planned.plan->config.num_threads, 0);
  EXPECT_FALSE(planned.plan->config.factorize);
  EXPECT_EQ(planned.plan->adjustments.size(), 2u);
  EXPECT_EQ(static_cast<int>(planned.plan->strategy),
            static_cast<int>(ExecStrategy::kSerial));

  // deterministic_witness is a no-op without a thread pool.
  EngineConfig det;
  det.deterministic_witness = true;
  const PlanResult det_planned =
      PlanHomQuery(MakeProblem(a, b, HomQueryMode::kFind), det);
  ASSERT_TRUE(det_planned.plan.has_value());
  EXPECT_FALSE(det_planned.plan->config.deterministic_witness);
  EXPECT_EQ(det_planned.plan->adjustments.size(), 1u);
}

TEST(EnginePlan, CachePlansDeferDispatchAndCarryFingerprints) {
  const Structure a = TwoEdges();  // would factorize without the cache
  const Structure b = Triangle();
  EngineConfig config;
  config.use_cache = true;
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config);
  ASSERT_TRUE(planned.plan.has_value());
  const HomPlan& plan = *planned.plan;
  EXPECT_TRUE(plan.consult_cache);
  // Dispatch analysis is deferred to the cache-miss path: no component
  // or split work is done up front.
  EXPECT_TRUE(plan.components.empty());
  EXPECT_TRUE(plan.split_elements.empty());
  EXPECT_EQ(plan.source_fingerprint, a.Fingerprint());
  EXPECT_EQ(plan.target_fingerprint, b.Fingerprint());
  EXPECT_EQ(plan.options_digest, CacheOptionsDigest(plan.config, 0));
}

TEST(EnginePlan, FactorizationPassSplitsDisconnectedSources) {
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  const PlanResult planned =
      PlanHomQuery(MakeProblem(a, b, HomQueryMode::kHas), EngineConfig{});
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_EQ(static_cast<int>(planned.plan->strategy),
            static_cast<int>(ExecStrategy::kFactorized));
  ASSERT_EQ(planned.plan->components.size(), 2u);
  EXPECT_EQ(planned.plan->components[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(planned.plan->components[1], (std::vector<int>{2, 3}));

  // A connected source stays monolithic.
  const Structure path = Path3();
  const PlanResult connected =
      PlanHomQuery(MakeProblem(path, b, HomQueryMode::kHas), EngineConfig{});
  ASSERT_TRUE(connected.plan.has_value());
  EXPECT_EQ(static_cast<int>(connected.plan->strategy),
            static_cast<int>(ExecStrategy::kSerial));
  EXPECT_TRUE(connected.plan->components.empty());
}

TEST(EnginePlan, ParallelPassChoosesOccurrenceOrderedSplits) {
  const Structure a = Path3();
  const Structure b = Triangle();
  EngineConfig config;
  config.num_threads = 2;
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config);
  ASSERT_TRUE(planned.plan.has_value());
  const HomPlan& plan = *planned.plan;
  EXPECT_EQ(static_cast<int>(plan.strategy),
            static_cast<int>(ExecStrategy::kParallelSplit));
  EXPECT_GE(plan.split_tasks, 2u);
  ASSERT_FALSE(plan.split_elements.empty());
  // Element 1 occurs in two tuples, the endpoints in one each: the
  // occurrence order branches on 1 first.
  EXPECT_EQ(plan.split_elements[0], 1);
  // Each split element crosses in the full target range.
  EXPECT_EQ(plan.split_tasks,
            static_cast<size_t>(std::pow(3, plan.split_elements.size())));
}

TEST(EnginePlan, SplitChoiceRespectsCapsAndTrivialTargets) {
  const Structure a = Path3();
  const Structure b = Triangle();
  const SplitChoice choice = ChooseSplitElements(a, b, {}, 2);
  EXPECT_LE(choice.elements.size(), 3u);
  EXPECT_LE(choice.num_tasks, 512u);
  EXPECT_GE(choice.num_tasks, 2u);

  // Target universe < 2: nothing to split over.
  const Structure point(GraphVocabulary(), 1);
  const SplitChoice trivial = ChooseSplitElements(a, point, {}, 2);
  EXPECT_TRUE(trivial.elements.empty());
  EXPECT_EQ(trivial.num_tasks, 1u);
}

TEST(EnginePlan, CacheHitAnswersWithZeroBudgetSteps) {
  GlobalHomCache().Clear();
  const Structure a = Path3();
  const Structure b = Triangle();
  EngineConfig config;
  config.use_cache = true;

  // Warm the cache.
  Budget warm = Budget::Unlimited();
  ASSERT_TRUE(Engine::Has(a, b, warm, config).Value());

  // A zero-step budget fails every Checkpoint, so completing proves the
  // hit path charges nothing.
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config);
  ASSERT_TRUE(planned.plan.has_value());
  Budget zero = Budget::MaxSteps(0);
  ExecutionTrace trace;
  const auto out = Engine::Execute(*planned.plan, zero, &trace);
  ASSERT_TRUE(out.IsDone());
  EXPECT_TRUE(out.Value().has);
  EXPECT_TRUE(trace.cache_consulted);
  EXPECT_TRUE(trace.cache_hit);
  EXPECT_EQ(trace.steps_charged, 0u);
}

TEST(EnginePlan, OutOfRangeForcedPairIsACertainNoWithoutSearch) {
  const Structure a = Path3();
  const Structure b = Triangle();
  EngineConfig config;
  config.forced.emplace_back(0, 99);  // 99 outside b's universe
  config.factorize = false;
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config);
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_FALSE(planned.plan->forced_in_range);
  Budget zero = Budget::MaxSteps(0);  // the certain "no" must not search
  const auto out = Engine::Execute(*planned.plan, zero);
  ASSERT_TRUE(out.IsDone());
  EXPECT_FALSE(out.Value().has);
}

// A = {P(), E(0,0)} and B = {E(0,0)} over {P/0, E/2}: the loop maps,
// but B lacks A's 0-ary tuple, so no homomorphism exists. The kernel's
// element-driven propagation never sees a nullary atom; planning must.
struct NullaryPair {
  Structure a;
  Structure b;
};

NullaryPair MissingNullaryPair() {
  Vocabulary voc;
  const int p = voc.AddRelation("P", 0);
  const int e = voc.AddRelation("E", 2);
  NullaryPair pair{Structure(voc, 1), Structure(voc, 1)};
  pair.a.AddTuple(p, {});
  pair.a.AddTuple(e, {0, 0});
  pair.b.AddTuple(e, {0, 0});
  return pair;
}

HomResult ExecuteMissingNullary(HomQueryMode mode, int* callbacks) {
  const NullaryPair pair = MissingNullaryPair();
  HomProblem problem = MakeProblem(pair.a, pair.b, mode);
  if (mode == HomQueryMode::kEnumerate) {
    problem.callback = [callbacks](const std::vector<int>&) {
      ++*callbacks;
      return true;
    };
  }
  const PlanResult planned = PlanHomQuery(problem, EngineConfig{});
  EXPECT_TRUE(planned.plan.has_value());
  EXPECT_FALSE(planned.plan->nullary_atoms_hold);
  EXPECT_NE(planned.plan->Explain().find("certain no"), std::string::npos);
  Budget zero = Budget::MaxSteps(0);  // the certain "no" must not search
  const auto out = Engine::Execute(*planned.plan, zero);
  EXPECT_TRUE(out.IsDone());
  return out.IsDone() ? out.Value() : HomResult{};
}

TEST(EnginePlan, MissingNullaryTupleIsACertainNoForHas) {
  int callbacks = 0;
  EXPECT_FALSE(ExecuteMissingNullary(HomQueryMode::kHas, &callbacks).has);
}

TEST(EnginePlan, MissingNullaryTupleIsACertainNoForFind) {
  int callbacks = 0;
  EXPECT_FALSE(ExecuteMissingNullary(HomQueryMode::kFind, &callbacks)
                   .witness.has_value());
}

TEST(EnginePlan, MissingNullaryTupleIsACertainNoForCount) {
  int callbacks = 0;
  EXPECT_EQ(ExecuteMissingNullary(HomQueryMode::kCount, &callbacks).count,
            0u);
  // The convenience wrapper, with the cache on, agrees.
  const NullaryPair pair = MissingNullaryPair();
  EngineConfig cached;
  cached.use_cache = true;
  Budget unlimited = Budget::Unlimited();
  EXPECT_EQ(Engine::Count(pair.a, pair.b, unlimited, 0, cached).Value(), 0u);
}

TEST(EnginePlan, MissingNullaryTupleIsACertainNoForEnumerate) {
  int callbacks = 0;
  EXPECT_TRUE(ExecuteMissingNullary(HomQueryMode::kEnumerate, &callbacks)
                  .enumeration_completed);
  EXPECT_EQ(callbacks, 0);
  // With the tuple present in the target the loop is the one map.
  NullaryPair pair = MissingNullaryPair();
  pair.b.AddTuple(0, {});
  Budget unlimited = Budget::Unlimited();
  EXPECT_EQ(Engine::Count(pair.a, pair.b, unlimited, 0).Value(), 1u);
}

// --- Target-retract pass. ---

// The 6-cycle as a symmetric digraph: bipartite, so it retracts onto
// one of its edges.
Structure SymmetricC6() {
  Structure b(GraphVocabulary(), 6);
  for (int v = 0; v < 6; ++v) {
    b.AddTuple(0, {v, (v + 1) % 6});
    b.AddTuple(0, {(v + 1) % 6, v});
  }
  return b;
}

TEST(EnginePlan, TargetRetractPassAppliesToHasCountAndFindOnly) {
  simd::ScopedSimdOverride forced_scalar(simd::SimdLevel::kScalar);
  const Structure a = Path3();
  const Structure b = SymmetricC6();
  Budget probe = Budget::MaxSteps(kTargetRetractMaxSteps);
  const std::optional<TargetRetract> retract =
      FindTargetRetractBudgeted(b, probe).Value();
  ASSERT_TRUE(retract.has_value());
  EXPECT_EQ(retract->structure.UniverseSize(), 2);

  for (const HomQueryMode mode :
       {HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount}) {
    HomProblem problem = MakeProblem(a, b, mode);
    problem.target_retract = &*retract;
    const PlanResult planned = PlanHomQuery(problem, EngineConfig{});
    ASSERT_TRUE(planned.plan.has_value());
    EXPECT_EQ(planned.plan->target_retract, &*retract);
    EXPECT_NE(planned.plan->Summary().find(" retract=2"), std::string::npos);
    EXPECT_NE(planned.plan->Explain().find("  target-retract: 6 -> 2\n"),
              std::string::npos);
  }
  // The cache pass keeps it for the miss path.
  {
    HomProblem problem = MakeProblem(a, b, HomQueryMode::kHas);
    problem.target_retract = &*retract;
    EngineConfig cached;
    cached.use_cache = true;
    EXPECT_EQ(PlanHomQuery(problem, cached).plan->target_retract, &*retract);
  }
  // Enumeration, forced pairs and surjectivity skip it.
  HomProblem enumerate = MakeProblem(a, b, HomQueryMode::kEnumerate);
  enumerate.callback = [](const std::vector<int>&) { return true; };
  enumerate.target_retract = &*retract;
  EXPECT_EQ(PlanHomQuery(enumerate, EngineConfig{}).plan->target_retract,
            nullptr);
  HomProblem has = MakeProblem(a, b, HomQueryMode::kHas);
  has.target_retract = &*retract;
  EngineConfig forced;
  forced.forced.emplace_back(0, 3);
  forced.factorize = false;
  EXPECT_EQ(PlanHomQuery(has, forced).plan->target_retract, nullptr);
  EngineConfig surjective;
  surjective.surjective = true;
  surjective.factorize = false;
  const PlanResult onto = PlanHomQuery(has, surjective);
  EXPECT_EQ(onto.plan->target_retract, nullptr);
  EXPECT_EQ(onto.plan->Summary().find("retract"), std::string::npos);
}

TEST(EngineExecution, TargetRetractAnswersHasAndRefutesCountAndFind) {
  const Structure b = SymmetricC6();
  Budget probe = Budget::MaxSteps(kTargetRetractMaxSteps);
  const std::optional<TargetRetract> retract =
      FindTargetRetractBudgeted(b, probe).Value();
  ASSERT_TRUE(retract.has_value());
  const Structure triangle = Triangle();  // odd cycle: not into bipartite b
  const Structure path = Path3();

  for (const Structure* a : {&triangle, &path}) {
    const bool maps = a == &path;
    for (const HomQueryMode mode :
         {HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount}) {
      SCOPED_TRACE(std::string(HomQueryModeName(mode)) +
                   (maps ? "/maps" : "/refuted"));
      HomProblem plain = MakeProblem(*a, b, mode);
      HomProblem on_retract = plain;
      on_retract.target_retract = &*retract;
      Budget b1 = Budget::Unlimited();
      Budget b2 = Budget::Unlimited();
      ExecutionTrace trace;
      const HomResult want =
          Engine::Execute(*PlanHomQuery(plain, EngineConfig{}).plan, b1)
              .Value();
      const HomResult got =
          Engine::Execute(*PlanHomQuery(on_retract, EngineConfig{}).plan, b2,
                          &trace)
              .Value();
      EXPECT_EQ(got.has, want.has);
      EXPECT_EQ(got.witness, want.witness);
      EXPECT_EQ(got.count, want.count);
      EXPECT_EQ(got.has || got.count > 0, maps);
      EXPECT_TRUE(trace.retract_consulted);
      // S decides has either way; count and find only when it refutes.
      EXPECT_EQ(trace.retract_answered,
                mode == HomQueryMode::kHas || !maps);
      EXPECT_NE(trace.ToString().find(trace.retract_answered
                                          ? "retract=answered"
                                          : "retract=passed"),
                std::string::npos);
    }
  }
}

TEST(EngineExecution, TargetRetractKeepsNullaryTuples) {
  Vocabulary voc;
  const int p = voc.AddRelation("P", 0);
  const int e = voc.AddRelation("E", 2);
  Structure b(voc, 6);  // symmetric C6 plus the 0-ary P()
  for (int v = 0; v < 6; ++v) {
    b.AddTuple(e, {v, (v + 1) % 6});
    b.AddTuple(e, {(v + 1) % 6, v});
  }
  b.AddTuple(p, {});
  // InducedSubstructure keeps a 0-ary tuple (it mentions no element).
  EXPECT_EQ(b.InducedSubstructure({0}).Tuples(p).size(), 1u);
  Budget probe = Budget::MaxSteps(kTargetRetractMaxSteps);
  const std::optional<TargetRetract> retract =
      FindTargetRetractBudgeted(b, probe).Value();
  ASSERT_TRUE(retract.has_value());
  EXPECT_EQ(retract->structure.Tuples(p).size(), 1u);

  Structure a(voc, 2);  // P() and one edge: maps into b
  a.AddTuple(p, {});
  a.AddTuple(e, {0, 1});
  HomProblem problem = MakeProblem(a, b, HomQueryMode::kHas);
  problem.target_retract = &*retract;
  Budget unlimited = Budget::Unlimited();
  EXPECT_TRUE(Engine::Execute(*PlanHomQuery(problem, EngineConfig{}).plan,
                              unlimited)
                  .Value()
                  .has);
}

// --- Stop-reason propagation: every mode x config x budget stop. ---

namespace stop_table {

// A raised flag the cancel rows share; never reset (the budget only
// reads it).
std::atomic<bool> g_always_cancelled{true};

struct StopRow {
  const char* name;
  StopReason want;
};

Budget MakeStoppedBudget(StopReason want) {
  switch (want) {
    case StopReason::kSteps:
      return Budget::MaxSteps(1);
    case StopReason::kDeadline:
      return Budget::Timeout(std::chrono::nanoseconds(0));
    case StopReason::kMemory: {
      Budget budget;
      budget.WithMaxMemoryBytes(1);
      budget.ChargeMemory(2);  // pre-exhausted: first checkpoint stops
      return budget;
    }
    case StopReason::kCancelled: {
      Budget budget;
      budget.WithCancelFlag(&g_always_cancelled);
      return budget;
    }
    default:
      ADD_FAILURE() << "unexpected stop row";
      return Budget::Unlimited();
  }
}

}  // namespace stop_table

TEST(EngineExecution, EveryModeSurfacesEveryStopReason) {
  using stop_table::MakeStoppedBudget;
  const Structure a = TwoEdges();  // two components: factorization runs
  const Structure b = Triangle();

  const stop_table::StopRow stops[] = {
      {"steps", StopReason::kSteps},
      {"deadline", StopReason::kDeadline},
      {"memory", StopReason::kMemory},
      {"cancel", StopReason::kCancelled},
  };

  struct ConfigRow {
    const char* name;
    EngineConfig config;
  };
  std::vector<ConfigRow> configs;
  configs.push_back({"serial", EngineConfig{}});
  {
    EngineConfig parallel;
    parallel.num_threads = 2;
    configs.push_back({"parallel", parallel});
  }
  {
    EngineConfig cached;
    cached.use_cache = true;
    configs.push_back({"cached", cached});
  }

  for (const HomQueryMode mode :
       {HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount,
        HomQueryMode::kEnumerate}) {
    for (const auto& row : configs) {
      // The cache stores scalar answers: strict planning rejects it for
      // witness and enumeration queries.
      if (row.config.use_cache && (mode == HomQueryMode::kFind ||
                                   mode == HomQueryMode::kEnumerate)) {
        continue;
      }
      HomProblem problem = MakeProblem(a, b, mode);
      if (mode == HomQueryMode::kEnumerate) {
        problem.callback = [](const std::vector<int>&) { return true; };
      }
      const PlanResult planned = PlanHomQuery(problem, row.config);
      ASSERT_TRUE(planned.plan.has_value())
          << row.name << " mode " << static_cast<int>(mode);
      for (const auto& stop : stops) {
        SCOPED_TRACE(std::string(row.name) + "/" + stop.name + "/mode=" +
                     std::to_string(static_cast<int>(mode)));
        // An earlier cached row must not answer this one from the cache
        // (a hit legitimately completes without touching the budget).
        GlobalHomCache().Clear();
        Budget budget = MakeStoppedBudget(stop.want);
        const auto out = Engine::Execute(*planned.plan, budget);
        EXPECT_FALSE(out.IsDone());
        EXPECT_EQ(out.Report().reason, stop.want);
        EXPECT_EQ(out.IsCancelled(), stop.want == StopReason::kCancelled);
        EXPECT_EQ(out.IsExhausted(), stop.want != StopReason::kCancelled);
      }
    }
  }

  // The budgeted core probes surface the same stop vocabulary.
  for (const auto& stop : stops) {
    SCOPED_TRACE(std::string("core/") + stop.name);
    Budget budget = MakeStoppedBudget(stop.want);
    const auto core = ComputeCoreBudgeted(b, budget);
    EXPECT_FALSE(core.IsDone());
    EXPECT_EQ(core.Report().reason, stop.want);

    Budget probe = MakeStoppedBudget(stop.want);
    const auto is_core = IsCoreBudgeted(b, probe);
    EXPECT_FALSE(is_core.IsDone());
    EXPECT_EQ(is_core.Report().reason, stop.want);
  }
}

TEST(EnginePlan, GreedyBoundFirstAtomOrderPrefersBoundSlots) {
  // All atoms start unbound: ties keep the original order.
  EXPECT_EQ(GreedyBoundFirstAtomOrder({{0, 1}, {1, 2}, {2, 3}}, 4),
            (std::vector<int>{0, 1, 2}));
  // After atom 0 binds {2, 3}, atom 2 shares a slot and jumps the queue.
  EXPECT_EQ(GreedyBoundFirstAtomOrder({{2, 3}, {0, 1}, {1, 2}}, 4),
            (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(GreedyBoundFirstAtomOrder({}, 0), (std::vector<int>{}));
  // A pinned first atom (a delta join's delta position) leads, and the
  // rest follow greedily from the slots it binds.
  EXPECT_EQ(GreedyBoundFirstAtomOrder({{0, 1}, {1, 2}, {2, 3}}, 4, 2),
            (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(GreedyBoundFirstAtomOrder({{0, 1}, {1, 2}, {2, 3}}, 4, 0),
            (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace hompres
