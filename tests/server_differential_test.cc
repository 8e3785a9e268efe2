// Differential testing of hompresd against the in-process engine.
//
// Every trial builds a randomized HomProblem (or CQ/UCQ/containment
// question), sends it through the daemon's socket, executes the same
// problem directly via PlanHomQuery + Engine::Execute (the exact call
// sequence the server's workers run), and requires the two answers to be
// bit-identical: existence bits, witnesses, counts, enumerated witness
// lists, stop reasons, and — when the shared cache is off — step
// accounting. Batching and shared-cache reuse are on for the bulk of the
// trials, so any answer the serving layer changes is a failure.
//
// Also here: the mutate-while-serving regression test for the
// copy-on-write registry (DESIGN.md §4.7) — fingerprint invalidation is
// the daemon's ONLY freshness mechanism, so a mutate must flip answers
// for later requests without a cache flush, while requests already
// admitted keep answering about their pinned snapshot.
//
// Replays with HOMPRES_TEST_SEED=<seed> ./server_differential_test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "base/rng.h"
#include "containment_test_util.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "structure/delta.h"
#include "structure/generators.h"
#include "structure/parser.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

constexpr uint64_t kDefaultSeed = 20260808;

uint64_t TestSeed() {
  const char* env = std::getenv("HOMPRES_TEST_SEED");
  if (env == nullptr || *env == '\0') return kDefaultSeed;
  return std::strtoull(env, nullptr, 10);
}

Vocabulary MixedVocabulary() {
  Vocabulary voc;
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  voc.AddRelation("T", 3);
  return voc;
}

// What the server's worker computes, reproduced in-process. `cache_on`
// mirrors the daemon's default for has/count (shared cache enabled, no
// explicit client override).
struct DirectAnswer {
  std::string outcome;
  std::string stop_reason;
  uint64_t steps_used = 0;
  bool has = false;
  std::optional<std::vector<int>> witness;
  uint64_t count = 0;
  std::vector<std::vector<int>> witnesses;
  bool enumeration_completed = false;
  bool truncated = false;
  std::string plan_error;  // nonempty = strict planning rejected it
};

DirectAnswer DirectExecute(const Structure& source, const Structure& target,
                           HomQueryMode mode, uint64_t limit,
                           uint64_t max_results, bool cache_on,
                           uint64_t max_steps) {
  DirectAnswer answer;
  HomProblem problem;
  problem.source = &source;
  problem.target = &target;
  problem.mode = mode;
  problem.limit = limit;
  if (mode == HomQueryMode::kEnumerate) {
    problem.callback = [&answer, max_results](const std::vector<int>& h) {
      if (answer.witnesses.size() >= max_results) {
        answer.truncated = true;
        return false;
      }
      answer.witnesses.push_back(h);
      return true;
    };
  }
  EngineConfig config;
  config.use_cache = cache_on && (mode == HomQueryMode::kHas ||
                                  mode == HomQueryMode::kCount);
  PlanResult planned = PlanHomQuery(problem, config);
  if (planned.error.has_value()) {
    answer.plan_error = PlanErrorCodeName(planned.error->code);
    return answer;
  }
  Budget budget;
  if (max_steps != 0) budget.WithMaxSteps(max_steps);
  const Outcome<HomResult> outcome = Engine::Execute(*planned.plan, budget);
  answer.outcome = outcome.IsDone()
                       ? "done"
                       : (outcome.IsCancelled() ? "cancelled" : "exhausted");
  answer.stop_reason = StopReasonName(outcome.Report().reason);
  answer.steps_used = outcome.Report().steps_used;
  if (outcome.IsDone()) {
    answer.has = outcome.Value().has;
    answer.witness = outcome.Value().witness;
    answer.count = outcome.Value().count;
    answer.enumeration_completed = outcome.Value().enumeration_completed;
  }
  return answer;
}

std::vector<std::vector<int>> TuplesFromJson(const JsonValue& v) {
  std::vector<std::vector<int>> out;
  for (const JsonValue& row : v.Items()) {
    std::vector<int> tuple;
    for (const JsonValue& e : row.Items()) {
      tuple.push_back(static_cast<int>(*e.AsInt64()));
    }
    out.push_back(std::move(tuple));
  }
  return out;
}

const char* OpName(HomQueryMode mode) {
  switch (mode) {
    case HomQueryMode::kHas:
      return "hom_has";
    case HomQueryMode::kFind:
      return "hom_find";
    case HomQueryMode::kCount:
      return "hom_count";
    default:
      return "hom_enumerate";
  }
}

// Compares one daemon response against the direct execution,
// field by field. `check_steps` is set on cache-off budgeted trials,
// where step accounting must match exactly; with the shared cache on,
// the daemon may hit an entry the direct run missed (or vice versa), so
// only the answers must agree.
void ExpectSameAnswer(const JsonValue& response, const DirectAnswer& direct,
                      HomQueryMode mode, bool check_steps,
                      const std::string& context) {
  ASSERT_NE(response.Find("ok"), nullptr) << context;
  ASSERT_TRUE(response.Find("ok")->AsBool())
      << context << ": " << response.Serialize();
  ASSERT_TRUE(direct.plan_error.empty()) << context;
  EXPECT_EQ(response.Find("outcome")->AsString(), direct.outcome) << context;
  EXPECT_EQ(response.Find("stop_reason")->AsString(), direct.stop_reason)
      << context;
  if (check_steps) {
    EXPECT_EQ(response.Find("steps_used")->AsUint64(),
              std::optional<uint64_t>(direct.steps_used))
        << context;
  }
  if (direct.outcome != "done") return;
  switch (mode) {
    case HomQueryMode::kHas:
      EXPECT_EQ(response.Find("has")->AsBool(), direct.has) << context;
      break;
    case HomQueryMode::kFind: {
      const JsonValue* witness = response.Find("witness");
      ASSERT_NE(witness, nullptr) << context;
      if (direct.witness.has_value()) {
        ASSERT_TRUE(witness->IsArray()) << context;
        std::vector<int> got;
        for (const JsonValue& e : witness->Items()) {
          got.push_back(static_cast<int>(*e.AsInt64()));
        }
        EXPECT_EQ(got, *direct.witness) << context;
      } else {
        EXPECT_TRUE(witness->IsNull()) << context;
      }
      break;
    }
    case HomQueryMode::kCount:
      EXPECT_EQ(response.Find("count")->AsUint64(),
                std::optional<uint64_t>(direct.count))
          << context;
      break;
    case HomQueryMode::kEnumerate:
      EXPECT_EQ(TuplesFromJson(*response.Find("witnesses")),
                direct.witnesses)
          << context;
      EXPECT_EQ(response.Find("enumeration_completed")->AsBool(),
                direct.enumeration_completed)
          << context;
      EXPECT_EQ(response.Find("truncated")->AsBool(), direct.truncated)
          << context;
      break;
  }
}

class ServerDifferentialTest : public ::testing::Test {
 protected:
  void StartServer(int workers, bool batching) {
    ServerOptions options;
    options.socket_path = "/tmp/hompres-dtest-" +
                          std::to_string(::getpid()) + ".sock";
    options.num_workers = workers;
    options.batching = batching;
    options.shared_cache = true;
    server_ = std::make_unique<Server>(options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_TRUE(client_.Connect(server_->SocketPath(), &error)) << error;
  }

  void TearDown() override {
    client_.Close();
    if (server_ != nullptr) server_->Stop();
  }

  JsonValue HomRequest(int64_t id, HomQueryMode mode,
                       const std::string& source_text,
                       const std::string& target_spec, uint64_t limit,
                       uint64_t max_results) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(id));
    request.Set("op", JsonValue::String(OpName(mode)));
    request.Set("source", JsonValue::String(source_text));
    request.Set("target", JsonValue::String(target_spec));
    request.Set("vocabulary", VocabularyJson(MixedVocabulary()));
    if (mode == HomQueryMode::kCount && limit != 0) {
      request.Set("limit", JsonValue::Uint(limit));
    }
    if (mode == HomQueryMode::kEnumerate) {
      request.Set("max_results", JsonValue::Uint(max_results));
    }
    return request;
  }

  std::unique_ptr<Server> server_;
  Client client_;
};

// The headline differential: >= 120 randomized problems through the
// socket of a batching, cache-enabled daemon, each compared bit-for-bit
// against the direct engine call.
TEST_F(ServerDifferentialTest, RandomizedHomProblemsMatchDirectExecution) {
  StartServer(/*workers=*/2, /*batching=*/true);
  const Vocabulary voc = MixedVocabulary();
  Rng rng(TestSeed());
  constexpr HomQueryMode kModes[] = {
      HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount,
      HomQueryMode::kEnumerate};
  for (int trial = 0; trial < 120; ++trial) {
    Rng source_rng(rng.Next());
    Rng target_rng(rng.Next());
    const Structure source =
        RandomStructure(voc, source_rng.UniformInt(1, 4),
                        source_rng.UniformInt(0, 4), source_rng);
    const Structure target =
        RandomStructure(voc, target_rng.UniformInt(1, 5),
                        target_rng.UniformInt(0, 6), target_rng);
    const HomQueryMode mode = kModes[rng.Uniform(4)];
    const uint64_t limit =
        mode == HomQueryMode::kCount ? rng.Uniform(4) : 0;
    const uint64_t max_results = 16;

    // The wire serialization must be lossless, or the daemon would be
    // answering about different structures than the direct run.
    const std::string source_text = StructureText(source);
    const std::string target_text = StructureText(target);
    ASSERT_EQ(*ParseStructure(source_text, voc, (ParseError*)nullptr),
              source);
    ASSERT_EQ(*ParseStructure(target_text, voc, (ParseError*)nullptr),
              target);

    auto response = client_.Roundtrip(
        HomRequest(trial + 1, mode, source_text, target_text, limit,
                   max_results));
    ASSERT_TRUE(response.has_value()) << "trial " << trial;

    const DirectAnswer direct =
        DirectExecute(source, target, mode, limit, max_results,
                      /*cache_on=*/true, /*max_steps=*/0);
    ExpectSameAnswer(*response, direct, mode, /*check_steps=*/false,
                     "trial " + std::to_string(trial) + " op " +
                         OpName(mode) + "\nsource: " + source_text +
                         "\ntarget: " + target_text);
  }
  // The cache-enabled daemon actually consulted the shared cache.
  EXPECT_GT(server_->Metrics().cache_consults, 0u);
}

// Same differential under forced batching: one worker, pipelined
// requests against one registry target, so the queue builds real
// multi-request batches sharing one index build — answers must still be
// bit-identical and arrive in order.
TEST_F(ServerDifferentialTest, PipelinedBatchesMatchDirectExecution) {
  StartServer(/*workers=*/1, /*batching=*/true);
  const Vocabulary voc = MixedVocabulary();
  Rng rng(TestSeed() ^ 0xBA7C);

  Rng target_rng(rng.Next());
  const Structure target = RandomStructure(voc, 6, 10, target_rng);
  JsonValue define = JsonValue::Object();
  define.Set("id", JsonValue::Int(1));
  define.Set("op", JsonValue::String("define"));
  define.Set("name", JsonValue::String("t"));
  define.Set("vocabulary", VocabularyJson(voc));
  define.Set("structure", JsonValue::String(StructureText(target)));
  auto defined = client_.Roundtrip(define);
  ASSERT_TRUE(defined.has_value() && defined->Find("ok")->AsBool());

  // First request is deliberately heavier (count over a larger source)
  // to hold the single worker while the rest of the pipeline queues up
  // behind it into batches.
  struct Trial {
    Structure source;
    HomQueryMode mode;
    uint64_t limit;
  };
  std::vector<Trial> trials;
  {
    Rng heavy_rng(rng.Next());
    trials.push_back(
        {RandomStructure(voc, 7, 3, heavy_rng), HomQueryMode::kCount, 0});
  }
  constexpr HomQueryMode kModes[] = {HomQueryMode::kHas, HomQueryMode::kFind,
                                     HomQueryMode::kCount};
  for (int i = 0; i < 63; ++i) {
    Rng source_rng(rng.Next());
    trials.push_back({RandomStructure(voc, source_rng.UniformInt(1, 4),
                                      source_rng.UniformInt(0, 4),
                                      source_rng),
                      kModes[rng.Uniform(3)], rng.Uniform(3)});
  }

  // Pipeline everything, then read all responses.
  for (size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    ASSERT_TRUE(client_.SendPayload(
        HomRequest(static_cast<int64_t>(i) + 100, t.mode,
                   StructureText(t.source), "@t",
                   t.mode == HomQueryMode::kCount ? t.limit : 0, 16)
            .Serialize()));
  }
  for (size_t i = 0; i < trials.size(); ++i) {
    auto payload = client_.ReadFrame();
    ASSERT_TRUE(payload.has_value()) << "response " << i;
    auto response = ParseJson(*payload);
    ASSERT_TRUE(response.has_value());
    // Responses arrive in request order (queue order is preserved
    // within and across batches).
    EXPECT_EQ(response->Find("id")->AsInt64(),
              std::optional<int64_t>(static_cast<int64_t>(i) + 100));
    const Trial& t = trials[i];
    const DirectAnswer direct = DirectExecute(
        t.source, target, t.mode,
        t.mode == HomQueryMode::kCount ? t.limit : 0, 16,
        /*cache_on=*/true, /*max_steps=*/0);
    ExpectSameAnswer(*response, direct, t.mode, /*check_steps=*/false,
                     "pipelined trial " + std::to_string(i));
  }
  const ServerMetricsSnapshot metrics = server_->Metrics();
  EXPECT_GT(metrics.batches_executed, 0u);
  EXPECT_GT(metrics.max_batch_size, 1u)
      << "pipelined same-target requests never formed a batch";
}

// Budgeted trials with the cache off: stop reasons AND step accounting
// must be bit-identical — the serving layer may add queueing, but not
// search work.
TEST_F(ServerDifferentialTest, BudgetedStopReasonsMatchDirectExecution) {
  StartServer(/*workers=*/2, /*batching=*/true);
  const Vocabulary voc = MixedVocabulary();
  Rng rng(TestSeed() ^ 0xB06E7);
  int exhausted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Rng source_rng(rng.Next());
    Rng target_rng(rng.Next());
    const Structure source =
        RandomStructure(voc, source_rng.UniformInt(3, 6),
                        source_rng.UniformInt(2, 6), source_rng);
    const Structure target =
        RandomStructure(voc, target_rng.UniformInt(3, 7),
                        target_rng.UniformInt(2, 10), target_rng);
    const HomQueryMode mode =
        rng.Bernoulli(0.5) ? HomQueryMode::kHas : HomQueryMode::kCount;
    const uint64_t max_steps = 1 + rng.Uniform(8);

    JsonValue request = HomRequest(trial + 1, mode, StructureText(source),
                                   StructureText(target), 0, 16);
    JsonValue budget = JsonValue::Object();
    budget.Set("max_steps", JsonValue::Uint(max_steps));
    request.Set("budget", std::move(budget));
    JsonValue config = JsonValue::Object();
    config.Set("cache", JsonValue::Bool(false));
    request.Set("config", std::move(config));

    auto response = client_.Roundtrip(request);
    ASSERT_TRUE(response.has_value()) << "trial " << trial;
    const DirectAnswer direct =
        DirectExecute(source, target, mode, 0, 16, /*cache_on=*/false,
                      max_steps);
    ExpectSameAnswer(*response, direct, mode, /*check_steps=*/true,
                     "budgeted trial " + std::to_string(trial));
    if (direct.outcome == "exhausted") ++exhausted;
  }
  // The budgets were tight enough to actually exercise the exhausted
  // path, not just the happy one.
  EXPECT_GT(exhausted, 0);
}

// CQ / UCQ / containment answers through the daemon equal the library's.
TEST_F(ServerDifferentialTest, CqUcqContainmentMatchDirectExecution) {
  StartServer(/*workers=*/2, /*batching=*/true);
  const Vocabulary voc = MixedVocabulary();
  Rng rng(TestSeed() ^ 0xC0);

  auto random_cq = [&voc](Rng& cq_rng) {
    const Structure canonical =
        RandomStructure(voc, cq_rng.UniformInt(1, 3),
                        cq_rng.UniformInt(1, 3), cq_rng);
    std::vector<int> free_elements;
    const int arity = cq_rng.UniformInt(0, 2);
    for (int i = 0; i < arity; ++i) {
      free_elements.push_back(
          cq_rng.UniformInt(0, canonical.UniverseSize() - 1));
    }
    return ConjunctiveQuery(canonical, free_elements);
  };
  auto cq_json = [](const ConjunctiveQuery& q) {
    JsonValue spec = JsonValue::Object();
    spec.Set("structure", JsonValue::String(StructureText(q.Canonical())));
    JsonValue free = JsonValue::Array();
    for (int e : q.FreeElements()) free.Append(JsonValue::Int(e));
    spec.Set("free", std::move(free));
    return spec;
  };

  for (int trial = 0; trial < 40; ++trial) {
    Rng cq_rng(rng.Next());
    Rng target_rng(rng.Next());
    const ConjunctiveQuery q = random_cq(cq_rng);
    const Structure target =
        RandomStructure(voc, target_rng.UniformInt(1, 4),
                        target_rng.UniformInt(0, 6), target_rng);

    // cq_evaluate.
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(trial + 1));
    request.Set("op", JsonValue::String("cq_evaluate"));
    request.Set("target", JsonValue::String(StructureText(target)));
    request.Set("vocabulary", VocabularyJson(voc));
    request.Set("query", cq_json(q));
    auto response = client_.Roundtrip(request);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->Find("ok")->AsBool()) << response->Serialize();
    EXPECT_EQ(TuplesFromJson(*response->Find("answers")),
              q.Evaluate(target))
        << "cq trial " << trial;

    // ucq_satisfied over 1-3 disjuncts of the same arity.
    std::vector<ConjunctiveQuery> disjuncts = {q};
    const int extra = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < extra; ++i) {
      Rng extra_rng(rng.Next());
      ConjunctiveQuery candidate = random_cq(extra_rng);
      if (candidate.Arity() == q.Arity()) disjuncts.push_back(candidate);
    }
    const UnionOfCq ucq(disjuncts, q.Arity());
    JsonValue ucq_request = JsonValue::Object();
    ucq_request.Set("id", JsonValue::Int(1000 + trial));
    ucq_request.Set("op", JsonValue::String("ucq_satisfied"));
    ucq_request.Set("target", JsonValue::String(StructureText(target)));
    ucq_request.Set("vocabulary", VocabularyJson(voc));
    JsonValue disjuncts_json = JsonValue::Array();
    for (const auto& d : disjuncts) disjuncts_json.Append(cq_json(d));
    ucq_request.Set("disjuncts", std::move(disjuncts_json));
    auto ucq_response = client_.Roundtrip(ucq_request);
    ASSERT_TRUE(ucq_response.has_value());
    ASSERT_TRUE(ucq_response->Find("ok")->AsBool())
        << ucq_response->Serialize();
    EXPECT_EQ(ucq_response->Find("satisfied")->AsBool(),
              ucq.SatisfiedBy(target))
        << "ucq trial " << trial;

    // cq_contained against a second random query of the same arity.
    Rng q2_rng(rng.Next());
    ConjunctiveQuery q2 = random_cq(q2_rng);
    if (q2.Arity() != q.Arity()) continue;
    JsonValue contain = JsonValue::Object();
    contain.Set("id", JsonValue::Int(2000 + trial));
    contain.Set("op", JsonValue::String("cq_contained"));
    contain.Set("vocabulary", VocabularyJson(voc));
    contain.Set("q1", cq_json(q));
    contain.Set("q2", cq_json(q2));
    auto contain_response = client_.Roundtrip(contain);
    ASSERT_TRUE(contain_response.has_value());
    ASSERT_TRUE(contain_response->Find("ok")->AsBool())
        << contain_response->Serialize();
    EXPECT_EQ(contain_response->Find("contained")->AsBool(),
              IsContained(q, q2))
        << "containment trial " << trial;
  }
}

// The optimize-once UCQ memo: a union re-sent with its disjuncts
// permuted and its variables renamed has the same canonical fingerprint,
// so it is a memo hit with an identical answer; and the memo stays
// within its 128 entries however many distinct unions arrive.
TEST_F(ServerDifferentialTest, UcqMemoHitsRenamedUnionsAndStaysBounded) {
  StartServer(/*workers=*/2, /*batching=*/true);
  const Vocabulary voc = MixedVocabulary();
  const int e = *voc.IndexOf("E");
  const int u = *voc.IndexOf("U");
  const int t = *voc.IndexOf("T");
  Rng rng(TestSeed() ^ 0x3E30);
  int64_t next_id = 1;

  auto memo_stats = [&]() {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(next_id++));
    request.Set("op", JsonValue::String("stats"));
    auto response = client_.Roundtrip(request);
    EXPECT_TRUE(response.has_value());
    const JsonValue* memo = response->Find("ucq_memo");
    EXPECT_NE(memo, nullptr) << response->Serialize();
    return *memo;
  };
  auto counter = [](const JsonValue& memo, const char* key) {
    return *memo.Find(key)->AsUint64();
  };
  auto cq_json = [](const ConjunctiveQuery& q) {
    JsonValue spec = JsonValue::Object();
    spec.Set("structure", JsonValue::String(StructureText(q.Canonical())));
    JsonValue free = JsonValue::Array();
    for (int x : q.FreeElements()) free.Append(JsonValue::Int(x));
    spec.Set("free", std::move(free));
    return spec;
  };
  auto ucq_request = [&](const char* op,
                         const std::vector<ConjunctiveQuery>& ds,
                         const Structure& target) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(next_id++));
    request.Set("op", JsonValue::String(op));
    request.Set("target", JsonValue::String(StructureText(target)));
    request.Set("vocabulary", VocabularyJson(voc));
    JsonValue disjuncts = JsonValue::Array();
    for (const ConjunctiveQuery& d : ds) disjuncts.Append(cq_json(d));
    request.Set("disjuncts", std::move(disjuncts));
    auto response = client_.Roundtrip(request);
    EXPECT_TRUE(response.has_value());
    EXPECT_TRUE(response->Find("ok")->AsBool()) << response->Serialize();
    return *response;
  };
  // The same query with element i renamed to n-1-i.
  auto renamed = [&voc](const ConjunctiveQuery& q) {
    const Structure& c = q.Canonical();
    const int n = c.UniverseSize();
    Structure out(voc, n);
    for (int rel = 0; rel < voc.NumRelations(); ++rel) {
      for (Tuple tuple : c.Tuples(rel)) {
        for (int& x : tuple) x = n - 1 - x;
        out.AddTuple(rel, tuple);
      }
    }
    std::vector<int> free = q.FreeElements();
    for (int& x : free) x = n - 1 - x;
    return ConjunctiveQuery(std::move(out), std::move(free));
  };

  // q1(x) :- E(x,y), E(y,z).  q2(x) :- E(x,y), U(y).
  // q3(x) :- T(x,y,z), E(z,x).
  Structure s1(voc, 3);
  s1.AddTuple(e, {0, 1});
  s1.AddTuple(e, {1, 2});
  Structure s2(voc, 2);
  s2.AddTuple(e, {0, 1});
  s2.AddTuple(u, {1});
  Structure s3(voc, 3);
  s3.AddTuple(t, {0, 1, 2});
  s3.AddTuple(e, {2, 0});
  const std::vector<ConjunctiveQuery> disjuncts = {
      ConjunctiveQuery(s1, {0}), ConjunctiveQuery(s2, {0}),
      ConjunctiveQuery(s3, {0})};
  const std::vector<ConjunctiveQuery> resent = {
      renamed(disjuncts[2]), renamed(disjuncts[0]), renamed(disjuncts[1])};
  const UnionOfCq ucq(disjuncts, 1);

  for (int trial = 0; trial < 5; ++trial) {
    const Structure target = RandomStructure(voc, rng.UniformInt(2, 5),
                                             rng.UniformInt(2, 9), rng);
    const JsonValue before = memo_stats();
    const JsonValue first = ucq_request("ucq_evaluate", disjuncts, target);
    const JsonValue middle = memo_stats();
    const JsonValue second = ucq_request("ucq_evaluate", resent, target);
    const JsonValue after = memo_stats();
    const std::vector<std::vector<int>> expected = ucq.Evaluate(target);
    EXPECT_EQ(TuplesFromJson(*first.Find("answers")), expected)
        << "trial " << trial;
    EXPECT_EQ(TuplesFromJson(*second.Find("answers")), expected)
        << "trial " << trial;
    // Only the very first request optimizes; every later one, renamed
    // or not, is served from the memo.
    EXPECT_EQ(counter(middle, "misses") - counter(before, "misses"),
              trial == 0 ? 1u : 0u);
    EXPECT_EQ(counter(after, "hits") - counter(middle, "hits"), 1u)
        << "renamed union missed the memo; trial " << trial;
    EXPECT_EQ(counter(after, "misses"), counter(middle, "misses"));
  }

  // 140 distinct unions overflow the 128-entry memo. Each is one
  // binary query q(x,y) over two variables whose atoms are the bits of
  // its index: with both variables free, no two are renamings of each
  // other and each is its own core.
  std::vector<std::pair<int, Tuple>> atoms = {{u, {0}}, {u, {1}}};
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      atoms.push_back({e, {a, b}});
      for (int c = 0; c < 2; ++c) atoms.push_back({t, {a, b, c}});
    }
  }
  const Structure target = RandomStructure(voc, 4, 8, rng);
  const JsonValue before = memo_stats();
  constexpr int kDistinct = 140;
  for (int i = 1; i <= kDistinct; ++i) {
    Structure pattern(voc, 2);
    for (size_t bit = 0; bit < atoms.size(); ++bit) {
      if ((i >> bit) & 1) pattern.AddTuple(atoms[bit].first, atoms[bit].second);
    }
    const ConjunctiveQuery q(pattern, {0, 1});
    const JsonValue response = ucq_request("ucq_satisfied", {q}, target);
    EXPECT_EQ(response.Find("satisfied")->AsBool(),
              UnionOfCq({q}, 2).SatisfiedBy(target))
        << "union " << i;
  }
  const JsonValue after = memo_stats();
  EXPECT_EQ(counter(after, "misses") - counter(before, "misses"),
            static_cast<uint64_t>(kDistinct));
  EXPECT_LE(counter(after, "size"), 128u);
  EXPECT_GE(counter(after, "evictions"),
            counter(after, "insertions") - 128u);
  EXPECT_EQ(counter(after, "insertions") - counter(after, "evictions"),
            counter(after, "size"));
}

// The satellite-4 regression: mutating a named structure mid-service.
// Freshness must come from the new fingerprint alone — later requests
// see the new answers with no cache flush, and a request admitted
// before the mutate answers about its pinned snapshot.
TEST_F(ServerDifferentialTest, MutateWhileServingUsesFingerprintFreshness) {
  StartServer(/*workers=*/1, /*batching=*/true);

  // m = directed path 0->1->2 over {E/2}: no hom from the directed
  // 3-cycle (no closed walk), so hom_has(C3, @m) = false.
  JsonValue define = JsonValue::Object();
  define.Set("id", JsonValue::Int(1));
  define.Set("op", JsonValue::String("define"));
  define.Set("name", JsonValue::String("m"));
  define.Set("structure", JsonValue::String("|A|=3; E={(0 1),(1 2)}"));
  auto defined = client_.Roundtrip(define);
  ASSERT_TRUE(defined.has_value() && defined->Find("ok")->AsBool());
  const uint64_t fp_before = *defined->Find("fingerprint")->AsUint64();

  const std::string c3 = "|A|=3; E={(0 1),(1 2),(2 0)}";
  auto has = [this, &c3](int64_t id) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(id));
    request.Set("op", JsonValue::String("hom_has"));
    request.Set("source", JsonValue::String(c3));
    request.Set("target", JsonValue::String("@m"));
    return request;
  };

  // Twice before the mutate: the second answer comes from the shared
  // cache (same fingerprints, same options digest).
  auto first = client_.Roundtrip(has(10));
  ASSERT_TRUE(first.has_value() && first->Find("ok")->AsBool());
  EXPECT_FALSE(first->Find("has")->AsBool());
  auto second = client_.Roundtrip(has(11));
  ASSERT_TRUE(second.has_value() && second->Find("ok")->AsBool());
  EXPECT_FALSE(second->Find("has")->AsBool());
  EXPECT_TRUE(second->Find("cache")->Find("hit")->AsBool())
      << "repeat query against an unchanged fingerprint missed the cache";

  // Pin a pre-mutate request in the queue, then mutate while it is in
  // flight: pipeline (no read yet) the query, the mutate, and the
  // post-mutate query. The reader thread resolves each in arrival
  // order, so the first query pins the old snapshot and the last one
  // the new.
  ASSERT_TRUE(client_.SendPayload(has(20).Serialize()));
  JsonValue mutate = JsonValue::Object();
  mutate.Set("id", JsonValue::Int(21));
  mutate.Set("op", JsonValue::String("mutate"));
  mutate.Set("name", JsonValue::String("m"));
  JsonValue add_tuple = JsonValue::Object();
  add_tuple.Set("relation", JsonValue::String("E"));
  JsonValue tuple = JsonValue::Array();
  tuple.Append(JsonValue::Int(2));
  tuple.Append(JsonValue::Int(0));
  add_tuple.Set("tuple", std::move(tuple));
  mutate.Set("add_tuple", std::move(add_tuple));
  ASSERT_TRUE(client_.SendPayload(mutate.Serialize()));
  ASSERT_TRUE(client_.SendPayload(has(22).Serialize()));

  // Collect the three responses (the inline mutate may overtake the
  // queued query in the response stream).
  std::optional<bool> has_old, has_new;
  uint64_t fp_after = 0;
  for (int i = 0; i < 3; ++i) {
    auto payload = client_.ReadFrame();
    ASSERT_TRUE(payload.has_value());
    auto response = ParseJson(*payload);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->Find("ok")->AsBool()) << response->Serialize();
    switch (*response->Find("id")->AsInt64()) {
      case 20:
        has_old = response->Find("has")->AsBool();
        break;
      case 21:
        fp_after = *response->Find("fingerprint")->AsUint64();
        break;
      case 22:
        has_new = response->Find("has")->AsBool();
        break;
      default:
        FAIL() << response->Serialize();
    }
  }
  // The pre-mutate request answered about its pinned snapshot.
  ASSERT_TRUE(has_old.has_value());
  EXPECT_FALSE(*has_old);
  // The mutate produced a genuinely new fingerprint.
  EXPECT_NE(fp_after, fp_before);
  // And the post-mutate request sees the new structure: C3 -> cycle
  // exists. If any cache-flush-free staleness lurked, this would still
  // answer false (the old cached entry).
  ASSERT_TRUE(has_new.has_value());
  EXPECT_TRUE(*has_new);

  // Repeat query on the new fingerprint: cached again, still true.
  auto repeat = client_.Roundtrip(has(30));
  ASSERT_TRUE(repeat.has_value() && repeat->Find("ok")->AsBool());
  EXPECT_TRUE(repeat->Find("has")->AsBool());
  EXPECT_TRUE(repeat->Find("cache")->Find("hit")->AsBool());

  // Direct cross-check of both snapshots.
  const Vocabulary voc = GraphVocabulary();
  const Structure source = *ParseStructure(c3, voc, (ParseError*)nullptr);
  const Structure old_target =
      *ParseStructure("|A|=3; E={(0 1),(1 2)}", voc, (ParseError*)nullptr);
  const Structure new_target = *ParseStructure(
      "|A|=3; E={(0 1),(1 2),(2 0)}", voc, (ParseError*)nullptr);
  EXPECT_FALSE(DirectExecute(source, old_target, HomQueryMode::kHas, 0, 16,
                             true, 0)
                   .has);
  EXPECT_TRUE(DirectExecute(source, new_target, HomQueryMode::kHas, 0, 16,
                            true, 0)
                  .has);
}

// Batching off must not change anything either (the differential
// baseline the issue asks for: answers identical "including under
// batching and shared-cache reuse" — so both sides of that switch).
TEST_F(ServerDifferentialTest, BatchingOffProducesIdenticalAnswers) {
  StartServer(/*workers=*/2, /*batching=*/false);
  const Vocabulary voc = MixedVocabulary();
  Rng rng(TestSeed());  // same stream as the batched headline test
  for (int trial = 0; trial < 30; ++trial) {
    Rng source_rng(rng.Next());
    Rng target_rng(rng.Next());
    const Structure source =
        RandomStructure(voc, source_rng.UniformInt(1, 4),
                        source_rng.UniformInt(0, 4), source_rng);
    const Structure target =
        RandomStructure(voc, target_rng.UniformInt(1, 5),
                        target_rng.UniformInt(0, 6), target_rng);
    const HomQueryMode mode =
        rng.Bernoulli(0.5) ? HomQueryMode::kFind : HomQueryMode::kCount;
    auto response = client_.Roundtrip(HomRequest(
        trial + 1, mode, StructureText(source), StructureText(target), 0,
        16));
    ASSERT_TRUE(response.has_value());
    const DirectAnswer direct = DirectExecute(
        source, target, mode, 0, 16, /*cache_on=*/true, /*max_steps=*/0);
    ExpectSameAnswer(*response, direct, mode, /*check_steps=*/false,
                     "unbatched trial " + std::to_string(trial));
  }
}

// The live-view leg of the delta refactor: materialized Datalog views
// registered on a named structure stay warm across mutate deltas
// (insert, delete, element append), the mutate response carries the
// structured maintenance block with the planner's chosen strategy, and
// the served IDB equals a from-scratch semi-naive fixpoint over an
// identically mutated mirror at every step.
TEST_F(ServerDifferentialTest, RegisteredViewsStayWarmAcrossMutations) {
  StartServer(/*workers=*/1, /*batching=*/true);
  const Vocabulary voc = GraphVocabulary();
  const std::string base_text = "|A|=4; E={(0 1),(1 2)}";

  JsonValue define = JsonValue::Object();
  define.Set("id", JsonValue::Int(1));
  define.Set("op", JsonValue::String("define"));
  define.Set("name", JsonValue::String("g"));
  define.Set("structure", JsonValue::String(base_text));
  auto defined = client_.Roundtrip(define);
  ASSERT_TRUE(defined.has_value() && defined->Find("ok")->AsBool());

  // Two views on the same base: recursive transitive closure (maintained
  // by delta-insert / DRed) and two-step reachability, which is
  // certified bounded but, being non-recursive, maintains by counting.
  const std::string tc_text =
      "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).";
  const std::string r2_text =
      "R(x,y) <- E(x,y). R(x,y) <- E(x,z), E(z,y).";
  auto define_view = [this](int64_t id, const std::string& name,
                            const std::string& program) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(id));
    request.Set("op", JsonValue::String("view_define"));
    request.Set("name", JsonValue::String(name));
    request.Set("on", JsonValue::String("g"));
    request.Set("program", JsonValue::String(program));
    return client_.Roundtrip(request);
  };
  auto tc_defined = define_view(2, "tc", tc_text);
  ASSERT_TRUE(tc_defined.has_value() && tc_defined->Find("ok")->AsBool())
      << tc_defined->Serialize();
  EXPECT_TRUE(tc_defined->Find("recursive")->AsBool());
  auto r2_defined = define_view(3, "r2", r2_text);
  ASSERT_TRUE(r2_defined.has_value() && r2_defined->Find("ok")->AsBool())
      << r2_defined->Serialize();
  EXPECT_TRUE(r2_defined->Find("bounded")->AsBool());

  // The mirror replays the same deltas in-process; the from-scratch
  // fixpoint over it is the ground truth for both served views.
  Structure mirror = *ParseStructure(base_text, voc, (ParseError*)nullptr);
  const uint64_t mirror_start = mirror.Version();
  const DatalogProgram tc = *ParseDatalogProgram(tc_text, voc);
  const DatalogProgram r2 = *ParseDatalogProgram(r2_text, voc);

  struct Step {
    StructureDelta delta;
    JsonValue request = JsonValue::Object();
    const char* tc_strategy;
  };
  auto tuple_json = [](int a, int b) {
    JsonValue op = JsonValue::Object();
    op.Set("relation", JsonValue::String("E"));
    JsonValue t = JsonValue::Array();
    t.Append(JsonValue::Int(a));
    t.Append(JsonValue::Int(b));
    op.Set("tuple", std::move(t));
    return op;
  };
  std::vector<Step> steps(4);
  // Insert E(2,3): recursive insert-only -> delta-insert.
  steps[0].delta.InsertTuple(0, {2, 3});
  steps[0].request.Set("add_tuple", tuple_json(2, 3));
  steps[0].tc_strategy = "delta-insert";
  // Close the cycle E(3,0): T becomes total on {0..3}.
  steps[1].delta.InsertTuple(0, {3, 0});
  steps[1].request.Set("add_tuple", tuple_json(3, 0));
  steps[1].tc_strategy = "delta-insert";
  // Delete E(1,2): a deletion in a recursive program -> DRed.
  steps[2].delta.RemoveTuple(0, {1, 2});
  steps[2].request.Set("remove_tuple", tuple_json(1, 2));
  steps[2].tc_strategy = "dred";
  // Append an element and wire it in with one delta: the new tuple may
  // reference the freshly appended element 4.
  steps[3].delta.AppendElements(1).InsertTuple(0, {3, 4});
  steps[3].request.Set("add_elements", JsonValue::Uint(1));
  steps[3].request.Set("add_tuple", tuple_json(3, 4));
  steps[3].tc_strategy = "delta-insert";

  auto view_idb = [this](int64_t id, const std::string& name) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(id));
    request.Set("op", JsonValue::String("view_tuples"));
    request.Set("name", JsonValue::String(name));
    auto response = client_.Roundtrip(request);
    EXPECT_TRUE(response.has_value() && response->Find("ok")->AsBool());
    std::set<Tuple> out;
    for (const auto& t :
         TuplesFromJson(*response->Find("idb")->Items()[0].Find("tuples"))) {
      out.insert(t);
    }
    return out;
  };

  for (size_t i = 0; i < steps.size(); ++i) {
    Step& step = steps[i];
    step.request.Set("id", JsonValue::Int(100 + static_cast<int64_t>(i)));
    step.request.Set("op", JsonValue::String("mutate"));
    step.request.Set("name", JsonValue::String("g"));
    auto response = client_.Roundtrip(step.request);
    ASSERT_TRUE(response.has_value() && response->Find("ok")->AsBool())
        << response->Serialize();
    mirror.Apply(step.delta);
    // The registry version counts effective delta ops since define; so
    // does the mirror's own counter relative to where it started.
    EXPECT_EQ(*response->Find("version")->AsUint64(),
              mirror.Version() - mirror_start);

    // The maintenance block names both views and the expected strategy.
    const JsonValue* maintenance = response->Find("maintenance");
    ASSERT_NE(maintenance, nullptr) << response->Serialize();
    ASSERT_NE(maintenance->Find("applied"), nullptr);
    const JsonValue* view_stats = maintenance->Find("views");
    ASSERT_NE(view_stats, nullptr);
    ASSERT_EQ(view_stats->Items().size(), 2u);
    bool saw_tc = false, saw_r2 = false;
    for (const JsonValue& entry : view_stats->Items()) {
      const std::string name = entry.Find("name")->AsString();
      const std::string strategy = entry.Find("strategy")->AsString();
      EXPECT_FALSE(entry.Find("recomputed")->AsBool())
          << "step " << i << ": " << entry.Serialize();
      if (name == "tc") {
        saw_tc = true;
        EXPECT_EQ(strategy, step.tc_strategy) << "step " << i;
      } else if (name == "r2") {
        saw_r2 = true;
        EXPECT_EQ(strategy, "counting") << "step " << i;
      }
    }
    EXPECT_TRUE(saw_tc && saw_r2);

    // Served view tuples == from-scratch fixpoint over the mirror.
    EXPECT_EQ(view_idb(200 + static_cast<int64_t>(i) * 2, "tc"),
              EvaluateSemiNaive(tc, mirror).idb[0])
        << "tc diverged at step " << i;
    EXPECT_EQ(view_idb(201 + static_cast<int64_t>(i) * 2, "r2"),
              EvaluateSemiNaive(r2, mirror).idb[0])
        << "r2 diverged at step " << i;
  }

  // Unknown view name answers a structured error.
  JsonValue bad = JsonValue::Object();
  bad.Set("id", JsonValue::Int(900));
  bad.Set("op", JsonValue::String("view_tuples"));
  bad.Set("name", JsonValue::String("nope"));
  auto bad_response = client_.Roundtrip(bad);
  ASSERT_TRUE(bad_response.has_value());
  EXPECT_FALSE(bad_response->Find("ok")->AsBool());
  EXPECT_EQ(bad_response->Find("error")->Find("code")->AsString(),
            "registry/unknown-view");
}

}  // namespace
}  // namespace hompres
