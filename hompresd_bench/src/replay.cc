#include "replay.h"

#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>

#include "base/budget.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "datalog/incremental.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/maintain.h"
#include "engine/plan.h"
#include "opt/optimizer.h"
#include "server/frame.h"
#include "server/json.h"
#include "server/protocol.h"
#include "structure/delta.h"
#include "structure/parser.h"

namespace hompresd_bench {

namespace {

using namespace hompres;

// The daemon's UCQ memo capacity and optimizer step cap (its shipped
// defaults), mirrored so the replay's memo misses match the daemon's.
constexpr size_t kUcqMemoCapacity = 128;
constexpr uint64_t kOptimizeMaxSteps = 1u << 22;

// Spans recorded per replayed request, at most (reserved up front so
// recording never reallocates mid-replay).
constexpr size_t kSpansPerRequest = 12;

const char* MaintainSpanName(MaintainStrategy strategy) {
  switch (strategy) {
    case MaintainStrategy::kNoOp:
      return "datalog.maintain.noop";
    case MaintainStrategy::kBoundedUcq:
      return "datalog.maintain.bounded-ucq";
    case MaintainStrategy::kCounting:
      return "datalog.maintain.counting";
    case MaintainStrategy::kDeltaInsert:
      return "datalog.maintain.delta-insert";
    case MaintainStrategy::kDRed:
      return "datalog.maintain.dred";
    case MaintainStrategy::kFromScratch:
      return "datalog.maintain.from-scratch";
  }
  return "datalog.maintain.unknown";
}

JsonValue TupleJson(const std::vector<int>& t) {
  JsonValue out = JsonValue::Array();
  for (int e : t) out.Append(JsonValue::Int(e));
  return out;
}

JsonValue TupleListJson(const std::vector<std::vector<int>>& tuples) {
  JsonValue out = JsonValue::Array();
  for (const auto& t : tuples) out.Append(TupleJson(t));
  return out;
}

void SetBatch(JsonValue* response) {
  JsonValue batch = JsonValue::Object();
  batch.Set("size", JsonValue::Uint(1));
  batch.Set("shared_index", JsonValue::Bool(false));
  response->Set("batch", std::move(batch));
}

// Everything one request allocates. It is released as a whole inside
// the server.release span (the daemon frees a finished request too), so
// destructors do not run between spans.
struct Work {
  std::optional<Request> request;
  std::shared_ptr<const Structure> target;
  std::optional<Structure> source;
  std::optional<ConjunctiveQuery> cq, q1, q2;
  std::optional<UnionOfCq> ucq;
  std::shared_ptr<const UnionOfCq> optimized;
  std::optional<PlanResult> planned;
  std::optional<Outcome<HomResult>> outcome;
  ExecutionTrace trace;
  std::vector<Tuple> answers;
  StructureDelta delta;
  std::optional<JsonValue> response;
  std::string frame;
};

class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, Tracer& tracer)
      : spec_(spec), tracer_(tracer) {}

  // Named structures and views, as set-up defines them.
  void SetUp(ReplayResult* result) {
    for (const auto& [name, text] : spec_.named) {
      named_[name] = std::make_shared<const Structure>(
          *ParseStructure(text, GraphVocabulary()));
    }
    const int64_t start = NowNs();
    for (const auto& [name, program] : spec_.views) {
      const auto& base = named_.at(spec_.view_base);
      views_[name] = std::make_unique<MaterializedView>(
          *ParseDatalogProgram(program, base->GetVocabulary()), *base);
    }
    result->materialize_s = static_cast<double>(NowNs() - start) / 1e9;
  }

  // Executes one request; false when the library rejected it.
  bool Execute(const std::string& payload, ReplayResult* result) {
    Tracer::Scope root(tracer_, "request");
    work_.emplace();
    const bool ok = Run(payload, *work_, result);
    Tracer::Scope span(tracer_, "server.release");
    work_.reset();
    return ok;
  }

 private:
  bool Run(const std::string& payload, Work& w, ReplayResult* result) {
    {
      Tracer::Scope span(tracer_, "server.decode");
      const auto parsed = ParseJson(payload);
      if (!parsed.has_value()) return false;
      ProtocolError error;
      w.request = ParseRequest(*parsed, &error);
      if (!w.request.has_value()) return false;
    }
    bool ok = false;
    switch (w.request->op) {
      case RequestOp::kHomHas:
      case RequestOp::kHomFind:
      case RequestOp::kHomCount:
        ok = Hom(w);
        break;
      case RequestOp::kCqEvaluate:
      case RequestOp::kUcqSatisfied:
      case RequestOp::kUcqEvaluate:
      case RequestOp::kCqContained:
        ok = Cq(w, result);
        break;
      case RequestOp::kMutate:
        ok = Mutate(w);
        break;
      case RequestOp::kViewTuples:
        ok = ViewTuples(w);
        break;
      default:
        break;
    }
    if (!ok) return false;
    Tracer::Scope span(tracer_, "server.encode");
    w.frame = EncodeFrame(w.response->Serialize());
    return true;
  }

  std::shared_ptr<const Structure> Target(const Request& request) {
    return named_.at(request.target_spec.substr(1));
  }

  static std::optional<ConjunctiveQuery> BuildCq(const CqSpec& spec) {
    auto canonical = ParseStructure(spec.structure_text, GraphVocabulary());
    if (!canonical.has_value()) return std::nullopt;
    return ConjunctiveQuery(*std::move(canonical), spec.free_elements);
  }

  // The daemon warms a batch's target index before executing it; the
  // replay builds it once per snapshot, before the first query on it.
  void WarmIndex(const std::shared_ptr<const Structure>& target) {
    if (!indexed_.insert(target.get()).second) return;
    Tracer::Scope span(tracer_, "structure.index_build");
    target->TryIndex();
  }

  bool Hom(Work& w) {
    const Request& request = *w.request;
    {
      // Resolving "@name" and parsing the inline source, as the
      // daemon's reader thread does before admission.
      Tracer::Scope span(tracer_, "structure.parse");
      w.target = Target(request);
      w.source = ParseStructure(request.source_text,
                                w.target->GetVocabulary());
    }
    if (!w.source.has_value()) return false;
    WarmIndex(w.target);
    HomProblem problem;
    problem.source = &*w.source;
    problem.target = w.target.get();
    problem.limit = request.limit;
    problem.mode = request.op == RequestOp::kHomHas    ? HomQueryMode::kHas
                   : request.op == RequestOp::kHomCount ? HomQueryMode::kCount
                                                        : HomQueryMode::kFind;
    EngineConfig config = request.config;
    config.use_cache = problem.mode != HomQueryMode::kFind;
    {
      Tracer::Scope span(tracer_, "engine.plan");
      w.planned = PlanHomQuery(problem, config, PlanMode::kStrict);
    }
    if (!w.planned->plan.has_value()) return false;
    Budget budget;
    budget.WithCancelFlag(&cancel_);
    {
      Tracer::Scope span(tracer_, "engine.execute");
      w.outcome = Engine::Execute(*w.planned->plan, budget, &w.trace);
      if (w.trace.cache_hit) span.Rename("hom.cache_hit");
    }
    if (!w.outcome->IsDone()) return false;
    Tracer::Scope span(tracer_, "server.respond");
    JsonValue& response =
        w.response.emplace(OkResponse(request.id, request.op));
    const BudgetReport& report = w.outcome->Report();
    response.Set("outcome", JsonValue::String("done"));
    response.Set("stop_reason",
                 JsonValue::String(StopReasonName(report.reason)));
    response.Set("steps_used", JsonValue::Uint(report.steps_used));
    response.Set("elapsed_us", JsonValue::Uint(0));
    response.Set("plan", JsonValue::String(w.planned->plan->Summary()));
    JsonValue cache = JsonValue::Object();
    cache.Set("consulted", JsonValue::Bool(w.trace.cache_consulted));
    cache.Set("hit", JsonValue::Bool(w.trace.cache_hit));
    response.Set("cache", std::move(cache));
    const HomResult& value = w.outcome->Value();
    if (problem.mode == HomQueryMode::kHas) {
      response.Set("has", JsonValue::Bool(value.has));
    } else if (problem.mode == HomQueryMode::kCount) {
      response.Set("count", JsonValue::Uint(value.count));
    } else {
      response.Set("witness", value.witness.has_value()
                                  ? TupleJson(*value.witness)
                                  : JsonValue::Null());
    }
    SetBatch(&response);
    return true;
  }

  bool Cq(Work& w, ReplayResult* result) {
    const Request& request = *w.request;
    {
      Tracer::Scope span(tracer_, "structure.parse");
      if (request.op == RequestOp::kCqContained) {
        w.q1 = BuildCq(request.q1);
        w.q2 = BuildCq(request.q2);
        if (!w.q1.has_value() || !w.q2.has_value()) return false;
      } else {
        w.target = Target(request);
        if (request.op == RequestOp::kCqEvaluate) {
          w.cq = BuildCq(request.query);
          if (!w.cq.has_value()) return false;
        } else {
          std::vector<ConjunctiveQuery> disjuncts;
          for (const CqSpec& d : request.disjuncts) {
            auto built = BuildCq(d);
            if (!built.has_value()) return false;
            disjuncts.push_back(*std::move(built));
          }
          const int arity = disjuncts.empty() ? request.ucq_arity
                                              : disjuncts[0].Arity();
          w.ucq.emplace(std::move(disjuncts), arity);
        }
      }
    }
    if (w.target != nullptr) WarmIndex(w.target);
    std::optional<bool> verdict;
    switch (request.op) {
      case RequestOp::kCqEvaluate: {
        Tracer::Scope span(tracer_, "cq.evaluate");
        w.answers = w.cq->Evaluate(*w.target);
        break;
      }
      case RequestOp::kCqContained: {
        Tracer::Scope span(tracer_, "cq.contained");
        verdict = CqContained(*w.q1, *w.q2);
        break;
      }
      default: {
        w.optimized = OptimizedUcq(*w.ucq, result);
        Tracer::Scope span(tracer_, "opt.ucq_eval");
        if (request.op == RequestOp::kUcqSatisfied) {
          verdict = w.optimized->SatisfiedBy(*w.target);
        } else {
          w.answers = w.optimized->Evaluate(*w.target);
        }
      }
    }
    Tracer::Scope span(tracer_, "server.respond");
    JsonValue& response =
        w.response.emplace(OkResponse(request.id, request.op));
    if (request.op == RequestOp::kCqContained) {
      response.Set("contained", JsonValue::Bool(*verdict));
    } else if (verdict.has_value()) {
      response.Set("satisfied", JsonValue::Bool(*verdict));
    } else {
      const bool truncated = w.answers.size() > request.max_results;
      if (truncated) w.answers.resize(request.max_results);
      response.Set("answers", TupleListJson(w.answers));
      response.Set("truncated", JsonValue::Bool(truncated));
    }
    response.Set("outcome", JsonValue::String("done"));
    SetBatch(&response);
    return true;
  }

  // The daemon's optimize-once memo: FIFO of kUcqMemoCapacity entries
  // keyed by the union's canonical fingerprint.
  std::shared_ptr<const UnionOfCq> OptimizedUcq(const UnionOfCq& q,
                                                ReplayResult* result) {
    uint64_t fingerprint = 0;
    {
      Tracer::Scope span(tracer_, "opt.fingerprint");
      fingerprint = UcqFingerprint(q);
      auto it = memo_.find(fingerprint);
      if (it != memo_.end()) return it->second;
    }
    Tracer::Scope span(tracer_, "opt.optimize");
    Budget budget = Budget::MaxSteps(kOptimizeMaxSteps);
    OptimizerStats stats;
    auto optimized = std::make_shared<const UnionOfCq>(
        OptimizeUcqBudgeted(q, budget, {}, &stats));
    result->disjuncts_in += stats.input_disjuncts;
    result->disjuncts_out += stats.output_disjuncts;
    memo_.emplace(fingerprint, optimized);
    memo_order_.push_back(fingerprint);
    while (memo_.size() > kUcqMemoCapacity) {
      memo_.erase(memo_order_.front());
      memo_order_.pop_front();
    }
    return optimized;
  }

  bool Mutate(Work& w) {
    const Request& request = *w.request;
    std::optional<DeltaApplyResult> applied;
    {
      Tracer::Scope span(tracer_, "structure.cow_apply");
      auto& slot = named_.at(request.name);
      const auto rel = slot->GetVocabulary().IndexOf(
          request.mutate_relation.empty() ? request.mutate_remove_relation
                                          : request.mutate_relation);
      if (!rel.has_value()) return false;
      if (!request.mutate_relation.empty()) {
        w.delta.InsertTuple(*rel, request.mutate_tuple);
      }
      if (!request.mutate_remove_relation.empty()) {
        w.delta.RemoveTuple(*rel, request.mutate_remove_tuple);
      }
      Structure updated(*slot);
      applied = updated.Apply(w.delta);
      indexed_.erase(slot.get());
      // The replaced snapshot is freed here, as the daemon frees it when
      // its last reader is done.
      slot = std::make_shared<const Structure>(std::move(updated));
      slot->Fingerprint();
    }
    JsonValue view_stats = JsonValue::Array();
    for (auto& [name, view] : views_) {
      Tracer::Scope span(tracer_, "datalog.maintain");
      const ViewMaintenanceStats stats = view->Apply(w.delta);
      span.Rename(MaintainSpanName(stats.plan.strategy));
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(name));
      entry.Set("strategy",
                JsonValue::String(MaintainStrategyName(stats.plan.strategy)));
      entry.Set("summary", JsonValue::String(stats.plan.Summary()));
      entry.Set("derivations", JsonValue::Int(stats.derivations));
      view_stats.Append(std::move(entry));
    }
    Tracer::Scope span(tracer_, "server.respond");
    JsonValue& response =
        w.response.emplace(OkResponse(request.id, request.op));
    response.Set("version", JsonValue::Uint(applied->version));
    JsonValue maintenance = JsonValue::Object();
    JsonValue applied_json = JsonValue::Object();
    applied_json.Set("inserted", JsonValue::Int(applied->tuples_inserted));
    applied_json.Set("removed", JsonValue::Int(applied->tuples_removed));
    maintenance.Set("applied", std::move(applied_json));
    maintenance.Set("views", std::move(view_stats));
    response.Set("maintenance", std::move(maintenance));
    return true;
  }

  bool ViewTuples(Work& w) {
    const Request& request = *w.request;
    Tracer::Scope span(tracer_, "datalog.view_tuples");
    auto it = views_.find(request.name);
    if (it == views_.end()) return false;
    const MaterializedView& view = *it->second;
    JsonValue& response =
        w.response.emplace(OkResponse(request.id, request.op));
    response.Set("version", JsonValue::Uint(view.Version()));
    uint64_t remaining = request.max_results;
    bool truncated = false;
    const Vocabulary& idb = view.GetProgram().Idb();
    JsonValue relations = JsonValue::Array();
    for (int rel = 0; rel < idb.NumRelations(); ++rel) {
      const std::set<Tuple>& tuples = view.IdbRelation(rel);
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(idb.Name(rel)));
      entry.Set("arity", JsonValue::Int(idb.Arity(rel)));
      entry.Set("size", JsonValue::Uint(tuples.size()));
      JsonValue list = JsonValue::Array();
      for (const Tuple& t : tuples) {
        if (remaining == 0) {
          truncated = true;
          break;
        }
        --remaining;
        list.Append(TupleJson(t));
      }
      entry.Set("tuples", std::move(list));
      relations.Append(std::move(entry));
    }
    response.Set("idb", std::move(relations));
    response.Set("truncated", JsonValue::Bool(truncated));
    return true;
  }

  const WorkloadSpec& spec_;
  Tracer& tracer_;
  std::atomic<bool> cancel_{false};
  std::unordered_map<std::string, std::shared_ptr<const Structure>> named_;
  std::map<std::string, std::unique_ptr<MaterializedView>> views_;
  std::set<const Structure*> indexed_;
  std::unordered_map<uint64_t, std::shared_ptr<const UnionOfCq>> memo_;
  std::deque<uint64_t> memo_order_;
  std::optional<Work> work_;
};

}  // namespace

ReplayResult Replay(const WorkloadSpec& spec, bool traced) {
  ReplayResult result;
  Tracer tracer(false);
  Replayer replayer(spec, tracer);
  replayer.SetUp(&result);
  for (const auto& [c, i] :
       InterleavedOrder(spec, 0, spec.warmup * kConnections)) {
    if (i >= spec.warmup) continue;
    const GenRequest& request = spec.streams[static_cast<size_t>(c)][i];
    if (!replayer.Execute(Payload(request, RequestId(c, i)), &result)) {
      ++result.failed;
    }
  }
  // Payloads are built before the clock starts, as the client does.
  std::vector<std::pair<int64_t, std::string>> payloads;
  for (const auto& [c, i] : InterleavedOrder(spec, spec.warmup, spec.replay)) {
    payloads.emplace_back(RequestId(c, i),
                          Payload(spec.streams[static_cast<size_t>(c)][i],
                                  RequestId(c, i)));
  }
  tracer.SetEnabled(traced);
  if (traced) tracer.Reserve(payloads.size() * kSpansPerRequest);
  const int64_t start = NowNs();
  for (const auto& [id, payload] : payloads) {
    tracer.SetRequest(id);
    if (!replayer.Execute(payload, &result)) ++result.failed;
  }
  result.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  result.requests = payloads.size();
  result.spans = tracer.Spans();
  return result;
}

}  // namespace hompresd_bench
