#include "server/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/failpoint.h"
#include "base/outcome.h"
#include "base/sharded_cache.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "datalog/incremental.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "hom/hom_cache.h"
#include "opt/optimizer.h"
#include "server/frame.h"
#include "server/json.h"
#include "server/protocol.h"
#include "structure/delta.h"
#include "structure/parser.h"

namespace hompres {

namespace {

// Upper clamp on per-request result lists, so one enumerate cannot ask
// the server to serialize an unbounded answer into one frame.
constexpr uint64_t kMaxResultsCap = 65536;

// Per-connection send timeout: a client that stops draining its socket
// is dropped rather than allowed to wedge a worker thread mid-batch.
constexpr int kSendTimeoutSeconds = 10;

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

// One block of the stats response: the counters every ShardedCache
// keeps, plus its live size and integer hit rate.
JsonValue CacheStatsJson(const CacheStats& stats) {
  JsonValue out = JsonValue::Object();
  out.Set("hits", JsonValue::Uint(stats.hits));
  out.Set("misses", JsonValue::Uint(stats.misses));
  out.Set("insertions", JsonValue::Uint(stats.insertions));
  out.Set("evictions", JsonValue::Uint(stats.evictions));
  out.Set("size", JsonValue::Uint(stats.size));
  out.Set("hit_rate_percent", JsonValue::Uint(stats.HitRatePercent()));
  return out;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), admission(options.admission) {}

  // --- connection state ------------------------------------------------

  struct Connection {
    // The fd is closed only when the last reference (reader entry or
    // queued request) is gone, so no thread can ever write to a
    // recycled descriptor; teardown paths shutdown() instead.
    ~Connection() {
      if (fd >= 0) ::close(fd);
    }

    int fd = -1;
    uint64_t id = 0;
    std::mutex write_mu;
    // closed: no further writes (write fault, protocol teardown, stop).
    std::atomic<bool> closed{false};
    // disconnected doubles as the cancel flag of every in-flight Budget
    // of this client (PR-6 cancellation semantics: the next Checkpoint
    // observes it and stops the search with kCancelled).
    std::atomic<bool> disconnected{false};
  };

  struct Reader {
    std::thread thread;
    std::shared_ptr<Connection> conn;
    std::atomic<bool> done{false};
  };

  // One admitted request, with its structures resolved to snapshots at
  // admission time: "@name" references are pinned under the registry
  // lock, so a later mutate (copy-on-write swap) cannot change what
  // this request answers about, and the batcher can group by target
  // fingerprint without re-parsing.
  struct Pending {
    std::shared_ptr<Connection> conn;
    Request request;
    std::shared_ptr<const Structure> source;
    std::shared_ptr<const Structure> target;
    std::optional<ConjunctiveQuery> cq;          // cq_* ops
    std::optional<UnionOfCq> ucq;                // ucq_* ops
    std::optional<ConjunctiveQuery> q1, q2;      // cq_contained
    uint64_t batch_key = 0;  // target fingerprint; 0 = never batched
    uint64_t max_steps = 0;
    uint64_t timeout_ms = 0;
    std::chrono::steady_clock::time_point arrival;
  };

  // --- immutable-ish state --------------------------------------------

  const ServerOptions options;
  AdmissionController admission;
  ServerMetrics metrics;

  int listen_fd = -1;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  std::atomic<uint64_t> next_connection_id{1};

  std::thread accept_thread;
  std::vector<std::thread> workers;

  std::mutex readers_mu;
  std::list<Reader> readers;

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Pending> queue;

  // Named structures, copy-on-write: lookups pin a snapshot; "mutate"
  // builds a new Structure and swaps the pointer. Fingerprints (and so
  // HomCache keys) are pure functions of the snapshot's value, which is
  // the daemon's only freshness mechanism — there is no cache flush.
  std::mutex registry_mu;
  std::unordered_map<std::string, std::shared_ptr<const Structure>> registry;
  // Monotone per-name mutation version: 0 at define, bumped by every
  // effective delta op a mutate applies. (Structure::Version() orders
  // the states of one instance and restarts on the copy-on-write
  // copies, so the registry keeps its own counter.)
  std::unordered_map<std::string, uint64_t> registry_versions;

  // Materialized Datalog views, each bound to a named structure and kept
  // warm by every mutate of that structure (datalog/incremental.h). A
  // view owns its own base copy; it starts from the bound snapshot and
  // replays exactly the deltas the registry applies, so base and view
  // stay fingerprint-identical. Guarded by registry_mu: define / mutate
  // / view ops are inline reader-thread work, and maintenance cost
  // scales with the delta, not the base.
  struct View {
    std::string base;  // bound structure name
    MaterializedViewOptions options;
    std::unique_ptr<MaterializedView> view;
  };
  std::unordered_map<std::string, View> views;
  std::atomic<uint64_t> views_maintained{0};  // incremental Apply() calls
  std::atomic<uint64_t> views_recomputed{0};  // of those, full refixpoints

  // Optimize-once memo for served UCQs, keyed by UcqFingerprint (order-
  // and renaming-invariant, opt/canonical.h): a batch of requests over
  // the same union — even re-sent with permuted disjuncts or renamed
  // variables — pays one optimization pass. Entries are immutable
  // snapshots, so in-flight requests pinning one are unaffected by
  // eviction. One CLOCK shard of kUcqMemoCapacity entries; the
  // containment cache underneath keeps the pairwise verdicts warm even
  // across evictions.
  static constexpr size_t kUcqMemoCapacity = 128;
  ShardedCache<uint64_t, std::shared_ptr<const UnionOfCq>> ucq_memo{
      1, kUcqMemoCapacity};

  // The memoized optimization of `q` (computing and inserting it on the
  // first sight of its fingerprint). Two workers racing on a new
  // fingerprint both compute the same deterministic result and the
  // later insert refreshes the entry, rather than serializing every UCQ
  // behind one optimizing thread.
  std::shared_ptr<const UnionOfCq> OptimizedUcq(const UnionOfCq& q) {
    const uint64_t fingerprint = UcqFingerprint(q);
    if (auto hit = ucq_memo.Lookup(fingerprint)) return *std::move(hit);
    Budget budget = Budget::MaxSteps(options.optimize_max_steps);
    // An exhausted pass returns the input unchanged (still equivalent);
    // memoizing that result keeps a pathological union from re-running
    // the optimizer on every request.
    auto optimized = std::make_shared<const UnionOfCq>(
        OptimizeUcqBudgeted(q, budget));
    ucq_memo.Insert(fingerprint, optimized);
    return optimized;
  }

  // --- socket helpers --------------------------------------------------

  bool SendAll(Connection& conn, const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(conn.fd, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Serializes `response` into one frame and writes it under the
  // connection's write lock. A write fault (real, or the
  // "server/frame_write" failpoint) tears down this connection only.
  bool SendResponse(const std::shared_ptr<Connection>& conn,
                    const JsonValue& response) {
    std::string payload = response.Serialize();
    if (payload.size() > kMaxFramePayloadBytes) {
      payload =
          ErrorResponse(RequestIdOrZero(response), "response/oversized",
                        "response exceeds the frame cap; lower max_results")
              .Serialize();
    }
    const std::string frame = EncodeFrame(payload);
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->closed.load(std::memory_order_relaxed)) return false;
    if (HOMPRES_FAILPOINT("server/frame_write") || !SendAll(*conn, frame)) {
      DropConnection(*conn);
      return false;
    }
    return true;
  }

  // Marks the connection dead and shuts the socket down so its reader
  // thread wakes; the fd itself is closed by the reader's teardown.
  void DropConnection(Connection& conn) {
    if (!conn.closed.exchange(true)) {
      metrics.connections_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    conn.disconnected.store(true, std::memory_order_relaxed);
    ::shutdown(conn.fd, SHUT_RDWR);
  }

  // --- registry --------------------------------------------------------

  std::shared_ptr<const Structure> LookupNamed(const std::string& name) {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto it = registry.find(name);
    return it == registry.end() ? nullptr : it->second;
  }

  // --- request resolution (reader threads) ----------------------------

  // Picks the vocabulary governing a request's inline structure texts
  // and resolves the target. See the precedence rules in DESIGN.md
  // §4.7: explicit "vocabulary" field > named target's vocabulary >
  // {E/2} default.
  bool ResolveTarget(const Request& request, Pending* pending,
                     Vocabulary* vocabulary, ProtocolError* error) {
    if (!request.target_spec.empty() && request.target_spec[0] == '@') {
      const std::string name = request.target_spec.substr(1);
      auto named = LookupNamed(name);
      if (named == nullptr) {
        error->code = "registry/unknown-name";
        error->message = "no structure named '" + name + "' is defined";
        return false;
      }
      if (request.vocabulary.has_value() &&
          !(*request.vocabulary == named->GetVocabulary())) {
        error->code = "request/invalid";
        error->message =
            "request vocabulary differs from structure '" + name + "'";
        return false;
      }
      *vocabulary = named->GetVocabulary();
      pending->target = std::move(named);
      return true;
    }
    *vocabulary =
        request.vocabulary.has_value() ? *request.vocabulary
                                       : GraphVocabulary();
    ParseError parse_error;
    auto parsed =
        ParseStructure(request.target_spec, *vocabulary, &parse_error);
    if (!parsed.has_value()) {
      error->code = "structure/parse";
      error->message = "target: " + parse_error.message;
      error->line = parse_error.line;
      error->column = parse_error.column;
      return false;
    }
    pending->target = std::make_shared<const Structure>(*std::move(parsed));
    return true;
  }

  bool ParseInline(const std::string& text, const Vocabulary& vocabulary,
                   const char* what,
                   std::shared_ptr<const Structure>* out,
                   ProtocolError* error) {
    ParseError parse_error;
    auto parsed = ParseStructure(text, vocabulary, &parse_error);
    if (!parsed.has_value()) {
      error->code = "structure/parse";
      error->message = std::string(what) + ": " + parse_error.message;
      error->line = parse_error.line;
      error->column = parse_error.column;
      return false;
    }
    *out = std::make_shared<const Structure>(*std::move(parsed));
    return true;
  }

  // Builds a ConjunctiveQuery out of a wire CqSpec, validating what the
  // ConjunctiveQuery constructor would otherwise CHECK.
  bool BuildCq(const CqSpec& spec, const Vocabulary& vocabulary,
               const char* what, std::optional<ConjunctiveQuery>* out,
               ProtocolError* error) {
    std::shared_ptr<const Structure> canonical;
    if (!ParseInline(spec.structure_text, vocabulary, what, &canonical,
                     error)) {
      return false;
    }
    for (int e : spec.free_elements) {
      if (e < 0 || e >= canonical->UniverseSize()) {
        error->code = "query/invalid";
        error->message = std::string(what) +
                         ": free variable out of the canonical universe";
        return false;
      }
    }
    out->emplace(ConjunctiveQuery(*canonical, spec.free_elements));
    return true;
  }

  // Resolves every structure a request references. True on success;
  // false leaves *error set and nothing admitted.
  bool Resolve(const Request& request, Pending* pending,
               ProtocolError* error) {
    Vocabulary vocabulary;
    switch (request.op) {
      case RequestOp::kHomHas:
      case RequestOp::kHomFind:
      case RequestOp::kHomCount:
      case RequestOp::kHomEnumerate:
        if (!ResolveTarget(request, pending, &vocabulary, error) ||
            !ParseInline(request.source_text, vocabulary, "source",
                         &pending->source, error)) {
          return false;
        }
        break;
      case RequestOp::kCqSatisfied:
      case RequestOp::kCqEvaluate:
        if (!ResolveTarget(request, pending, &vocabulary, error) ||
            !BuildCq(request.query, vocabulary, "query", &pending->cq,
                     error)) {
          return false;
        }
        break;
      case RequestOp::kUcqSatisfied:
      case RequestOp::kUcqEvaluate: {
        if (!ResolveTarget(request, pending, &vocabulary, error)) {
          return false;
        }
        std::vector<ConjunctiveQuery> disjuncts;
        int arity = request.ucq_arity;
        for (size_t i = 0; i < request.disjuncts.size(); ++i) {
          std::optional<ConjunctiveQuery> cq;
          if (!BuildCq(request.disjuncts[i], vocabulary, "disjuncts", &cq,
                       error)) {
            return false;
          }
          if (i == 0) {
            arity = cq->Arity();
          } else if (cq->Arity() != arity) {
            error->code = "query/invalid";
            error->message = "disjuncts disagree on arity";
            return false;
          }
          disjuncts.push_back(*std::move(cq));
        }
        pending->ucq.emplace(UnionOfCq(std::move(disjuncts), arity));
        break;
      }
      case RequestOp::kCqContained: {
        vocabulary = request.vocabulary.has_value() ? *request.vocabulary
                                                    : GraphVocabulary();
        if (!BuildCq(request.q1, vocabulary, "q1", &pending->q1, error) ||
            !BuildCq(request.q2, vocabulary, "q2", &pending->q2, error)) {
          return false;
        }
        if (pending->q1->Arity() != pending->q2->Arity()) {
          error->code = "query/invalid";
          error->message = "q1 and q2 disagree on arity";
          return false;
        }
        break;
      }
      default:
        break;
    }
    if (pending->target != nullptr && options.batching) {
      pending->batch_key = pending->target->Fingerprint();
    }
    return true;
  }

  // --- execution (worker threads) -------------------------------------

  static const char* OutcomeName(StopReason reason) {
    switch (reason) {
      case StopReason::kNone:
        return "done";
      case StopReason::kCancelled:
        return "cancelled";
      default:
        return "exhausted";
    }
  }

  // The budget-report fields shared by every executed response.
  static void SetBudgetFields(const BudgetReport& report, JsonValue* out) {
    out->Set("outcome", JsonValue::String(OutcomeName(report.reason)));
    out->Set("stop_reason", JsonValue::String(StopReasonName(report.reason)));
    out->Set("steps_used", JsonValue::Uint(report.steps_used));
    out->Set("elapsed_us",
             JsonValue::Uint(static_cast<uint64_t>(
                 std::chrono::duration_cast<std::chrono::microseconds>(
                     report.elapsed)
                     .count())));
  }

  void SetTraceFields(const HomPlan& plan, const ExecutionTrace& trace,
                      JsonValue* out) {
    out->Set("plan", JsonValue::String(plan.Summary()));
    JsonValue cache = JsonValue::Object();
    cache.Set("consulted", JsonValue::Bool(trace.cache_consulted));
    cache.Set("hit", JsonValue::Bool(trace.cache_hit));
    out->Set("cache", std::move(cache));
    if (!trace.degradations.empty()) {
      JsonValue events = JsonValue::Array();
      for (const DegradationEvent& event : trace.degradations) {
        JsonValue e = JsonValue::Object();
        e.Set("kind", JsonValue::String(DegradationKindName(event.kind)));
        e.Set("site", JsonValue::String(event.site));
        e.Set("detail", JsonValue::String(event.detail));
        events.Append(std::move(e));
      }
      out->Set("degradations", std::move(events));
      metrics.degraded_executions.fetch_add(1, std::memory_order_relaxed);
    }
    if (trace.cache_consulted) {
      metrics.cache_consults.fetch_add(1, std::memory_order_relaxed);
      if (trace.cache_hit) {
        metrics.cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  Budget MakeBudget(const Pending& pending) {
    Budget budget;
    if (pending.max_steps != 0) budget.WithMaxSteps(pending.max_steps);
    if (pending.timeout_ms != 0) {
      budget.WithTimeout(std::chrono::milliseconds(pending.timeout_ms));
    }
    budget.WithCancelFlag(&pending.conn->disconnected);
    return budget;
  }

  JsonValue ExecuteHom(const Pending& pending) {
    const Request& request = pending.request;
    HomProblem problem;
    problem.source = pending.source.get();
    problem.target = pending.target.get();
    problem.limit = request.limit;
    std::vector<std::vector<int>> witnesses;
    const uint64_t max_results =
        std::min<uint64_t>(request.max_results, kMaxResultsCap);
    bool truncated = false;
    switch (request.op) {
      case RequestOp::kHomHas:
        problem.mode = HomQueryMode::kHas;
        break;
      case RequestOp::kHomFind:
        problem.mode = HomQueryMode::kFind;
        break;
      case RequestOp::kHomCount:
        problem.mode = HomQueryMode::kCount;
        break;
      default:
        problem.mode = HomQueryMode::kEnumerate;
        problem.callback = [&witnesses, max_results,
                            &truncated](const std::vector<int>& h) {
          if (witnesses.size() >= max_results) {
            truncated = true;
            return false;
          }
          witnesses.push_back(h);
          return true;
        };
    }

    EngineConfig config = request.config;
    if (!request.cache_explicit) {
      config.use_cache = options.shared_cache &&
                         (problem.mode == HomQueryMode::kHas ||
                          problem.mode == HomQueryMode::kCount);
    }

    PlanResult planned = PlanHomQuery(problem, config);
    if (planned.error.has_value()) {
      return ErrorResponse(
          request.id,
          std::string("plan/") + PlanErrorCodeName(planned.error->code),
          planned.error->message);
    }

    Budget budget = MakeBudget(pending);
    ExecutionTrace trace;
    const Outcome<HomResult> outcome =
        Engine::Execute(*planned.plan, budget, &trace);

    JsonValue response = OkResponse(request.id, request.op);
    SetBudgetFields(outcome.Report(), &response);
    SetTraceFields(*planned.plan, trace, &response);
    if (outcome.IsDone()) {
      const HomResult& result = outcome.Value();
      switch (problem.mode) {
        case HomQueryMode::kHas:
          response.Set("has", JsonValue::Bool(result.has));
          break;
        case HomQueryMode::kFind:
          if (result.witness.has_value()) {
            response.Set("witness", TupleJson(*result.witness));
          } else {
            response.Set("witness", JsonValue::Null());
          }
          break;
        case HomQueryMode::kCount:
          response.Set("count", JsonValue::Uint(result.count));
          break;
        case HomQueryMode::kEnumerate:
          response.Set("witnesses", TupleListJson(witnesses));
          response.Set("enumeration_completed",
                       JsonValue::Bool(result.enumeration_completed));
          response.Set("truncated", JsonValue::Bool(truncated));
          break;
      }
    }
    return response;
  }

  JsonValue ExecuteCq(const Pending& pending) {
    const Request& request = pending.request;
    JsonValue response = OkResponse(request.id, request.op);
    // The CQ/UCQ entry points are the library's unbudgeted public API
    // (they run the engine with Budget::Unlimited and the cache on);
    // the daemon serves them as-is so its answers are bit-identical to
    // in-process calls. Cancellation on disconnect still applies to
    // queued-but-unstarted requests.
    const uint64_t max_results =
        std::min<uint64_t>(request.max_results, kMaxResultsCap);
    switch (request.op) {
      case RequestOp::kCqSatisfied:
        response.Set("satisfied",
                     JsonValue::Bool(pending.cq->SatisfiedBy(*pending.target)));
        break;
      case RequestOp::kCqEvaluate: {
        std::vector<Tuple> answers = pending.cq->Evaluate(*pending.target);
        const bool truncated = answers.size() > max_results;
        if (truncated) answers.resize(max_results);
        response.Set("answers", TupleListJson(answers));
        response.Set("truncated", JsonValue::Bool(truncated));
        break;
      }
      case RequestOp::kUcqSatisfied:
      case RequestOp::kUcqEvaluate: {
        // Serve the optimized (redundancy-free, equivalent) union when
        // enabled; the memo makes repeats of the same union free.
        std::shared_ptr<const UnionOfCq> optimized;
        const UnionOfCq* ucq = &*pending.ucq;
        if (options.optimize) {
          optimized = OptimizedUcq(*pending.ucq);
          ucq = optimized.get();
        }
        if (request.op == RequestOp::kUcqSatisfied) {
          response.Set("satisfied",
                       JsonValue::Bool(ucq->SatisfiedBy(*pending.target)));
          break;
        }
        std::vector<Tuple> answers = ucq->Evaluate(*pending.target);
        const bool truncated = answers.size() > max_results;
        if (truncated) answers.resize(max_results);
        response.Set("answers", TupleListJson(answers));
        response.Set("truncated", JsonValue::Bool(truncated));
        break;
      }
      default: {
        // Uncached: the containment cache serves the optimizer.
        Budget unlimited = Budget::Unlimited();
        response.Set("contained",
                     JsonValue::Bool(CqContainedBudgeted(
                         *pending.q1, *pending.q2, unlimited).Value()));
        break;
      }
    }
    response.Set("outcome", JsonValue::String("done"));
    return response;
  }

  JsonValue Execute(const Pending& pending, size_t batch_size,
                    bool shared_index) {
    JsonValue response = IsHomOp(pending.request.op) ? ExecuteHom(pending)
                                                     : ExecuteCq(pending);
    JsonValue batch = JsonValue::Object();
    batch.Set("size", JsonValue::Uint(batch_size));
    batch.Set("shared_index", JsonValue::Bool(shared_index));
    response.Set("batch", std::move(batch));
    return response;
  }

  void ExecuteBatch(std::vector<Pending>& batch) {
    // One index build amortized across the batch: the target snapshot
    // is shared, so warming its lazy RelationIndex here means every
    // member's kernels find it already built. A fault (the
    // "server/batch_build" failpoint) degrades to per-request builds —
    // each member then probes TryIndex itself and, if that also fails,
    // falls down the §4.6 ladder to scans; answers never change.
    bool shared_index = false;
    if (batch.size() > 1 && batch[0].target != nullptr) {
      if (!HOMPRES_FAILPOINT("server/batch_build")) {
        shared_index = batch[0].target->TryIndex() != nullptr;
      }
    }
    metrics.RecordBatch(batch.size());
    for (Pending& pending : batch) {
      if (pending.conn->disconnected.load(std::memory_order_relaxed)) {
        metrics.requests_dropped.fetch_add(1, std::memory_order_relaxed);
        admission.Release(pending.conn->id);
        continue;
      }
      JsonValue response = Execute(pending, batch.size(), shared_index);
      const bool ok =
          response.Find("ok") != nullptr && response.Find("ok")->AsBool();
      if (SendResponse(pending.conn, response)) {
        (ok ? metrics.requests_ok : metrics.requests_error)
            .fetch_add(1, std::memory_order_relaxed);
      }
      const auto elapsed = std::chrono::steady_clock::now() - pending.arrival;
      metrics.latency.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count()));
      admission.Release(pending.conn->id);
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::vector<Pending> batch;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [this] {
          return stopping.load(std::memory_order_relaxed) || !queue.empty();
        });
        if (queue.empty()) {
          if (stopping.load(std::memory_order_relaxed)) return;
          continue;
        }
        batch.push_back(std::move(queue.front()));
        queue.pop_front();
        // Gather the rest of the batch: queued requests against the
        // same target snapshot (equal nonzero fingerprint), preserving
        // queue order among both the gathered and the left-behind.
        const uint64_t key = batch[0].batch_key;
        if (options.batching && key != 0) {
          for (auto it = queue.begin();
               it != queue.end() && batch.size() < options.max_batch;) {
            if (it->batch_key == key) {
              batch.push_back(std::move(*it));
              it = queue.erase(it);
            } else {
              ++it;
            }
          }
        }
        metrics.queue_depth.store(queue.size(), std::memory_order_relaxed);
      }
      ExecuteBatch(batch);
    }
  }

  // --- inline ops (reader threads) ------------------------------------

  JsonValue HandleDefine(const Request& request) {
    if (request.name.empty() || request.name.size() > 128 ||
        request.name.find('@') != std::string::npos) {
      return ErrorResponse(request.id, "request/invalid",
                           "'name' must be nonempty, short, and '@'-free");
    }
    const Vocabulary vocabulary = request.vocabulary.has_value()
                                      ? *request.vocabulary
                                      : GraphVocabulary();
    ParseError parse_error;
    auto parsed =
        ParseStructure(request.structure_text, vocabulary, &parse_error);
    if (!parsed.has_value()) {
      ProtocolError error;
      error.code = "structure/parse";
      error.message = parse_error.message;
      error.line = parse_error.line;
      error.column = parse_error.column;
      return ErrorResponse(request.id, error);
    }
    auto stored = std::make_shared<const Structure>(*std::move(parsed));
    const uint64_t fingerprint = stored->Fingerprint();
    {
      std::lock_guard<std::mutex> lock(registry_mu);
      registry[request.name] = stored;
      registry_versions[request.name] = 0;
      // Redefining a structure replaces its value wholesale, so every
      // bound view rebuilds from scratch on the new base (warm
      // maintenance is only sound across deltas of the same value).
      for (auto& [view_name, view] : views) {
        if (view.base != request.name) continue;
        view.view = std::make_unique<MaterializedView>(
            view.view->GetProgram(), *stored, view.options);
        views_recomputed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    JsonValue response = OkResponse(request.id, request.op);
    response.Set("fingerprint", JsonValue::Uint(fingerprint));
    return response;
  }

  // Validates one mutate tuple op against the post-append universe and
  // adds it to the delta. `what` is the wire field for error messages.
  bool AddTupleOp(const Structure& base, const std::string& relation,
                  const std::vector<int>& tuple, int new_universe,
                  bool insert, const char* what, StructureDelta* delta,
                  std::string* message) {
    const auto rel = base.GetVocabulary().IndexOf(relation);
    if (!rel.has_value()) {
      *message = "unknown relation '" + relation + "'";
      return false;
    }
    if (static_cast<int>(tuple.size()) != base.GetVocabulary().Arity(*rel)) {
      *message = std::string("'") + what + ".tuple' arity mismatch";
      return false;
    }
    for (int e : tuple) {
      if (e < 0 || e >= new_universe) {
        *message = std::string("'") + what + ".tuple' element out of range";
        return false;
      }
    }
    if (insert) {
      delta->InsertTuple(*rel, tuple);
    } else {
      delta->RemoveTuple(*rel, tuple);
    }
    return true;
  }

  static JsonValue DeltaAppliedJson(const DeltaApplyResult& applied) {
    JsonValue out = JsonValue::Object();
    out.Set("inserted", JsonValue::Int(applied.tuples_inserted));
    out.Set("removed", JsonValue::Int(applied.tuples_removed));
    out.Set("elements", JsonValue::Int(applied.elements_appended));
    out.Set("noops", JsonValue::Int(applied.noop_ops));
    out.Set("index_maintained", JsonValue::Bool(applied.index_maintained));
    out.Set("index_degraded", JsonValue::Bool(applied.index_degraded));
    out.Set("index_compacted", JsonValue::Bool(applied.index_compacted));
    out.Set("version", JsonValue::Uint(applied.version));
    return out;
  }

  static JsonValue ViewStatsJson(const std::string& name,
                                 const ViewMaintenanceStats& stats) {
    JsonValue out = JsonValue::Object();
    out.Set("name", JsonValue::String(name));
    out.Set("strategy",
            JsonValue::String(MaintainStrategyName(stats.plan.strategy)));
    out.Set("summary", JsonValue::String(stats.plan.Summary()));
    out.Set("derivations", JsonValue::Int(stats.derivations));
    out.Set("rounds", JsonValue::Int(stats.rounds));
    out.Set("idb_inserted", JsonValue::Int(stats.idb_inserted));
    out.Set("idb_removed", JsonValue::Int(stats.idb_removed));
    out.Set("rederived", JsonValue::Int(stats.rederived));
    out.Set("recomputed", JsonValue::Bool(stats.recomputed));
    if (!stats.plan.degradations.empty()) {
      JsonValue events = JsonValue::Array();
      for (const DegradationEvent& event : stats.plan.degradations) {
        JsonValue e = JsonValue::Object();
        e.Set("kind", JsonValue::String(DegradationKindName(event.kind)));
        e.Set("site", JsonValue::String(event.site));
        e.Set("detail", JsonValue::String(event.detail));
        events.Append(std::move(e));
      }
      out.Set("degradations", std::move(events));
    }
    return out;
  }

  JsonValue HandleMutate(const Request& request) {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto it = registry.find(request.name);
    if (it == registry.end()) {
      return ErrorResponse(request.id, "registry/unknown-name",
                           "no structure named '" + request.name +
                               "' is defined");
    }
    const Structure& base = *it->second;

    // The request is one StructureDelta: appends first (so new tuples
    // may reference the appended elements), then the insert, then the
    // remove. The same script drives the registry copy and every bound
    // view, which is what keeps them fingerprint-identical.
    StructureDelta delta;
    if (request.mutate_add_elements > 0) {
      delta.AppendElements(request.mutate_add_elements);
    }
    const int new_universe =
        base.UniverseSize() + request.mutate_add_elements;
    std::string message;
    if (!request.mutate_relation.empty() &&
        !AddTupleOp(base, request.mutate_relation, request.mutate_tuple,
                    new_universe, /*insert=*/true, "add_tuple", &delta,
                    &message)) {
      return ErrorResponse(request.id, "request/invalid", message);
    }
    if (!request.mutate_remove_relation.empty() &&
        !AddTupleOp(base, request.mutate_remove_relation,
                    request.mutate_remove_tuple, new_universe,
                    /*insert=*/false, "remove_tuple", &delta, &message)) {
      return ErrorResponse(request.id, "request/invalid", message);
    }

    // Copy-on-write: apply the delta to a fresh copy and swap the
    // snapshot in. In-flight batches keep the old pointer (and its
    // fingerprint); every later request resolves to the new one, whose
    // different fingerprint keys fresh HomCache entries — stale answers
    // are unreachable by construction, with no cache flush.
    Structure updated(base);
    const DeltaApplyResult applied = updated.Apply(delta);
    auto stored = std::make_shared<const Structure>(std::move(updated));
    const uint64_t fingerprint = stored->Fingerprint();
    it->second = std::move(stored);
    // The fresh copy's version restarted at zero, so after the apply it
    // counts exactly this delta's effective ops; fold into the
    // registry's cumulative counter.
    const uint64_t version = registry_versions[request.name] += applied.version;

    JsonValue maintenance = JsonValue::Object();
    maintenance.Set("applied", DeltaAppliedJson(applied));
    JsonValue view_stats = JsonValue::Array();
    for (auto& [view_name, view] : views) {
      if (view.base != request.name) continue;
      const ViewMaintenanceStats stats = view.view->Apply(delta);
      views_maintained.fetch_add(1, std::memory_order_relaxed);
      if (stats.recomputed) {
        views_recomputed.fetch_add(1, std::memory_order_relaxed);
      }
      if (!stats.plan.degradations.empty()) {
        metrics.degraded_executions.fetch_add(1, std::memory_order_relaxed);
      }
      view_stats.Append(ViewStatsJson(view_name, stats));
    }
    maintenance.Set("views", std::move(view_stats));

    JsonValue response = OkResponse(request.id, request.op);
    response.Set("fingerprint", JsonValue::Uint(fingerprint));
    response.Set("version", JsonValue::Uint(version));
    response.Set("maintenance", std::move(maintenance));
    return response;
  }

  JsonValue HandleViewDefine(const Request& request) {
    if (request.name.empty() || request.name.size() > 128 ||
        request.name.find('@') != std::string::npos) {
      return ErrorResponse(request.id, "request/invalid",
                           "'name' must be nonempty, short, and '@'-free");
    }
    std::lock_guard<std::mutex> lock(registry_mu);
    auto it = registry.find(request.view_on);
    if (it == registry.end()) {
      return ErrorResponse(request.id, "registry/unknown-name",
                           "no structure named '" + request.view_on +
                               "' is defined");
    }
    ParseError parse_error;
    auto program = ParseDatalogProgram(
        request.view_program, it->second->GetVocabulary(), &parse_error);
    if (!program.has_value()) {
      ProtocolError error;
      error.code = "program/parse";
      error.message = parse_error.message;
      error.line = parse_error.line;
      error.column = parse_error.column;
      return ErrorResponse(request.id, error);
    }
    View view;
    view.base = request.view_on;
    view.options.max_bounded_stage = request.view_max_bounded_stage;
    // Initial fixpoint + boundedness probe run here, inline: view_define
    // is a rare setup op, and paying it now is what makes every later
    // mutate's maintenance delta-sized.
    view.view = std::make_unique<MaterializedView>(*std::move(program),
                                                   *it->second, view.options);

    JsonValue response = OkResponse(request.id, request.op);
    response.Set("on", JsonValue::String(view.base));
    response.Set("version", JsonValue::Uint(view.view->Version()));
    response.Set("recursive", JsonValue::Bool(view.view->Recursive()));
    response.Set("bounded", JsonValue::Bool(view.view->Bounded()));
    if (view.view->Bounded()) {
      response.Set("bounded_stage", JsonValue::Int(view.view->BoundedStage()));
    }
    const Vocabulary& idb = view.view->GetProgram().Idb();
    JsonValue relations = JsonValue::Array();
    for (int rel = 0; rel < idb.NumRelations(); ++rel) {
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(idb.Name(rel)));
      entry.Set("arity", JsonValue::Int(idb.Arity(rel)));
      entry.Set("size",
                JsonValue::Uint(view.view->IdbRelation(rel).size()));
      relations.Append(std::move(entry));
    }
    response.Set("idb", std::move(relations));
    views[request.name] = std::move(view);
    return response;
  }

  JsonValue HandleViewTuples(const Request& request) {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto it = views.find(request.name);
    if (it == views.end()) {
      return ErrorResponse(request.id, "registry/unknown-view",
                           "no view named '" + request.name +
                               "' is defined");
    }
    const MaterializedView& view = *it->second.view;
    JsonValue response = OkResponse(request.id, request.op);
    response.Set("on", JsonValue::String(it->second.base));
    response.Set("version", JsonValue::Uint(view.Version()));
    response.Set("recursive", JsonValue::Bool(view.Recursive()));
    response.Set("bounded", JsonValue::Bool(view.Bounded()));
    uint64_t remaining =
        std::min<uint64_t>(request.max_results, kMaxResultsCap);
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
    return response;
  }

  JsonValue HandleStats(const Request& request) {
    JsonValue response = OkResponse(request.id, request.op);
    response.Set("stats", metrics.Snapshot().ToJson());
    response.Set("hom_cache", CacheStatsJson(GlobalHomCache().Stats()));
    response.Set("containment_cache",
                 CacheStatsJson(GlobalContainmentCache().Stats()));
    response.Set("ucq_memo", CacheStatsJson(ucq_memo.Stats()));
    JsonValue views_json = JsonValue::Object();
    views_json.Set("maintained", JsonValue::Uint(views_maintained.load(
                                     std::memory_order_relaxed)));
    views_json.Set("recomputed", JsonValue::Uint(views_recomputed.load(
                                     std::memory_order_relaxed)));
    {
      std::lock_guard<std::mutex> lock(registry_mu);
      views_json.Set("count", JsonValue::Uint(views.size()));
    }
    response.Set("views", std::move(views_json));
    return response;
  }

  // --- frame handling (reader threads) --------------------------------

  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const std::string& payload) {
    ParseError json_error;
    auto parsed = ParseJson(payload, &json_error);
    if (!parsed.has_value()) {
      ProtocolError error;
      error.code = "json/parse";
      error.message = json_error.message;
      error.line = json_error.line;
      error.column = json_error.column;
      metrics.requests_error.fetch_add(1, std::memory_order_relaxed);
      SendResponse(conn, ErrorResponse(0, error));
      return;  // framing is intact; the connection survives a bad body
    }
    ProtocolError error;
    auto request = ParseRequest(*parsed, &error);
    if (!request.has_value()) {
      metrics.requests_error.fetch_add(1, std::memory_order_relaxed);
      SendResponse(conn, ErrorResponse(RequestIdOrZero(*parsed), error));
      return;
    }
    metrics.requests_received.fetch_add(1, std::memory_order_relaxed);

    switch (request->op) {
      case RequestOp::kPing: {
        JsonValue response = OkResponse(request->id, request->op);
        response.Set("pong", JsonValue::Bool(true));
        SendResponse(conn, response);
        metrics.requests_ok.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      case RequestOp::kStats:
        SendResponse(conn, HandleStats(*request));
        metrics.requests_ok.fetch_add(1, std::memory_order_relaxed);
        return;
      case RequestOp::kDefine:
      case RequestOp::kMutate:
      case RequestOp::kViewDefine:
      case RequestOp::kViewTuples: {
        JsonValue response;
        switch (request->op) {
          case RequestOp::kDefine:
            response = HandleDefine(*request);
            break;
          case RequestOp::kMutate:
            response = HandleMutate(*request);
            break;
          case RequestOp::kViewDefine:
            response = HandleViewDefine(*request);
            break;
          default:
            response = HandleViewTuples(*request);
        }
        const bool ok = response.Find("ok")->AsBool();
        SendResponse(conn, response);
        (ok ? metrics.requests_ok : metrics.requests_error)
            .fetch_add(1, std::memory_order_relaxed);
        return;
      }
      default:
        break;
    }

    // Queryable ops: resolve structures, admit, enqueue.
    Pending pending;
    pending.conn = conn;
    pending.request = *std::move(request);
    pending.arrival = std::chrono::steady_clock::now();
    if (!Resolve(pending.request, &pending, &error)) {
      metrics.requests_error.fetch_add(1, std::memory_order_relaxed);
      SendResponse(conn, ErrorResponse(pending.request.id, error));
      return;
    }
    auto rejection = admission.TryAdmit(conn->id);
    if (rejection.has_value()) {
      metrics.requests_rejected.fetch_add(1, std::memory_order_relaxed);
      metrics.requests_error.fetch_add(1, std::memory_order_relaxed);
      SendResponse(conn, ErrorResponse(pending.request.id, *rejection));
      return;
    }
    pending.max_steps = pending.request.max_steps;
    pending.timeout_ms = pending.request.timeout_ms;
    admission.ClampBudget(&pending.max_steps, &pending.timeout_ms);
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      if (stopping.load(std::memory_order_relaxed)) {
        admission.Release(conn->id);
        SendResponse(conn,
                     ErrorResponse(pending.request.id, "server/shutting-down",
                                   "server is shutting down"));
        return;
      }
      queue.push_back(std::move(pending));
      metrics.queue_depth.store(queue.size(), std::memory_order_relaxed);
    }
    queue_cv.notify_one();
  }

  void ReaderLoop(const std::shared_ptr<Connection>& conn) {
    FrameReader frames;
    std::vector<char> buffer(64 * 1024);
    bool teardown_sent = false;
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buffer.data(), buffer.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      // Injected read fault: the connection is torn down exactly as a
      // real socket error would tear it down.
      const bool read_fault = HOMPRES_FAILPOINT("server/frame_read");
      if (n <= 0 || read_fault) {
        if (n > 0 || (n < 0 && !read_fault) ||
            (n == 0 && frames.MidFrame())) {
          // Error, injected fault mid-stream, or EOF truncating a
          // frame: this client is not coming back cleanly.
          if (!conn->closed.exchange(true)) {
            metrics.connections_dropped.fetch_add(1,
                                                  std::memory_order_relaxed);
          }
        }
        break;
      }
      frames.Feed(buffer.data(), static_cast<size_t>(n));
      std::string payload;
      ParseError frame_error;
      for (;;) {
        const FrameReader::Status status = frames.Next(&payload, &frame_error);
        if (status == FrameReader::Status::kFrame) {
          HandleFrame(conn, payload);
          continue;
        }
        if (status == FrameReader::Status::kError) {
          // Malformed framing: answer once with a structured error,
          // then tear the connection down (the stream cannot be
          // resynchronized).
          if (!teardown_sent) {
            teardown_sent = true;
            metrics.requests_error.fetch_add(1, std::memory_order_relaxed);
            SendResponse(conn, ErrorResponse(0, "frame/malformed",
                                             frame_error.message));
          }
        }
        break;
      }
      if (teardown_sent ||
          conn->closed.load(std::memory_order_relaxed)) {
        break;
      }
    }
    // Raise the cancel flag before leaving: every in-flight Budget of
    // this client observes it at its next Checkpoint. The fd outlives
    // this thread (closed by ~Connection); shutting it down unblocks
    // any worker mid-send.
    conn->disconnected.store(true, std::memory_order_relaxed);
    conn->closed.store(true, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
    metrics.connections_active.fetch_sub(1, std::memory_order_relaxed);
  }

  void ReapReaders(bool join_all) {
    std::lock_guard<std::mutex> lock(readers_mu);
    for (auto it = readers.begin(); it != readers.end();) {
      if (join_all || it->done.load(std::memory_order_relaxed)) {
        it->thread.join();
        it = readers.erase(it);
      } else {
        ++it;
      }
    }
  }

  void AcceptLoop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (stopping.load(std::memory_order_relaxed)) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listening socket gone
      }
      // Injected accept fault: the new client is dropped (it sees EOF);
      // every established connection is untouched.
      if (HOMPRES_FAILPOINT("server/accept")) {
        metrics.connections_dropped.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        continue;
      }
      const struct timeval send_timeout = {kSendTimeoutSeconds, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                   sizeof(send_timeout));
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->id = next_connection_id.fetch_add(1, std::memory_order_relaxed);
      metrics.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      metrics.connections_active.fetch_add(1, std::memory_order_relaxed);
      ReapReaders(/*join_all=*/false);
      std::lock_guard<std::mutex> lock(readers_mu);
      readers.emplace_back();
      Reader& reader = readers.back();
      reader.conn = conn;
      reader.thread = std::thread([this, conn, &reader] {
        ReaderLoop(conn);
        reader.done.store(true, std::memory_order_relaxed);
      });
    }
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  Impl& impl = *impl_;
  if (impl.running.load()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (impl.options.socket_path.empty() ||
      impl.options.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path empty or too long for sockaddr_un";
    }
    return false;
  }
  std::memcpy(addr.sun_path, impl.options.socket_path.c_str(),
              impl.options.socket_path.size() + 1);
  impl.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl.listen_fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  ::unlink(impl.options.socket_path.c_str());  // replace a stale socket
  if (::bind(impl.listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(impl.listen_fd, 128) < 0) {
    if (error != nullptr) {
      *error = std::string("bind/listen: ") + std::strerror(errno);
    }
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return false;
  }
  impl.stopping.store(false);
  impl.running.store(true);
  impl.accept_thread = std::thread([&impl] { impl.AcceptLoop(); });
  const int num_workers = std::max(1, impl.options.num_workers);
  impl.workers.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    impl.workers.emplace_back([&impl] { impl.WorkerLoop(); });
  }
  return true;
}

void Server::Stop() {
  Impl& impl = *impl_;
  if (!impl.running.exchange(false)) return;
  impl.stopping.store(true);

  // Wake the accept thread: shutdown usually suffices on Linux; the
  // throwaway connect covers kernels where it does not.
  ::shutdown(impl.listen_fd, SHUT_RDWR);
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      struct sockaddr_un addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, impl.options.socket_path.c_str(),
                  impl.options.socket_path.size() + 1);
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
      ::close(fd);
    }
  }
  impl.accept_thread.join();
  ::close(impl.listen_fd);
  impl.listen_fd = -1;

  // Tear down every connection: raises cancel flags (in-flight budgets
  // stop with kCancelled) and wakes the reader threads.
  {
    std::lock_guard<std::mutex> lock(impl.readers_mu);
    for (auto& reader : impl.readers) {
      reader.conn->disconnected.store(true, std::memory_order_relaxed);
      ::shutdown(reader.conn->fd, SHUT_RDWR);
    }
  }
  impl.ReapReaders(/*join_all=*/true);

  // Stop the workers; queued requests from now-dead clients are
  // dropped, releasing their admission slots.
  impl.queue_cv.notify_all();
  for (std::thread& worker : impl.workers) worker.join();
  impl.workers.clear();
  {
    std::lock_guard<std::mutex> lock(impl.queue_mu);
    for (Impl::Pending& pending : impl.queue) {
      impl.metrics.requests_dropped.fetch_add(1, std::memory_order_relaxed);
      impl.admission.Release(pending.conn->id);
    }
    impl.queue.clear();
    impl.metrics.queue_depth.store(0, std::memory_order_relaxed);
  }
  ::unlink(impl.options.socket_path.c_str());
}

bool Server::Running() const { return impl_->running.load(); }

const std::string& Server::SocketPath() const {
  return impl_->options.socket_path;
}

ServerMetricsSnapshot Server::Metrics() const {
  return impl_->metrics.Snapshot();
}

}  // namespace hompres
