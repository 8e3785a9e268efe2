// E16 — hompresd serving overhead: roundtrip latency and throughput of
// the daemon under a closed-loop load generator. The server is hosted
// in-process on a private socket (or an external daemon via
// HOMPRESD_SOCKET); every client thread is one connection issuing
// hom_has/cq_evaluate requests against a registry-named target, so the
// fingerprint batcher and the shared HomCache both engage. Counters
// carry the server-side p50/p99 and batching shape into
// BENCH_results.json for bench/check_regression.py.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "json_main.h"

#include "base/check.h"
#include "graph/builders.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "structure/generators.h"

namespace hompres {
namespace {

// The benchmark's serving endpoint: an external daemon when
// HOMPRESD_SOCKET is set, otherwise a lazily started in-process server
// shared by every benchmark (and every load-generating thread).
class BenchEndpoint {
 public:
  static BenchEndpoint& Get() {
    static BenchEndpoint* endpoint = new BenchEndpoint();
    return *endpoint;
  }

  const std::string& SocketPath() const { return socket_path_; }

  ServerMetricsSnapshot Metrics() {
    if (server_ != nullptr) return server_->Metrics();
    // External daemon: pull the counters over the wire.
    Client client;
    ServerMetricsSnapshot out;
    if (!client.Connect(socket_path_)) return out;
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(1));
    request.Set("op", JsonValue::String("stats"));
    auto response = client.Roundtrip(request);
    if (!response.has_value()) return out;
    const JsonValue* stats = response->Find("stats");
    if (stats == nullptr) return out;
    auto u64 = [stats](const char* key) -> uint64_t {
      const JsonValue* v = stats->Find(key);
      return v == nullptr ? 0 : v->AsUint64().value_or(0);
    };
    out.batches_executed = u64("batches_executed");
    out.batched_requests = u64("batched_requests");
    out.cache_consults = u64("cache_consults");
    out.cache_hits = u64("cache_hits");
    const JsonValue* latency = stats->Find("latency");
    if (latency != nullptr) {
      auto l64 = [latency](const char* key) -> uint64_t {
        const JsonValue* v = latency->Find(key);
        return v == nullptr ? 0 : v->AsUint64().value_or(0);
      };
      out.latency.p50_us = l64("p50_us");
      out.latency.p99_us = l64("p99_us");
    }
    return out;
  }

 private:
  BenchEndpoint() {
    const char* external = std::getenv("HOMPRESD_SOCKET");
    if (external != nullptr && *external != '\0') {
      socket_path_ = external;
    } else {
      socket_path_ =
          "/tmp/hompresd-bench-" + std::to_string(::getpid()) + ".sock";
      ServerOptions options;
      options.socket_path = socket_path_;
      options.num_workers = 2;
      server_ = std::make_unique<Server>(options);
      std::string error;
      HOMPRES_CHECK(server_->Start(&error));
    }
    // The shared target every load thread queries by name: a modest
    // grid, large enough that serving cost is not pure syscall noise.
    Client client;
    HOMPRES_CHECK(client.Connect(socket_path_));
    JsonValue define = JsonValue::Object();
    define.Set("id", JsonValue::Int(1));
    define.Set("op", JsonValue::String("define"));
    define.Set("name", JsonValue::String("bench_grid"));
    define.Set("structure",
               JsonValue::String(
                   StructureText(UndirectedGraphStructure(GridGraph(8, 8)))));
    auto response = client.Roundtrip(define);
    HOMPRES_CHECK(response.has_value() &&
                  response->Find("ok")->AsBool());
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
};

JsonValue HomHasRequest(int64_t id, const std::string& source_text) {
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(id));
  request.Set("op", JsonValue::String("hom_has"));
  request.Set("source", JsonValue::String(source_text));
  request.Set("target", JsonValue::String("@bench_grid"));
  return request;
}

void BM_ServerPing(benchmark::State& state) {
  BenchEndpoint& endpoint = BenchEndpoint::Get();
  Client client;
  HOMPRES_CHECK(client.Connect(endpoint.SocketPath()));
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(1));
  request.Set("op", JsonValue::String("ping"));
  for (auto _ : state) {
    auto response = client.Roundtrip(request);
    HOMPRES_CHECK(response.has_value());
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}

// Closed-loop hom_has load: every benchmark thread is one client
// connection, all against the same named target, so concurrent requests
// land in one fingerprint batch and has-answers hit the shared cache.
void BM_ServerHomHas(benchmark::State& state) {
  BenchEndpoint& endpoint = BenchEndpoint::Get();
  Client client;
  HOMPRES_CHECK(client.Connect(endpoint.SocketPath()));
  // A handful of distinct sources so the cache sees both hits and
  // misses; rotated per iteration.
  const std::string sources[] = {
      StructureText(DirectedPathStructure(3)),
      StructureText(DirectedPathStructure(5)),
      StructureText(DirectedCycleStructure(4)),
      StructureText(DirectedCycleStructure(6)),
  };
  const ServerMetricsSnapshot before = endpoint.Metrics();
  int64_t id = 0;
  for (auto _ : state) {
    ++id;
    auto response = client.Roundtrip(HomHasRequest(id, sources[id % 4]));
    HOMPRES_CHECK(response.has_value() &&
                  response->Find("ok")->AsBool());
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const ServerMetricsSnapshot after = endpoint.Metrics();
    state.counters["p50_us"] = static_cast<double>(after.latency.p50_us);
    state.counters["p99_us"] = static_cast<double>(after.latency.p99_us);
    const uint64_t batches = after.batches_executed - before.batches_executed;
    const uint64_t batched = after.batched_requests - before.batched_requests;
    state.counters["avg_batch"] =
        batches == 0 ? 0.0
                     : static_cast<double>(batched) /
                           static_cast<double>(batches);
    const uint64_t consults = after.cache_consults - before.cache_consults;
    const uint64_t hits = after.cache_hits - before.cache_hits;
    state.counters["cache_hit_rate"] =
        consults == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(consults);
  }
}

// One CQ evaluation per roundtrip: triangle pattern with one free
// variable over the named grid (answer set is empty — grids are
// triangle-free — so the cost is the search, not serialization).
void BM_ServerCqEvaluate(benchmark::State& state) {
  BenchEndpoint& endpoint = BenchEndpoint::Get();
  Client client;
  HOMPRES_CHECK(client.Connect(endpoint.SocketPath()));
  JsonValue query = JsonValue::Object();
  query.Set("structure", JsonValue::String(
                             "|A|=3; E={(0 1),(1 2),(2 0)}"));
  JsonValue free = JsonValue::Array();
  free.Append(JsonValue::Int(0));
  query.Set("free", std::move(free));
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(1));
  request.Set("op", JsonValue::String("cq_evaluate"));
  request.Set("target", JsonValue::String("@bench_grid"));
  request.Set("query", std::move(query));
  for (auto _ : state) {
    auto response = client.Roundtrip(request);
    HOMPRES_CHECK(response.has_value() &&
                  response->Find("ok")->AsBool());
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ServerPing);
BENCHMARK(BM_ServerHomHas)->Threads(1)->Threads(4);
BENCHMARK(BM_ServerCqEvaluate);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
