// hompresd: the query-serving daemon (DESIGN.md §4.7).
//
//   ./build/examples/hompresd --socket /tmp/hompresd.sock
//       [--workers <n>] [--max-batch <n>] [--no-batching]
//       [--max-queue <n>] [--max-inflight <n>]
//       [--max-steps-cap <n>] [--timeout-ms-cap <n>]
//       [--no-shared-cache] [--no-optimize]
//       [--optimize-max-steps <n>]
//
// Runs until SIGINT/SIGTERM, then drains and exits. Clients speak the
// length-prefixed JSON protocol of server/protocol.h; try:
//
//   printf '{"id":1,"op":"ping"}' | <frame it> | nc -U /tmp/hompresd.sock
//
// or use the bundled load generator (bench/bench_server.cc).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

uint64_t ParseCount(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "hompresd: %s wants a number, got '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hompres;

  ServerOptions options;
  options.socket_path = "/tmp/hompresd.sock";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hompresd: %s wants a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.socket_path = next("--socket");
    } else if (arg == "--workers") {
      options.num_workers =
          static_cast<int>(ParseCount("--workers", next("--workers")));
    } else if (arg == "--max-batch") {
      options.max_batch =
          static_cast<size_t>(ParseCount("--max-batch", next("--max-batch")));
    } else if (arg == "--no-batching") {
      options.batching = false;
    } else if (arg == "--no-shared-cache") {
      options.shared_cache = false;
    } else if (arg == "--no-optimize") {
      options.optimize = false;
    } else if (arg == "--optimize-max-steps") {
      options.optimize_max_steps =
          ParseCount("--optimize-max-steps", next("--optimize-max-steps"));
    } else if (arg == "--max-queue") {
      options.admission.max_queue =
          static_cast<size_t>(ParseCount("--max-queue", next("--max-queue")));
    } else if (arg == "--max-inflight") {
      options.admission.max_inflight_per_client = static_cast<size_t>(
          ParseCount("--max-inflight", next("--max-inflight")));
    } else if (arg == "--max-steps-cap") {
      options.admission.max_steps_cap =
          ParseCount("--max-steps-cap", next("--max-steps-cap"));
    } else if (arg == "--timeout-ms-cap") {
      options.admission.timeout_ms_cap =
          ParseCount("--timeout-ms-cap", next("--timeout-ms-cap"));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: hompresd --socket PATH [--workers N] [--max-batch N]\n"
          "                [--no-batching] [--no-shared-cache]\n"
          "                [--no-optimize] [--optimize-max-steps N]\n"
          "                [--max-queue N] [--max-inflight N]\n"
          "                [--max-steps-cap N] [--timeout-ms-cap N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "hompresd: unknown flag '%s' (try --help)\n",
                   argv[i]);
      return 2;
    }
  }

  Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "hompresd: start failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("hompresd: serving on %s (%d workers, max batch %zu%s)\n",
              server.SocketPath().c_str(), options.num_workers,
              options.max_batch, options.batching ? "" : ", batching off");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) sigsuspend(&mask);

  std::printf("hompresd: shutting down\n");
  server.Stop();
  const ServerMetricsSnapshot metrics = server.Metrics();
  std::printf(
      "hompresd: served %llu requests (%llu ok, %llu error) over %llu "
      "connections; %llu batches, max batch %llu; p50 %lluus p99 %lluus\n",
      static_cast<unsigned long long>(metrics.requests_received),
      static_cast<unsigned long long>(metrics.requests_ok),
      static_cast<unsigned long long>(metrics.requests_error),
      static_cast<unsigned long long>(metrics.connections_accepted),
      static_cast<unsigned long long>(metrics.batches_executed),
      static_cast<unsigned long long>(metrics.max_batch_size),
      static_cast<unsigned long long>(metrics.latency.p50_us),
      static_cast<unsigned long long>(metrics.latency.p99_us));
  return 0;
}
