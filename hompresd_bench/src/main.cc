// hompresd end-to-end benchmark driver.
//
//   hompresd_bench --workload <hom_miss|query_reuse|view_stream>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir DIR] [--git-sha SHA] [--source-digest D]
//
// Launches the real hompresd (shipped defaults), sets it up several
// times (set-up time is the median), drives the last instance with the
// closed-loop load generator for --seconds, checks sampled answers
// against the reference configuration, and prints one JSON result as
// the last line of stdout: end-to-end metrics with --trace 0, per-layer
// metrics (daemon counters plus a traced in-process replay run in child
// processes) with --trace 1. Exits 1 on any failed request or answer
// mismatch, 2 on bad usage or infrastructure failure. See README.md.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/simd.h"
#include "daemon.h"
#include "loadgen.h"
#include "reference.h"
#include "replay.h"
#include "server/json.h"
#include "trace.h"
#include "workload.h"

extern char** environ;

namespace hompresd_bench {
namespace {

using hompres::JsonValue;

// Set-ups per run; setup_s and client.setup_wall_s are their medians.
constexpr int kSetups = 3;
// Traced and untraced replays per --trace 1 run (alternating); the
// overhead compares their medians.
constexpr int kReplayPairs = 3;
// Length of the sub-windows latency and throughput are computed over.
constexpr double kSubWindowSeconds = 2;
// The whole run is abandoned (exit 2) past this many seconds.
constexpr double kWatchdogSeconds = 170;

const std::vector<std::string> kStrategies = {
    "bounded-ucq", "counting", "delta-insert", "dred", "noop"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/hompresd_bench";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  // Internal: run one replay and write its summary to replay_out.
  int replay_child = -1;
  std::string replay_out;
};

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "hompresd_bench: %s\nusage: hompresd_bench --workload "
               "<hom_miss|query_reuse|view_stream> --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " wants a value");
      return argv[++i];
    };
    auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !(v >= 0)) {
        Usage(arg + " wants a non-negative number, got '" + text + "'");
      }
      return v;
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = static_cast<uint64_t>(number(value()));
    } else if (arg == "--seconds") {
      o.seconds = number(value());
    } else if (arg == "--trace") {
      o.trace = static_cast<int>(number(value()));
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--git-sha") {
      o.git_sha = value();
    } else if (arg == "--source-digest") {
      o.source_digest = value();
    } else if (arg == "--replay-child") {
      o.replay_child = static_cast<int>(number(value()));
    } else if (arg == "--replay-out") {
      o.replay_out = value();
    } else {
      Usage("unknown flag '" + arg + "'");
    }
  }
  if (!WorkloadFromName(o.workload).has_value()) {
    Usage("unknown workload '" + o.workload + "'");
  }
  if (o.trace != 0 && o.trace != 1) Usage("--trace wants 0 or 1");
  if (o.seconds <= 0) Usage("--seconds must be positive");
  return o;
}

// Nearest-rank percentile of unsorted values (0 when empty).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// --- the traced replay (child process side) ----------------------------

// Per-layer metric names of replay span names.
const std::map<std::string, std::string>& LayerMetrics() {
  static const std::map<std::string, std::string> names = {
      {"server.decode", "server.decode_us"},
      {"server.encode", "server.encode_us"},
      {"structure.parse", "structure.parse_us"},
      {"structure.cow_apply", "structure.cow_apply_us"},
      {"structure.index_build", "structure.index_build_us"},
      {"engine.plan", "engine.plan_us"},
      {"engine.execute", "engine.execute_us"},
      {"hom.cache_hit", "hom.cache_hit_us"},
      {"cq.evaluate", "cq.evaluate_us"},
      {"cq.contained", "cq.contained_us"},
      {"opt.optimize", "opt.optimize_us"},
      {"opt.ucq_eval", "opt.ucq_eval_us"},
      {"datalog.view_tuples", "datalog.view_tuples_us"},
      {"datalog.maintain.bounded-ucq", "datalog.maintain_us.bounded-ucq"},
      {"datalog.maintain.counting", "datalog.maintain_us.counting"},
      {"datalog.maintain.delta-insert", "datalog.maintain_us.delta-insert"},
      {"datalog.maintain.dred", "datalog.maintain_us.dred"},
      {"datalog.maintain.noop", "datalog.maintain_us.noop"},
  };
  return names;
}

int RunReplayChild(const Options& o) {
  const Workload workload = *WorkloadFromName(o.workload);
  const WorkloadSpec spec =
      GenerateWorkload(workload, o.seed, ReplayStreamLength(workload));
  const bool traced = o.replay_child == 1;
  const ReplayResult result = Replay(spec, traced);
  JsonValue out = JsonValue::Object();
  out.Set("wall_s", JsonValue::Double(result.wall_s));
  out.Set("materialize_s", JsonValue::Double(result.materialize_s));
  out.Set("requests", JsonValue::Uint(result.requests));
  out.Set("failed", JsonValue::Uint(result.failed));
  out.Set("disjuncts_in", JsonValue::Int(result.disjuncts_in));
  out.Set("disjuncts_out", JsonValue::Int(result.disjuncts_out));
  if (traced) {
    const std::vector<Span>& spans = result.spans;
    const std::vector<int64_t> self = SelfTimes(spans);
    // Per request: self time per span name, root wall time, and the
    // time its direct children (the layer calls) cover.
    std::map<int64_t, std::map<std::string, int64_t>> per_request;
    std::map<int64_t, int64_t> root_ns, covered_ns;
    std::map<std::string, std::pair<int64_t, size_t>> totals;
    int64_t layer_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      per_request[s.request][s.name] += self[i];
      auto& total = totals[s.name];
      total.first += self[i];
      ++total.second;
      if (s.parent < 0) {
        root_ns[s.request] = s.end_ns - s.start_ns;
      } else if (spans[static_cast<size_t>(s.parent)].parent < 0) {
        covered_ns[s.request] += s.end_ns - s.start_ns;
        layer_ns += s.end_ns - s.start_ns;
      }
    }
    JsonValue layers = JsonValue::Object();
    for (const auto& [span_name, metric] : LayerMetrics()) {
      std::vector<double> values;
      for (const auto& [request, by_name] : per_request) {
        auto it = by_name.find(span_name);
        if (it != by_name.end()) {
          values.push_back(static_cast<double>(it->second) / 1e3);
        }
      }
      layers.Set(metric, JsonValue::Double(Median(values)));
    }
    out.Set("layers", std::move(layers));
    std::vector<double> request_us, request_coverage;
    for (const auto& [request, ns] : root_ns) {
      request_us.push_back(static_cast<double>(ns) / 1e3);
      request_coverage.push_back(
          ns > 0 ? 100.0 * static_cast<double>(covered_ns[request]) /
                       static_cast<double>(ns)
                 : 100.0);
    }
    out.Set("request_p50_us", JsonValue::Double(Median(request_us)));
    out.Set("request_coverage_p50_pct",
            JsonValue::Double(Median(request_coverage)));
    out.Set("request_coverage_p10_pct",
            JsonValue::Double(Percentile(request_coverage, 0.1)));
    out.Set("coverage_pct",
            JsonValue::Double(100.0 * static_cast<double>(layer_ns) /
                              (result.wall_s * 1e9)));
    JsonValue self_times = JsonValue::Object();
    for (const auto& [name, total] : totals) {
      JsonValue entry = JsonValue::Object();
      entry.Set("self_ms", JsonValue::Double(static_cast<double>(total.first) /
                                             1e6));
      entry.Set("spans", JsonValue::Uint(total.second));
      self_times.Set(name, std::move(entry));
    }
    out.Set("self_times", std::move(self_times));
    const std::string spans_path = o.work_dir + "/traces/" + o.workload +
                                   "-seed" + std::to_string(o.seed) +
                                   ".jsonl";
    std::filesystem::create_directories(o.work_dir + "/traces");
    if (!WriteSpans(spans, spans_path)) return 2;
    out.Set("spans_file", JsonValue::String(spans_path));
  }
  std::ofstream file(o.replay_out);
  file << out.Serialize() << "\n";
  return file ? 0 : 2;
}

// --- the benchmark (parent side) ----------------------------------------

// Kills the watched daemon and exits if the run overstays its limit.
class Watchdog {
 public:
  Watchdog() {
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock,
                        std::chrono::duration<double>(kWatchdogSeconds),
                        [this] { return done_; })) {
        if (pid_ > 0) ::kill(pid_, SIGKILL);
        std::fprintf(stderr, "hompresd_bench: run exceeded %.0f s\n",
                     kWatchdogSeconds);
        std::_Exit(2);
      }
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // The daemon to kill on expiry (-1 = none).
  void Watch(pid_t pid) {
    std::lock_guard<std::mutex> lock(mu_);
    pid_ = pid;
  }

 private:
  std::mutex mu_;
  pid_t pid_ = -1;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// Runs this binary as a replay child (watched) and returns its summary.
std::optional<JsonValue> SpawnReplay(const Options& o, bool traced,
                                     Watchdog& watchdog) {
  const std::string out =
      o.work_dir + "/run/replay-" + std::to_string(::getpid()) + ".json";
  std::vector<std::string> args = {
      "/proc/self/exe", "--workload",       o.workload,
      "--seed",         std::to_string(o.seed),
      "--work-dir",     o.work_dir,         "--replay-child",
      traced ? "1" : "0", "--replay-out",   out};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return std::nullopt;
  }
  watchdog.Watch(pid);
  int status = 0;
  ::waitpid(pid, &status, 0);
  watchdog.Watch(-1);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  std::ifstream file(out);
  std::stringstream text;
  text << file.rdbuf();
  std::filesystem::remove(out);
  return hompres::ParseJson(text.str());
}

double Number(const JsonValue* v) {
  if (v == nullptr) return 0;
  return v->AsDouble().value_or(0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

// {steal, total} jiffies of all CPUs (/proc/stat), so a run can report
// how much CPU the hypervisor withheld during its window.
std::pair<double, double> CpuStealTotal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double value = 0, total = 0, steal = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int RunBenchmark(const Options& o) {
  Watchdog watchdog;
  const Workload workload = *WorkloadFromName(o.workload);
  const WorkloadSpec spec = GenerateWorkload(
      workload, o.seed, StreamLength(workload, o.seconds));
  std::filesystem::create_directories(o.work_dir + "/run");
  const std::string socket =
      o.work_dir + "/run/hompresd-" + std::to_string(::getpid()) + ".sock";
  const auto keep = [&spec](int c, size_t i) { return Sampled(spec, c, i); };
  std::string error;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "hompresd_bench: %s: %s\n", what.c_str(),
                 error.c_str());
    return 2;
  };

  // Set-up, kSetups times: launch -> socket up -> structures defined ->
  // views materialized -> warm-up done, then stop. setup_s is the
  // daemon's CPU time over that life, read when it is reaped (a running
  // process's counters have only clock-tick resolution);
  // client.setup_wall_s is the wall-clock time to the end of the
  // warm-up. One more instance, set up the same way, is measured.
  std::vector<double> setup_s, setup_wall_s;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<LoadGenerator> load;
  for (int round = 0; round <= kSetups; ++round) {
    daemon = std::make_unique<Daemon>();
    load = std::make_unique<LoadGenerator>(spec, socket, keep);
    const int64_t start = NowNs();
    if (!daemon->Start(HOMPRESD_BENCH_DAEMON, socket, 30, &error)) {
      return fail("start");
    }
    watchdog.Watch(daemon->Pid());
    for (const std::string& body : spec.setup) {
      const auto response = load->Control(body, &error);
      if (!response.has_value() || response->Find("ok") == nullptr ||
          !response->Find("ok")->AsBool()) {
        if (response.has_value()) error = response->Serialize();
        return fail("set-up request");
      }
    }
    if (!load->Run(0, spec.warmup, 0, &error)) return fail("warm-up");
    if (round == kSetups) break;
    setup_wall_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    watchdog.Watch(-1);
    if (!daemon->Stop()) {
      error = "unclean exit";
      return fail("hompresd set-up instance");
    }
    setup_s.push_back(daemon->ExitCpuSeconds());
  }

  // The timed window, with the daemon's counters read on both sides.
  const auto stats_before = load->Control("\"op\":\"stats\"", &error);
  if (!stats_before.has_value()) return fail("stats");
  const size_t window_end = spec.streams[0].size();
  const auto cpu_before = CpuStealTotal();
  // The daemon's CPU time at each sub-window boundary of the window.
  const int sub_windows =
      std::max(1, static_cast<int>(o.seconds / kSubWindowSeconds));
  const double sub_window_ns = o.seconds * 1e9 / sub_windows;
  std::vector<double> daemon_cpu_marks;
  std::mutex sampler_mu;
  std::condition_variable sampler_cv;
  bool window_done = false;
  std::thread sampler([&] {
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(sampler_mu);
    for (int w = 0; w <= sub_windows; ++w) {
      const auto mark =
          start + std::chrono::nanoseconds(
                      static_cast<int64_t>(w * sub_window_ns));
      if (sampler_cv.wait_until(lock, mark, [&] { return window_done; })) {
        return;
      }
      daemon_cpu_marks.push_back(daemon->CpuSeconds());
    }
  });
  const bool window_ok =
      load->Run(spec.warmup, window_end, o.seconds, &error);
  {
    std::lock_guard<std::mutex> lock(sampler_mu);
    window_done = true;
  }
  sampler_cv.notify_all();
  sampler.join();
  if (!window_ok) return fail("timed window");
  const auto cpu_after = CpuStealTotal();
  const double steal_pct = 100.0 * Ratio(cpu_after.first - cpu_before.first,
                                         cpu_after.second - cpu_before.second);
  const auto stats_after = load->Control("\"op\":\"stats\"", &error);
  if (!stats_after.has_value()) return fail("stats");
  const double window_s =
      static_cast<double>(load->WindowEndNs() - load->WindowStartNs()) / 1e9;
  const double rss_mib = daemon->PeakRssMib();
  std::vector<std::pair<std::string, JsonValue>> final_views;
  for (const auto& [name, program] : spec.views) {
    const auto response = load->Control(
        "\"op\":\"view_tuples\",\"name\":\"" + name +
            "\",\"max_results\":" + std::to_string(kFullViewResults),
        &error);
    if (!response.has_value()) return fail("final view_tuples");
    final_views.emplace_back(name, *response);
  }
  watchdog.Watch(-1);
  const bool clean_exit = daemon->Stop();

  // Client-side numbers over the window. Latency and throughput are
  // computed per sub-window of kSubWindowSeconds (by completion time)
  // and reported as the median across sub-windows, so a transient stall
  // of a shared host moves one sub-window rather than the result.
  // Responses drained after the window closes are checked, not timed.
  std::vector<std::vector<double>> window_us(sub_windows),
      window_mutate_us(sub_windows);
  // First and last completion in each sub-window: its rate is measured
  // between them.
  std::vector<int64_t> first_recv(sub_windows, INT64_MAX),
      last_recv(sub_windows, 0);
  std::vector<double> latency_us, mutate_us;
  size_t attempted = 0, failed = 0, compactions = 0;
  std::vector<double> steps;
  std::map<std::string, size_t> strategy_count;
  size_t view_records = 0, recomputed = 0;
  double derivations = 0;
  size_t mutates = 0;
  for (int c = 0; c < kConnections; ++c) {
    for (size_t i = spec.warmup; i < load->Sent(c); ++i) {
      const Sample& s = load->Samples(c)[i];
      const GenRequest& request = spec.streams[static_cast<size_t>(c)][i];
      ++attempted;
      if (!s.answered || !s.done) {
        if (failed++ < 5) {
          const std::string& code = s.Detail().error_code;
          std::fprintf(stderr, "hompresd_bench: %s %lld failed: %s\n",
                       request.op, static_cast<long long>(RequestId(c, i)),
                       code.empty() ? "outcome not done" : code.c_str());
        }
        continue;
      }
      const double us = static_cast<double>(s.recv_ns - s.send_ns) / 1e3;
      const bool is_mutate = std::strcmp(request.op, "mutate") == 0;
      const auto sub = static_cast<size_t>(
          static_cast<double>(s.recv_ns - load->WindowStartNs()) /
          sub_window_ns);
      if (sub < window_us.size()) {
        window_us[sub].push_back(us);
        if (is_mutate) window_mutate_us[sub].push_back(us);
        first_recv[sub] = std::min(first_recv[sub], s.recv_ns);
        last_recv[sub] = std::max(last_recv[sub], s.recv_ns);
      }
      latency_us.push_back(us);
      if (s.steps_used >= 0) steps.push_back(static_cast<double>(s.steps_used));
      if (is_mutate) {
        mutate_us.push_back(us);
        ++mutates;
        if (s.Detail().index_compacted) ++compactions;
        for (const ViewMaintenance& v : s.Detail().views) {
          ++view_records;
          ++strategy_count[v.strategy];
          derivations += static_cast<double>(v.derivations);
          if (v.recomputed) ++recomputed;
        }
      }
    }
  }

  CheckReport check = CheckResponses(spec, *load);
  if (workload == Workload::kViewStream) {
    CheckFinalViews(spec, *load, final_views, &check);
  }
  failed += check.mismatches;

  // Median across sub-windows of a per-sub-window statistic (sub-windows
  // without samples are skipped).
  auto across = [](const std::vector<std::vector<double>>& windows,
                   const std::function<double(const std::vector<double>&)>&
                       statistic) {
    std::vector<double> values;
    for (const auto& w : windows) {
      if (!w.empty()) values.push_back(statistic(w));
    }
    return Median(values);
  };
  auto percentile = [](double p) {
    return [p](const std::vector<double>& v) { return Percentile(v, p); };
  };
  const double p50 = across(window_us, percentile(0.5));
  std::vector<double> sub_window_rps;
  size_t min_sub_window_samples = latency_us.size();
  for (int w = 0; w < sub_windows; ++w) {
    const size_t n = window_us[static_cast<size_t>(w)].size();
    min_sub_window_samples = std::min(min_sub_window_samples, n);
    const int64_t span_ns = last_recv[static_cast<size_t>(w)] -
                            first_recv[static_cast<size_t>(w)];
    if (n >= 2 && span_ns > 0) {
      sub_window_rps.push_back(static_cast<double>(n - 1) /
                               (static_cast<double>(span_ns) / 1e9));
    }
  }
  const double throughput = Median(sub_window_rps);
  // The daemon's CPU time per answered request, per sub-window.
  std::vector<double> sub_window_cpu_us;
  for (size_t w = 0; w + 1 < daemon_cpu_marks.size(); ++w) {
    const size_t n = window_us[w].size();
    if (n > 0) {
      sub_window_cpu_us.push_back(
          (daemon_cpu_marks[w + 1] - daemon_cpu_marks[w]) * 1e6 /
          static_cast<double>(n));
    }
  }
  std::vector<Metric> metrics;
  if (o.trace == 0) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"daemon_cpu_us_per_req", Median(sub_window_cpu_us), "us"},
        {"daemon_peak_rss_mb", rss_mib, "MiB"},
    };
  } else {
    const JsonValue& b = *stats_before;
    const JsonValue& a = *stats_after;
    auto diff = [&](std::initializer_list<const char*> path) {
      return StatNumber(a, path) - StatNumber(b, path);
    };
    const double memo_misses = StatNumber(a, {"ucq_memo", "misses"});
    metrics = {
        {"server.avg_batch",
         Ratio(diff({"stats", "batched_requests"}),
               diff({"stats", "batches_executed"})),
         "req/batch"},
        {"server.rejected", diff({"stats", "requests_rejected"}), "count"},
        {"server.degraded", diff({"stats", "degraded_executions"}), "count"},
        {"structure.index_compactions", static_cast<double>(compactions),
         "count"},
        {"engine.steps_per_request", Median(steps), "steps"},
        {"hom.cache_hit_rate",
         Ratio(diff({"hom_cache", "hits"}),
               diff({"hom_cache", "hits"}) + diff({"hom_cache", "misses"})),
         "fraction"},
        {"hom.cache_evictions", diff({"hom_cache", "evictions"}), "count"},
        {"opt.memo_hit_rate",
         Ratio(diff({"ucq_memo", "hits"}),
               diff({"ucq_memo", "hits"}) + diff({"ucq_memo", "misses"})),
         "fraction"},
        {"opt.memo_evictions",
         std::max(0.0, memo_misses - StatNumber(a, {"ucq_memo", "size"})),
         "count"},
        {"opt.ccache_hit_rate",
         Ratio(diff({"containment_cache", "hits"}),
               diff({"containment_cache", "hits"}) +
                   diff({"containment_cache", "misses"})),
         "fraction"},
    };
    for (const std::string& strategy : kStrategies) {
      metrics.push_back({"datalog.strategy_share." + strategy,
                         Ratio(static_cast<double>(strategy_count[strategy]),
                               static_cast<double>(view_records)),
                         "fraction"});
    }
    metrics.push_back({"datalog.derivations_per_mutate",
                       Ratio(derivations, static_cast<double>(mutates)),
                       "derivations"});
    metrics.push_back(
        {"datalog.recomputed", static_cast<double>(recomputed), "count"});
    metrics.push_back({"client.setup_wall_s", Median(setup_wall_s), "s"});
    metrics.push_back({"client.throughput_rps", throughput, "req/s"});
    metrics.push_back({"client.latency_p50_us", p50, "us"});
    metrics.push_back({"client.latency_p99_us",
                       across(window_us, percentile(0.99)), "us"});
    metrics.push_back({"client.mutate_p50_us",
                       across(window_mutate_us, percentile(0.5)), "us"});
    metrics.push_back({"client.mutate_p99_us",
                       across(window_mutate_us, percentile(0.99)), "us"});
    metrics.push_back({"client.error_rate",
                       Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
                       "fraction"});

    // The traced replay, in child processes so each starts with cold
    // process-wide caches. Untraced and traced runs alternate; the
    // overhead is the median over adjacent pairs, so slow drift of a
    // shared host cancels.
    std::vector<double> pair_overhead_pct;
    std::optional<JsonValue> traced;
    for (int pair = 0; pair < kReplayPairs; ++pair) {
      double wall[2] = {0, 0};
      for (int mode = 0; mode < 2; ++mode) {
        auto summary = SpawnReplay(o, mode == 1, watchdog);
        if (!summary.has_value()) {
          error = "child failed";
          return fail("replay");
        }
        failed += static_cast<size_t>(Number(summary->Find("failed")));
        wall[mode] = Number(summary->Find("wall_s"));
        if (mode == 1) traced = std::move(summary);
      }
      pair_overhead_pct.push_back(100.0 * (wall[1] - wall[0]) / wall[0]);
    }
    const JsonValue* layers = traced->Find("layers");
    for (const auto& [span_name, metric] : LayerMetrics()) {
      metrics.push_back({metric, Number(layers->Find(metric)), "us"});
    }
    metrics.push_back({"server.overhead_us",
                       p50 - Number(traced->Find("request_p50_us")), "us"});
    metrics.push_back({"opt.disjunct_keep_ratio",
                       Ratio(Number(traced->Find("disjuncts_out")),
                             Number(traced->Find("disjuncts_in"))),
                       "fraction"});
    metrics.push_back({"datalog.materialize_s",
                       Number(traced->Find("materialize_s")), "s"});
    metrics.push_back({"trace.coverage_pct",
                       Number(traced->Find("coverage_pct")), "%"});
    metrics.push_back(
        {"trace.overhead_pct", Median(pair_overhead_pct), "%"});

    std::printf("self time by layer (%s, seed %llu, %s replayed requests, "
                "%.3f s traced wall):\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                traced->Find("requests")->Serialize().c_str(),
                Number(traced->Find("wall_s")));
    for (const auto& [name, entry] : traced->Find("self_times")->Members()) {
      const double ms = Number(entry.Find("self_ms"));
      std::printf("  %-32s %10.3f ms  %5.1f%%  %8.0f spans\n", name.c_str(),
                  ms, 100.0 * ms / (Number(traced->Find("wall_s")) * 1e3),
                  Number(entry.Find("spans")));
    }
    std::printf(
        "layer spans cover %.2f%% of the replay wall time; per request: "
        "median %.2f%%, p10 %.2f%%; tracing overhead %.2f%%; spans in %s\n",
        Number(traced->Find("coverage_pct")),
        Number(traced->Find("request_coverage_p50_pct")),
        Number(traced->Find("request_coverage_p10_pct")),
        metrics.back().value,
        traced->Find("spans_file")->AsString().c_str());
  }

  // Provenance, then the result line.
  JsonValue provenance = JsonValue::Object();
  provenance.Set("workload", JsonValue::String(o.workload));
  provenance.Set("seed", JsonValue::Uint(o.seed));
  provenance.Set("seconds", JsonValue::Double(o.seconds));
  provenance.Set("trace", JsonValue::Int(o.trace));
  provenance.Set("git_sha", JsonValue::String(o.git_sha));
  provenance.Set("source_digest", JsonValue::String(o.source_digest));
  provenance.Set("simd", JsonValue::String(hompres::simd::SimdLevelName(
                             hompres::simd::DetectedSimdLevel())));
  provenance.Set("cpu_model", JsonValue::String(CpuModel()));
  provenance.Set("nproc", JsonValue::Int(::sysconf(_SC_NPROCESSORS_ONLN)));
  provenance.Set("latency_samples", JsonValue::Uint(latency_us.size()));
  provenance.Set("sub_windows", JsonValue::Int(sub_windows));
  JsonValue rps_json = JsonValue::Array();
  for (double rps : sub_window_rps) {
    rps_json.Append(JsonValue::Double(std::round(rps)));
  }
  provenance.Set("sub_window_rps", std::move(rps_json));
  provenance.Set("min_sub_window_samples",
                 JsonValue::Uint(min_sub_window_samples));
  provenance.Set("mutate_samples", JsonValue::Uint(mutate_us.size()));
  provenance.Set("setup_samples", JsonValue::Uint(setup_s.size()));
  provenance.Set("window_s", JsonValue::Double(window_s));
  provenance.Set("host_steal_pct", JsonValue::Double(steal_pct));
  JsonValue cpu_json = JsonValue::Array();
  for (double us : sub_window_cpu_us) {
    cpu_json.Append(JsonValue::Double(std::round(us * 10) / 10));
  }
  provenance.Set("sub_window_cpu_us", std::move(cpu_json));
  provenance.Set("answers_checked", JsonValue::Uint(check.checked));
  provenance.Set("answer_mismatches", JsonValue::Uint(check.mismatches));
  provenance.Set("daemon_clean_exit", JsonValue::Bool(clean_exit));
  JsonValue header = JsonValue::Object();
  header.Set("provenance", std::move(provenance));
  std::printf("%s\n", header.Serialize().c_str());
  for (const std::string& message : check.messages) {
    std::fprintf(stderr, "hompresd_bench: mismatch: %s\n", message.c_str());
  }

  const bool correct = failed == 0 && clean_exit;
  JsonValue values = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Double(m.value));
    entry.Set("unit", JsonValue::String(m.unit));
    values.Set(m.name, std::move(entry));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted", JsonValue::Uint(std::max<size_t>(attempted, 1)));
  result.Set("failed", JsonValue::Uint(failed));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Serialize().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hompresd_bench

int main(int argc, char** argv) {
  const hompresd_bench::Options options =
      hompresd_bench::ParseOptions(argc, argv);
  if (options.replay_child >= 0) {
    return hompresd_bench::RunReplayChild(options);
  }
  return hompresd_bench::RunBenchmark(options);
}
