// Workload-character assertions for the hompresd benchmark, so a later
// change cannot silently alter what a workload measures:
//
//   - the same seed gives a byte-identical request stream, a longer
//     stream extends a shorter one, and different seeds differ;
//   - against a live daemon, on two seeds: hom_miss has a HomCache hit
//     rate near 0; query_reuse has high hom, memo and containment-cache
//     hit rates with memo evictions; view_stream runs the bounded-ucq,
//     delta-insert and dred maintenance strategies; every sampled answer
//     matches the reference.
//
// Build and run with the benchmark package:
//   cmake --build .bench_build/hompresd_bench --target workload_test
//   (cd .bench_build/hompresd_bench && ctest --output-on-failure)

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "daemon.h"
#include "loadgen.h"
#include "reference.h"
#include "server/json.h"
#include "workload.h"

namespace {

using hompres::JsonValue;
using namespace hompresd_bench;

// Seeds of the live checks: 3 was among the calibration seeds, 424242
// never was.
constexpr uint64_t kSeeds[] = {3, 424242};
constexpr double kWindowSeconds = 2.0;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::string StreamBytes(const WorkloadSpec& spec, size_t count) {
  std::string bytes;
  for (const std::string& body : spec.setup) bytes += body + "\n";
  for (int c = 0; c < kConnections; ++c) {
    const auto& stream = spec.streams[static_cast<size_t>(c)];
    for (size_t i = 0; i < count && i < stream.size(); ++i) {
      bytes += Payload(stream[i], RequestId(c, i)) + "\n";
    }
  }
  return bytes;
}

void CheckDeterminism(Workload workload) {
  const std::string name = WorkloadName(workload);
  const std::string a = StreamBytes(GenerateWorkload(workload, 11, 3000), 3000);
  const std::string b = StreamBytes(GenerateWorkload(workload, 11, 3000), 3000);
  const std::string longer =
      StreamBytes(GenerateWorkload(workload, 11, 6000), 3000);
  const std::string other =
      StreamBytes(GenerateWorkload(workload, 12, 3000), 3000);
  Expect(a == b, name + ": same seed, byte-identical stream");
  Expect(a == longer, name + ": a longer stream extends a shorter one");
  Expect(a != other, name + ": different seeds, different streams");
}

double Rate(const JsonValue& before, const JsonValue& after,
            const char* block) {
  const double hits = StatNumber(after, {block, "hits"}) -
                      StatNumber(before, {block, "hits"});
  const double misses = StatNumber(after, {block, "misses"}) -
                        StatNumber(before, {block, "misses"});
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

void CheckLive(Workload workload, uint64_t seed) {
  const std::string name =
      std::string(WorkloadName(workload)) + " seed " + std::to_string(seed);
  const WorkloadSpec spec = GenerateWorkload(
      workload, seed, StreamLength(workload, kWindowSeconds));
  const std::string socket =
      "workload_test-" + std::to_string(::getpid()) + ".sock";
  Daemon daemon;
  std::string error;
  if (!daemon.Start(HOMPRESD_BENCH_DAEMON, socket, 30, &error)) {
    Expect(false, name + ": daemon start (" + error + ")");
    return;
  }
  LoadGenerator load(spec, socket, [&spec](int c, size_t i) {
    return Sampled(spec, c, i);
  });
  for (const std::string& body : spec.setup) {
    const auto response = load.Control(body, &error);
    if (!response.has_value()) {
      Expect(false, name + ": set-up (" + error + ")");
      return;
    }
  }
  const bool warm = load.Run(0, spec.warmup, 0, &error);
  const auto before = load.Control("\"op\":\"stats\"", &error);
  const bool ran = warm && before.has_value() &&
                   load.Run(spec.warmup, spec.streams[0].size(),
                            kWindowSeconds, &error);
  const auto after = load.Control("\"op\":\"stats\"", &error);
  daemon.Stop();
  if (!ran || !after.has_value()) {
    Expect(false, name + ": load (" + error + ")");
    return;
  }
  size_t failed = 0;
  std::set<std::string> strategies;
  for (int c = 0; c < kConnections; ++c) {
    for (size_t i = 0; i < load.Sent(c); ++i) {
      const Sample& s = load.Samples(c)[i];
      if (!s.answered || !s.done) ++failed;
      for (const ViewMaintenance& v : s.Detail().views) {
        strategies.insert(v.strategy);
      }
    }
  }
  const CheckReport check = CheckResponses(spec, load);
  Expect(failed == 0, name + ": every request answered ok and done");
  Expect(check.checked > 0 && check.mismatches == 0,
         name + ": " + std::to_string(check.checked) +
             " sampled answers match the reference");

  const double hom = Rate(*before, *after, "hom_cache");
  const double memo = Rate(*before, *after, "ucq_memo");
  const double ccache = Rate(*before, *after, "containment_cache");
  char rates[160];
  std::snprintf(rates, sizeof(rates),
                " (hom %.3f, memo %.3f, containment %.3f)", hom, memo,
                ccache);
  switch (workload) {
    case Workload::kHomMiss:
      Expect(hom < 0.02, name + ": HomCache hit rate near 0" + rates);
      break;
    case Workload::kQueryReuse: {
      const double evictions = StatNumber(*after, {"ucq_memo", "misses"}) -
                               StatNumber(*after, {"ucq_memo", "size"});
      Expect(hom > 0.9, name + ": HomCache hit rate high" + rates);
      Expect(memo > 0.5, name + ": UCQ memo hit rate high" + rates);
      Expect(ccache > 0.9, name + ": containment-cache hit rate high" + rates);
      Expect(evictions > 0, name + ": UCQ memo evicts (" +
                                std::to_string(static_cast<long long>(
                                    evictions)) +
                                " evictions)");
      break;
    }
    case Workload::kViewStream:
      for (const char* strategy : {"bounded-ucq", "delta-insert", "dred"}) {
        Expect(strategies.count(strategy) > 0,
               name + ": maintenance runs " + strategy);
      }
      break;
  }
}

}  // namespace

int main() {
  for (Workload w :
       {Workload::kHomMiss, Workload::kQueryReuse, Workload::kViewStream}) {
    CheckDeterminism(w);
  }
  for (uint64_t seed : kSeeds) {
    for (Workload w :
         {Workload::kHomMiss, Workload::kQueryReuse, Workload::kViewStream}) {
      CheckLive(w, seed);
    }
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
