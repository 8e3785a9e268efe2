// The closed-loop load generator: kConnections client connections, one
// thread each, each keeping up to kInFlight requests outstanding. Every
// response is parsed and reduced to a compact Sample; the full response
// is kept only for requests the answer checker samples.

#ifndef HOMPRESD_BENCH_LOADGEN_H_
#define HOMPRESD_BENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/json.h"
#include "workload.h"

namespace hompresd_bench {

// Per-view maintenance record of one mutate response.
struct ViewMaintenance {
  std::string strategy;
  int64_t derivations = 0;
  bool recomputed = false;
};

// The parts of a sample few responses have, allocated only for those.
struct SampleDetail {
  std::string error_code;  // "error.code" of a failed response
  // mutate responses.
  int64_t version = -1;  // registry version after the mutate
  int64_t inserted = 0, removed = 0, noops = 0;
  bool index_compacted = false;
  std::vector<ViewMaintenance> views;
  // Full response, for requests the checker samples.
  std::shared_ptr<const hompres::JsonValue> response;
};

// One request of the closed loop. Kept small: query_reuse records over
// a million per run.
struct Sample {
  int64_t send_ns = 0;  // steady-clock send and receive times
  int64_t recv_ns = 0;
  uint64_t answer_digest = 0;  // hash of the answer field
  int64_t steps_used = -1;     // hom_* responses (-1 = absent)
  // view_stream: the other connection's acknowledged mutates when this
  // request was sent, and its sent mutates when the response arrived.
  int32_t other_acked_at_send = 0;
  int32_t other_sent_at_recv = 0;
  bool answered = false;  // a response arrived
  bool ok = false;        // "ok": true
  bool done = false;      // ok, and outcome "done" (or an inline op)
  std::unique_ptr<SampleDetail> detail;  // null when there is none

  const SampleDetail& Detail() const {
    static const SampleDetail kNone;
    return detail != nullptr ? *detail : kNone;
  }
  const hompres::JsonValue* Response() const {
    return detail != nullptr ? detail->response.get() : nullptr;
  }
};

// Load against one daemon instance. Samples accumulate across Run calls
// (set-up warm-up, then the timed window).
class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, std::string socket_path,
                std::function<bool(int, size_t)> keep_response);

  // Sends every request of [begin, end) on each connection, stopping
  // early once `seconds` have passed (0 = no time limit). Returns false
  // (with *error) on a transport failure.
  bool Run(size_t begin, size_t end, double seconds, std::string* error);

  // One request/response on a fresh control connection (define,
  // view_define, stats).
  std::optional<hompres::JsonValue> Control(const std::string& body,
                                            std::string* error);

  const std::vector<Sample>& Samples(int connection) const {
    return samples_[static_cast<size_t>(connection)];
  }
  // Requests sent per connection so far (window end index).
  size_t Sent(int connection) const {
    return next_[static_cast<size_t>(connection)];
  }
  // Steady-clock span of the last Run: first send to last response.
  int64_t WindowStartNs() const { return window_start_ns_; }
  int64_t WindowEndNs() const { return window_end_ns_; }

 private:
  bool ConnectionLoop(int c, size_t begin, size_t end, int64_t deadline_ns,
                      std::string* error);

  const WorkloadSpec& spec_;
  const std::string socket_path_;
  const std::function<bool(int, size_t)> keep_response_;
  std::vector<std::vector<Sample>> samples_;
  std::vector<size_t> next_;
  std::atomic<int> mutates_sent_[kConnections] = {};
  std::atomic<int> mutates_acked_[kConnections] = {};
  int64_t window_start_ns_ = 0;
  int64_t window_end_ns_ = 0;
  int64_t control_id_ = 1;
};

// FNV-1a over the serialized answer member(s) of a response.
uint64_t AnswerDigest(const hompres::JsonValue& response);

// The number at `path` of a stats response (0 when absent).
double StatNumber(const hompres::JsonValue& stats,
                  std::initializer_list<const char*> path);

}  // namespace hompresd_bench

#endif  // HOMPRESD_BENCH_LOADGEN_H_
