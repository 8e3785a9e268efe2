// Server-side metrics for hompresd: request/connection counters, batch
// shape, engine cache effectiveness, and request latency percentiles.
//
// Counters are relaxed atomics (each is a monotone event count; exact
// cross-counter consistency is not needed for monitoring). Latency is a
// fixed-size ring of the most recent samples under a mutex; p50/p99 are
// computed on demand from a copy, so the hot path is one lock + one
// store. The STATS request and the load-generator bench both read the
// same snapshot.

#ifndef HOMPRES_SERVER_METRICS_H_
#define HOMPRES_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "server/json.h"

namespace hompres {

struct LatencyPercentiles {
  uint64_t samples = 0;  // samples currently in the window
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;
};

// Sliding window of the most recent request latencies (microseconds).
class LatencyRecorder {
 public:
  explicit LatencyRecorder(size_t capacity = 4096);

  void Record(uint64_t micros);
  LatencyPercentiles Compute() const;

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> ring_;
  size_t capacity_;
  size_t size_ = 0;
  size_t next_ = 0;
};

struct ServerMetricsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t connections_dropped = 0;  // accept faults + read/write failures
  uint64_t requests_received = 0;    // frames parsed into requests
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;     // structured error responses sent
  uint64_t requests_rejected = 0;  // admission rejections (subset of error)
  uint64_t requests_dropped = 0;   // queued work skipped (client gone)
  uint64_t queue_depth = 0;        // pending requests right now
  uint64_t batches_executed = 0;
  uint64_t batched_requests = 0;  // requests executed through batches
  uint64_t max_batch_size = 0;
  uint64_t cache_consults = 0;  // engine trace: cache consulted
  uint64_t cache_hits = 0;      // engine trace: answered from cache
  uint64_t degraded_executions = 0;  // executions recording >= 1 fallback
  uint64_t retract_answers = 0;  // engine trace: a target retract answered
  LatencyPercentiles latency;

  // The "stats" object of a STATS response.
  JsonValue ToJson() const;
};

class ServerMetrics {
 public:
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> connections_dropped{0};
  std::atomic<uint64_t> requests_received{0};
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_error{0};
  std::atomic<uint64_t> requests_rejected{0};
  std::atomic<uint64_t> requests_dropped{0};
  std::atomic<uint64_t> queue_depth{0};
  std::atomic<uint64_t> batches_executed{0};
  std::atomic<uint64_t> batched_requests{0};
  std::atomic<uint64_t> max_batch_size{0};
  std::atomic<uint64_t> cache_consults{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> degraded_executions{0};
  std::atomic<uint64_t> retract_answers{0};

  LatencyRecorder latency;

  void RecordBatch(size_t size);
  ServerMetricsSnapshot Snapshot() const;
};

}  // namespace hompres

#endif  // HOMPRES_SERVER_METRICS_H_
