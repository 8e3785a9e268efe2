#include "server/metrics.h"

#include <algorithm>

namespace hompres {

LatencyRecorder::LatencyRecorder(size_t capacity)
    : ring_(capacity, 0), capacity_(capacity) {}

void LatencyRecorder::Record(uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = micros;
  next_ = (next_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

LatencyPercentiles LatencyRecorder::Compute() const {
  std::vector<uint64_t> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples.assign(ring_.begin(),
                   ring_.begin() + static_cast<ptrdiff_t>(size_));
  }
  LatencyPercentiles out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest-rank percentiles: the ceil(q * n)-th smallest sample.
  const auto rank = [&samples](double q) {
    size_t r = static_cast<size_t>(q * static_cast<double>(samples.size()));
    if (r >= samples.size()) r = samples.size() - 1;
    return samples[r];
  };
  out.p50_us = rank(0.50);
  out.p99_us = rank(0.99);
  out.max_us = samples.back();
  return out;
}

void ServerMetrics::RecordBatch(size_t size) {
  batches_executed.fetch_add(1, std::memory_order_relaxed);
  batched_requests.fetch_add(size, std::memory_order_relaxed);
  uint64_t seen = max_batch_size.load(std::memory_order_relaxed);
  while (size > seen &&
         !max_batch_size.compare_exchange_weak(seen, size,
                                               std::memory_order_relaxed)) {
  }
}

ServerMetricsSnapshot ServerMetrics::Snapshot() const {
  ServerMetricsSnapshot s;
  s.connections_accepted = connections_accepted.load(std::memory_order_relaxed);
  s.connections_active = connections_active.load(std::memory_order_relaxed);
  s.connections_dropped = connections_dropped.load(std::memory_order_relaxed);
  s.requests_received = requests_received.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok.load(std::memory_order_relaxed);
  s.requests_error = requests_error.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected.load(std::memory_order_relaxed);
  s.requests_dropped = requests_dropped.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth.load(std::memory_order_relaxed);
  s.batches_executed = batches_executed.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests.load(std::memory_order_relaxed);
  s.max_batch_size = max_batch_size.load(std::memory_order_relaxed);
  s.cache_consults = cache_consults.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits.load(std::memory_order_relaxed);
  s.degraded_executions = degraded_executions.load(std::memory_order_relaxed);
  s.retract_answers = retract_answers.load(std::memory_order_relaxed);
  s.latency = latency.Compute();
  return s;
}

JsonValue ServerMetricsSnapshot::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("connections_accepted", JsonValue::Uint(connections_accepted));
  out.Set("connections_active", JsonValue::Uint(connections_active));
  out.Set("connections_dropped", JsonValue::Uint(connections_dropped));
  out.Set("requests_received", JsonValue::Uint(requests_received));
  out.Set("requests_ok", JsonValue::Uint(requests_ok));
  out.Set("requests_error", JsonValue::Uint(requests_error));
  out.Set("requests_rejected", JsonValue::Uint(requests_rejected));
  out.Set("requests_dropped", JsonValue::Uint(requests_dropped));
  out.Set("queue_depth", JsonValue::Uint(queue_depth));
  out.Set("batches_executed", JsonValue::Uint(batches_executed));
  out.Set("batched_requests", JsonValue::Uint(batched_requests));
  out.Set("max_batch_size", JsonValue::Uint(max_batch_size));
  out.Set("cache_consults", JsonValue::Uint(cache_consults));
  out.Set("cache_hits", JsonValue::Uint(cache_hits));
  out.Set("degraded_executions", JsonValue::Uint(degraded_executions));
  out.Set("retract_answers", JsonValue::Uint(retract_answers));
  JsonValue latency_json = JsonValue::Object();
  latency_json.Set("samples", JsonValue::Uint(latency.samples));
  latency_json.Set("p50_us", JsonValue::Uint(latency.p50_us));
  latency_json.Set("p99_us", JsonValue::Uint(latency.p99_us));
  latency_json.Set("max_us", JsonValue::Uint(latency.max_us));
  out.Set("latency", std::move(latency_json));
  return out;
}

}  // namespace hompres
