// In-memory spans for the traced replay: each span has a name, start,
// end, parent span and request id. Spans are kept in memory while the
// replay runs and written out (JSON lines) at the end.

#ifndef HOMPRESD_BENCH_TRACE_H_
#define HOMPRESD_BENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hompresd_bench {

// The benchmark's clock: steady_clock in nanoseconds.
int64_t NowNs();

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list; -1 = root
  int64_t request = 0;
};

class Tracer {
 public:
  // A disabled tracer records nothing and reads no clock.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // RAII span around one call. The name may be refined before the span
  // ends (e.g. once the maintenance strategy is known).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void Rename(const char* name);

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void SetEnabled(bool enabled) { enabled_ = enabled; }
  void SetRequest(int64_t request) { request_ = request; }
  void Reserve(size_t spans) { spans_.reserve(spans); }
  const std::vector<Span>& Spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t request_ = 0;
  int open_ = -1;  // innermost open span
  std::vector<Span> spans_;
};

// Writes one JSON object per span (JSON lines) to `path`.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// Self time of each span: its duration minus the time its children
// cover (children of one span never overlap: the replay is serial).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace hompresd_bench

#endif  // HOMPRESD_BENCH_TRACE_H_
