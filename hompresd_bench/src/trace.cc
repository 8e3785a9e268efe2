#include "trace.h"

#include <fstream>

#include <chrono>

#include "server/json.h"

namespace hompresd_bench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_.open_;
  span.request = tracer_.request_;
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_ = index_;
  tracer_.spans_.back().start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  tracer_.open_ = span.parent;
}

void Tracer::Scope::Rename(const char* name) {
  if (index_ >= 0) tracer_.spans_[static_cast<size_t>(index_)].name = name;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    hompres::JsonValue line = hompres::JsonValue::Object();
    line.Set("span", hompres::JsonValue::Uint(i));
    line.Set("name", hompres::JsonValue::String(s.name));
    line.Set("start_ns", hompres::JsonValue::Int(s.start_ns));
    line.Set("end_ns", hompres::JsonValue::Int(s.end_ns));
    line.Set("parent", hompres::JsonValue::Int(s.parent));
    line.Set("request", hompres::JsonValue::Int(s.request));
    out << line.Serialize() << "\n";
  }
  return static_cast<bool>(out);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace hompresd_bench
