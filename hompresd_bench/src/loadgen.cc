#include "loadgen.h"

#include <cstring>
#include <thread>

#include "server/client.h"
#include "trace.h"

namespace hompresd_bench {

using hompres::Client;
using hompres::JsonValue;

uint64_t AnswerDigest(const JsonValue& response) {
  uint64_t h = 1469598103934665603ULL;
  for (const char* key :
       {"has", "count", "witness", "answers", "truncated", "satisfied",
        "contained", "idb"}) {
    const JsonValue* field = response.Find(key);
    if (field == nullptr) continue;
    const std::string text = std::string(key) + "=" + field->Serialize();
    for (unsigned char ch : text) {
      h = (h ^ ch) * 1099511628211ULL;
    }
  }
  return h;
}

double StatNumber(const JsonValue& stats,
                  std::initializer_list<const char*> path) {
  const JsonValue* v = &stats;
  for (const char* key : path) {
    v = v->Find(key);
    if (v == nullptr) return 0;
  }
  return v->AsDouble().value_or(0);
}

namespace {

int64_t IntField(const JsonValue& object, const char* key,
                 int64_t fallback) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) return fallback;
  const auto as_int = v->AsInt64();
  return as_int.has_value() ? *as_int : fallback;
}

bool BoolField(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->IsBool() && v->AsBool();
}

}  // namespace

LoadGenerator::LoadGenerator(const WorkloadSpec& spec, std::string socket_path,
                             std::function<bool(int, size_t)> keep_response)
    : spec_(spec),
      socket_path_(std::move(socket_path)),
      keep_response_(std::move(keep_response)),
      samples_(kConnections),
      next_(kConnections, 0) {}

bool LoadGenerator::Run(size_t begin, size_t end, double seconds,
                        std::string* error) {
  const int64_t start = NowNs();
  const int64_t deadline =
      seconds > 0 ? start + static_cast<int64_t>(seconds * 1e9) : 0;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kConnections);
  std::vector<char> ok(kConnections, 0);
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([this, c, begin, end, deadline, &errors, &ok] {
      ok[static_cast<size_t>(c)] = ConnectionLoop(
          c, begin, end, deadline, &errors[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& t : threads) t.join();
  window_start_ns_ = start;
  window_end_ns_ = NowNs();
  for (int c = 0; c < kConnections; ++c) {
    if (!ok[static_cast<size_t>(c)]) {
      *error = "connection " + std::to_string(c) + ": " +
               errors[static_cast<size_t>(c)];
      return false;
    }
  }
  return true;
}

bool LoadGenerator::ConnectionLoop(int c, size_t begin, size_t end,
                                   int64_t deadline_ns, std::string* error) {
  const auto& stream = spec_.streams[static_cast<size_t>(c)];
  end = std::min(end, stream.size());
  Client client;
  if (!client.Connect(socket_path_, error)) return false;
  const int other = (c + 1) % kConnections;
  size_t next = begin;
  int outstanding = 0;
  for (;;) {
    while (outstanding < kInFlight && next < end &&
           (deadline_ns == 0 || NowNs() < deadline_ns)) {
      const GenRequest& request = stream[next];
      // Samples grow with the requests sent, not the stream length.
      auto& samples = samples_[static_cast<size_t>(c)];
      if (samples.size() <= next) samples.resize(next + 1);
      Sample& sample = samples[next];
      const bool is_mutate = std::strcmp(request.op, "mutate") == 0;
      if (is_mutate) mutates_sent_[c].fetch_add(1);
      sample.other_acked_at_send = mutates_acked_[other].load();
      const std::string payload = Payload(request, RequestId(c, next));
      sample.send_ns = NowNs();
      if (!client.SendPayload(payload)) {
        *error = "send failed";
        return false;
      }
      ++next;
      ++outstanding;
    }
    if (outstanding == 0) break;
    const auto frame = client.ReadFrame(error);
    const int64_t now = NowNs();
    if (!frame.has_value()) return false;
    const std::optional<JsonValue> parsed = hompres::ParseJson(*frame);
    if (!parsed.has_value()) {
      *error = "unparsable response";
      return false;
    }
    const JsonValue& response = *parsed;
    const int64_t id = IntField(response, "id", -1);
    const size_t index = static_cast<size_t>(id & 0xffffffffLL);
    if (id < 0 || (id >> 32) != c + 1 || index < begin || index >= next ||
        samples_[static_cast<size_t>(c)][index].answered) {
      *error = "response with unexpected id " + std::to_string(id);
      return false;
    }
    Sample& sample = samples_[static_cast<size_t>(c)][index];
    sample.recv_ns = now;
    sample.other_sent_at_recv = mutates_sent_[other].load();
    if (std::strcmp(stream[index].op, "mutate") == 0) {
      mutates_acked_[c].fetch_add(1);
    }
    sample.answered = true;
    sample.ok = BoolField(response, "ok");
    const JsonValue* outcome = response.Find("outcome");
    sample.done = sample.ok && (outcome == nullptr ||
                                (outcome->IsString() &&
                                 outcome->AsString() == "done"));
    sample.answer_digest = AnswerDigest(response);
    sample.steps_used = IntField(response, "steps_used", -1);
    const JsonValue* err = response.Find("error");
    const JsonValue* maintenance = response.Find("maintenance");
    const bool keep = keep_response_(c, index);
    if (err != nullptr || maintenance != nullptr || keep) {
      sample.detail = std::make_unique<SampleDetail>();
      SampleDetail& detail = *sample.detail;
      if (err != nullptr) {
        if (const JsonValue* code = err->Find("code")) {
          if (code->IsString()) detail.error_code = code->AsString();
        }
      }
      if (maintenance != nullptr) {
        detail.version = IntField(response, "version", -1);
        if (const JsonValue* applied = maintenance->Find("applied")) {
          detail.inserted = IntField(*applied, "inserted", 0);
          detail.removed = IntField(*applied, "removed", 0);
          detail.noops = IntField(*applied, "noops", 0);
          detail.index_compacted = BoolField(*applied, "index_compacted");
        }
        const JsonValue* views = maintenance->Find("views");
        if (views != nullptr && views->IsArray()) {
          for (const JsonValue& view : views->Items()) {
            ViewMaintenance record;
            if (const JsonValue* s = view.Find("strategy")) {
              if (s->IsString()) record.strategy = s->AsString();
            }
            record.derivations = IntField(view, "derivations", 0);
            record.recomputed = BoolField(view, "recomputed");
            detail.views.push_back(std::move(record));
          }
        }
      }
      if (keep) detail.response = std::make_shared<const JsonValue>(response);
    }
    --outstanding;
  }
  next_[static_cast<size_t>(c)] = next;
  return true;
}

std::optional<JsonValue> LoadGenerator::Control(const std::string& body,
                                                std::string* error) {
  Client client;
  if (!client.Connect(socket_path_, error)) return std::nullopt;
  const std::string payload =
      "{\"id\":" + std::to_string(control_id_++) + "," + body + "}";
  if (!client.SendPayload(payload)) {
    *error = "control send failed";
    return std::nullopt;
  }
  const auto frame = client.ReadFrame(error);
  if (!frame.has_value()) return std::nullopt;
  hompres::ParseError parse_error;
  auto parsed = hompres::ParseJson(*frame, &parse_error);
  if (!parsed.has_value()) {
    *error = "control response: " + parse_error.message;
  }
  return parsed;
}

}  // namespace hompresd_bench
