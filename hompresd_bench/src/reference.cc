#include "reference.h"

#include <cstring>
#include <map>
#include <set>
#include <unordered_map>

#include "base/budget.h"
#include "cq/cq.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "server/protocol.h"
#include "structure/parser.h"

namespace hompresd_bench {

namespace {

using namespace hompres;

// Responses compared per run, at most (the reference path is slow on
// purpose).
constexpr size_t kMaxChecks = 150;
constexpr size_t kMaxMessages = 5;

uint64_t Mix(uint64_t seed, int connection, size_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(connection) * 0xBF58476D1CE4E5B9ULL +
               index * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool ItemSampled(uint64_t seed, int item) {
  return Mix(seed, -1, static_cast<size_t>(item)) % 8 == 0;
}

EngineConfig ReferenceConfig() {
  EngineConfig config;
  config.use_index = false;
  config.use_cache = false;
  config.num_threads = 0;
  return config;
}

bool RefHas(const Structure& a, const Structure& b,
            const EngineConfig& config = ReferenceConfig()) {
  Budget budget = Budget::Unlimited();
  return Engine::Has(a, b, budget, config).Value();
}

uint64_t RefCount(const Structure& a, const Structure& b, uint64_t limit) {
  Budget budget = Budget::Unlimited();
  return Engine::Count(a, b, budget, limit, ReferenceConfig()).Value();
}

std::vector<Tuple> RefAnswers(const ConjunctiveQuery& q, const Structure& b) {
  if (!NullaryAtomsHold(q.Canonical(), b)) return {};
  std::set<Tuple> answers;
  Budget budget = Budget::Unlimited();
  Engine::Enumerate(
      q.Canonical(), b, budget,
      [&](const std::vector<int>& h) {
        Tuple t;
        for (int v : q.FreeElements()) t.push_back(h[static_cast<size_t>(v)]);
        answers.insert(std::move(t));
        return true;
      },
      ReferenceConfig());
  return {answers.begin(), answers.end()};
}

// Chandra-Merlin: q1 is contained in q2 iff canonical(q2) maps to
// canonical(q1) sending q2's free variables onto q1's.
bool RefContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (!NullaryAtomsHold(q2.Canonical(), q1.Canonical())) return false;
  EngineConfig config = ReferenceConfig();
  config.factorize = false;
  for (size_t i = 0; i < q1.FreeElements().size(); ++i) {
    config.forced.push_back({q2.FreeElements()[i], q1.FreeElements()[i]});
  }
  return RefHas(q2.Canonical(), q1.Canonical(), config);
}

bool IsWitness(const Structure& a, const Structure& b,
               const std::vector<int>& h) {
  if (static_cast<int>(h.size()) != a.UniverseSize()) return false;
  for (int e : h) {
    if (e < 0 || e >= b.UniverseSize()) return false;
  }
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : a.Tuples(rel)) {
      Tuple image;
      for (int e : t) image.push_back(h[static_cast<size_t>(e)]);
      if (!b.HasTuple(rel, image)) return false;
    }
  }
  return true;
}

Structure Parse(const std::string& text) {
  return *ParseStructure(text, GraphVocabulary());
}

ConjunctiveQuery BuildCq(const CqSpec& spec) {
  return ConjunctiveQuery(Parse(spec.structure_text), spec.free_elements);
}

JsonValue TupleListJson(const std::vector<Tuple>& tuples) {
  JsonValue out = JsonValue::Array();
  for (const Tuple& t : tuples) {
    JsonValue tuple = JsonValue::Array();
    for (int e : t) tuple.Append(JsonValue::Int(e));
    out.Append(std::move(tuple));
  }
  return out;
}

Request ParsedRequest(const GenRequest& request) {
  ProtocolError error;
  return *ParseRequest(*ParseJson(Payload(request, 0)), &error);
}

// The "idb" member a view_tuples response must carry for `program` over
// `base`, built from a from-scratch fixpoint the way the daemon lists a
// maintained one (sorted tuples, one max_results budget across IDBs).
JsonValue ExpectedIdb(const DatalogProgram& program, const Structure& base,
                      uint64_t max_results) {
  DatalogEvalOptions options;
  options.use_index = false;
  const DatalogResult fixpoint = EvaluateSemiNaive(program, base, options);
  const Vocabulary& idb = program.Idb();
  JsonValue relations = JsonValue::Array();
  uint64_t remaining = max_results;
  for (int rel = 0; rel < idb.NumRelations(); ++rel) {
    const std::set<Tuple>& tuples = fixpoint.idb[static_cast<size_t>(rel)];
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(idb.Name(rel)));
    entry.Set("arity", JsonValue::Int(idb.Arity(rel)));
    entry.Set("size", JsonValue::Uint(tuples.size()));
    std::vector<Tuple> listed;
    for (const Tuple& t : tuples) {
      if (remaining == 0) break;
      --remaining;
      listed.push_back(t);
    }
    entry.Set("tuples", TupleListJson(listed));
    relations.Append(std::move(entry));
  }
  return relations;
}

// Compares `response`'s answer to the reference for a request whose
// structures are fixed (hom_miss, query_reuse, and view_stream reads
// against one candidate base). Empty string = agreement.
std::string Compare(const Request& request, const Structure& target,
                    const JsonValue& response) {
  auto field = [&](const char* key) { return response.Find(key); };
  auto expect_bool = [&](const char* key, bool want) -> std::string {
    const JsonValue* got = field(key);
    if (got == nullptr || !got->IsBool() || got->AsBool() != want) {
      return std::string(key) + " differs from the reference (" +
             (want ? "true" : "false") + ")";
    }
    return "";
  };
  auto expect_answers = [&](std::vector<Tuple> want) -> std::string {
    const bool truncated = want.size() > request.max_results;
    if (truncated) want.resize(request.max_results);
    const JsonValue* got = field("answers");
    const JsonValue* got_truncated = field("truncated");
    if (got == nullptr || !(*got == TupleListJson(want)) ||
        got_truncated == nullptr || !got_truncated->IsBool() ||
        got_truncated->AsBool() != truncated) {
      return "answers differ from the reference";
    }
    return "";
  };
  switch (request.op) {
    case RequestOp::kHomHas:
      return expect_bool("has", RefHas(Parse(request.source_text), target));
    case RequestOp::kHomCount: {
      const uint64_t want =
          RefCount(Parse(request.source_text), target, request.limit);
      const JsonValue* got = field("count");
      if (got == nullptr || got->AsUint64() != want) {
        return "count differs from the reference (" + std::to_string(want) +
               ")";
      }
      return "";
    }
    case RequestOp::kHomFind: {
      const Structure source = Parse(request.source_text);
      const bool want = RefHas(source, target);
      const JsonValue* got = field("witness");
      if (got == nullptr) return "witness missing";
      if (!want) return got->IsNull() ? "" : "witness where none exists";
      if (!got->IsArray()) return "no witness where one exists";
      std::vector<int> h;
      for (const JsonValue& e : got->Items()) {
        h.push_back(static_cast<int>(e.AsInt64().value_or(-1)));
      }
      return IsWitness(source, target, h) ? ""
                                          : "witness is not a homomorphism";
    }
    case RequestOp::kCqEvaluate:
      return expect_answers(RefAnswers(BuildCq(request.query), target));
    case RequestOp::kUcqSatisfied:
    case RequestOp::kUcqEvaluate: {
      // The union as sent, unoptimized: the reference answer is the
      // union of the disjuncts' answers.
      std::set<Tuple> answers;
      for (const CqSpec& d : request.disjuncts) {
        for (Tuple& t : RefAnswers(BuildCq(d), target)) {
          answers.insert(std::move(t));
        }
      }
      if (request.op == RequestOp::kUcqSatisfied) {
        return expect_bool("satisfied", !answers.empty());
      }
      return expect_answers({answers.begin(), answers.end()});
    }
    case RequestOp::kCqContained:
      return expect_bool(
          "contained", RefContained(BuildCq(request.q1), BuildCq(request.q2)));
    default:
      return "unexpected op";
  }
}

// view_stream state: the base edges plus toggles.
class BaseStates {
 public:
  BaseStates(const WorkloadSpec& spec, const LoadGenerator& load)
      : vocabulary_(GraphVocabulary()) {
    const Structure base = Parse(spec.named.at(spec.view_base));
    universe_ = base.UniverseSize();
    for (const Tuple& t : base.Tuples(0)) base_.insert({t[0], t[1]});
    for (int c = 0; c < kConnections; ++c) {
      const auto& stream = spec.streams[static_cast<size_t>(c)];
      auto& mine = toggles_[static_cast<size_t>(c)];
      for (size_t i = 0; i < load.Sent(c); ++i) {
        if (std::strcmp(stream[i].op, "mutate") != 0) continue;
        mine.push_back({stream[i].edge, stream[i].insert});
        const Sample& sample = load.Samples(c)[i];
        if (sample.answered && sample.Detail().version > 0) {
          by_version_[sample.Detail().version] = {stream[i].edge,
                                                  stream[i].insert};
        }
      }
    }
  }

  // Every answered mutate carried a distinct version, 1..M.
  bool VersionsDense(size_t answered) const {
    return by_version_.size() == answered &&
           (by_version_.empty() ||
            (by_version_.begin()->first == 1 &&
             by_version_.rbegin()->first ==
                 static_cast<int64_t>(answered)));
  }

  Structure AtVersion(int64_t version) const {
    std::set<Edge> edges = base_;
    for (const auto& [v, op] : by_version_) {
      if (v > version) break;
      Toggle(op, &edges);
    }
    return Build(edges);
  }

  // Base after the first p0 mutates of connection 0 and p1 of 1.
  Structure AtPrefixes(const std::vector<int>& prefixes) const {
    std::set<Edge> edges = base_;
    for (int c = 0; c < kConnections; ++c) {
      const auto& mine = toggles_[static_cast<size_t>(c)];
      for (int k = 0; k < prefixes[static_cast<size_t>(c)] &&
                      k < static_cast<int>(mine.size());
           ++k) {
        Toggle(mine[static_cast<size_t>(k)], &edges);
      }
    }
    return Build(edges);
  }

  int64_t MaxVersion() const {
    return by_version_.empty() ? 0 : by_version_.rbegin()->first;
  }

 private:
  static void Toggle(const std::pair<Edge, bool>& op, std::set<Edge>* edges) {
    if (op.second) {
      edges->insert(op.first);
    } else {
      edges->erase(op.first);
    }
  }

  Structure Build(const std::set<Edge>& edges) const {
    Structure s(vocabulary_, universe_);
    for (const Edge& e : edges) s.AddTuple(0, {e.first, e.second});
    return s;
  }

  Vocabulary vocabulary_;
  int universe_ = 0;
  std::set<Edge> base_;
  std::vector<std::pair<Edge, bool>> toggles_[kConnections];
  std::map<int64_t, std::pair<Edge, bool>> by_version_;
};

std::map<std::string, DatalogProgram> ViewPrograms(const WorkloadSpec& spec) {
  std::map<std::string, DatalogProgram> programs;
  for (const auto& [name, text] : spec.views) {
    programs.emplace(name, *ParseDatalogProgram(text, GraphVocabulary()));
  }
  return programs;
}

int64_t IntVersion(const JsonValue& response) {
  const JsonValue* v = response.Find("version");
  return v == nullptr ? -1 : v->AsInt64().value_or(-1);
}

void CheckViewStream(const WorkloadSpec& spec, const LoadGenerator& load,
                     CheckReport* report) {
  const BaseStates states(spec, load);
  const auto programs = ViewPrograms(spec);
  size_t mutates = 0;
  for (int c = 0; c < kConnections; ++c) {
    const auto& stream = spec.streams[static_cast<size_t>(c)];
    for (size_t i = 0; i < load.Sent(c); ++i) {
      if (std::strcmp(stream[i].op, "mutate") != 0) continue;
      const SampleDetail& detail = load.Samples(c)[i].Detail();
      ++mutates;
      const bool applied = stream[i].insert
                               ? detail.inserted == 1 && detail.removed == 0
                               : detail.inserted == 0 && detail.removed == 1;
      if (!applied || detail.noops != 0) {
        report->Fail("mutate " + std::to_string(RequestId(c, i)) +
                     " was not applied exactly once");
      }
    }
  }
  if (!states.VersionsDense(mutates)) {
    report->Fail("mutate versions are not 1.." + std::to_string(mutates));
  }
  size_t checks = 0;
  for (int c = 0; c < kConnections; ++c) {
    const auto& stream = spec.streams[static_cast<size_t>(c)];
    for (size_t i = 0; i < load.Sent(c) && checks < kMaxChecks; ++i) {
      const Sample& sample = load.Samples(c)[i];
      if (sample.Response() == nullptr || !sample.ok) continue;
      const Request request = ParsedRequest(stream[i]);
      if (request.op == RequestOp::kViewTuples) {
        ++checks;
        ++report->checked;
        const int64_t version = IntVersion(*sample.Response());
        const JsonValue want = ExpectedIdb(programs.at(request.name),
                                           states.AtVersion(version),
                                           request.max_results);
        const JsonValue* got = sample.Response()->Find("idb");
        if (got == nullptr || !(*got == want)) {
          report->Fail("view_tuples " + std::to_string(RequestId(c, i)) +
                       " differs from the reference fixpoint at version " +
                       std::to_string(version));
        }
      } else if (request.op == RequestOp::kHomHas) {
        // The read saw this connection's earlier mutates and a prefix
        // of the other's between what was acknowledged when it was sent
        // and what had been sent when its answer arrived.
        ++checks;
        ++report->checked;
        const int other = (c + 1) % kConnections;
        bool matched = false;
        for (int p = sample.other_acked_at_send;
             p <= sample.other_sent_at_recv && !matched; ++p) {
          std::vector<int> prefixes(kConnections);
          prefixes[static_cast<size_t>(c)] = stream[i].own_mutates_before;
          prefixes[static_cast<size_t>(other)] = p;
          matched = Compare(request, states.AtPrefixes(prefixes),
                            *sample.Response())
                        .empty();
        }
        if (!matched) {
          report->Fail("hom_has " + std::to_string(RequestId(c, i)) +
                       " matches no base state it could have read");
        }
      }
    }
  }
}

}  // namespace

void CheckReport::Fail(std::string message) {
  ++mismatches;
  if (messages.size() < kMaxMessages) messages.push_back(std::move(message));
}

bool Sampled(const WorkloadSpec& spec, int connection, size_t index) {
  const GenRequest& request =
      spec.streams[static_cast<size_t>(connection)][index];
  if (request.item >= 0) {
    return ItemSampled(spec.seed, request.item) &&
           Mix(spec.seed, connection, index) % 4 == 0;
  }
  return Mix(spec.seed, connection, index) % 24 == 0;
}

CheckReport CheckResponses(const WorkloadSpec& spec,
                           const LoadGenerator& load) {
  CheckReport report;
  if (spec.workload == Workload::kViewStream) {
    CheckViewStream(spec, load, &report);
    return report;
  }
  std::unordered_map<std::string, Structure> targets;
  for (const auto& [name, text] : spec.named) {
    targets.emplace("@" + name, Parse(text));
  }
  // Every repeat of a pool item must carry the same answer.
  std::unordered_map<int, uint64_t> item_digest;
  std::set<int> item_checked;
  size_t checks = 0;
  for (int c = 0; c < kConnections; ++c) {
    const auto& stream = spec.streams[static_cast<size_t>(c)];
    for (size_t i = 0; i < load.Sent(c); ++i) {
      const Sample& sample = load.Samples(c)[i];
      if (!sample.ok) continue;
      const GenRequest& generated = stream[i];
      if (generated.item >= 0) {
        auto [it, fresh] =
            item_digest.emplace(generated.item, sample.answer_digest);
        if (!fresh && it->second != sample.answer_digest) {
          report.Fail("pool item " + std::to_string(generated.item) +
                      " answered differently on a repeat");
        }
      }
      if (sample.Response() == nullptr || checks >= kMaxChecks) continue;
      if (generated.item >= 0 && !item_checked.insert(generated.item).second) {
        continue;
      }
      ++checks;
      ++report.checked;
      const Request request = ParsedRequest(generated);
      static const Structure kEmpty(GraphVocabulary(), 0);
      const auto target = targets.find(request.target_spec);
      const std::string problem =
          Compare(request, target == targets.end() ? kEmpty : target->second,
                  *sample.Response());
      if (!problem.empty()) {
        report.Fail(std::string(generated.op) + " " +
                    std::to_string(RequestId(c, i)) + ": " + problem);
      }
    }
  }
  return report;
}

void CheckFinalViews(
    const WorkloadSpec& spec, const LoadGenerator& load,
    const std::vector<std::pair<std::string, JsonValue>>& views,
    CheckReport* report) {
  const BaseStates states(spec, load);
  const auto programs = ViewPrograms(spec);
  const Structure final_base = states.AtVersion(states.MaxVersion());
  for (const auto& [name, response] : views) {
    ++report->checked;
    const JsonValue want =
        ExpectedIdb(programs.at(name), final_base, kFullViewResults);
    const JsonValue* got = response.Find("idb");
    const JsonValue* truncated = response.Find("truncated");
    if (got == nullptr || !(*got == want) || truncated == nullptr ||
        !truncated->IsBool() || truncated->AsBool()) {
      report->Fail("final view " + name +
                   " differs from the from-scratch fixpoint");
    }
  }
}

}  // namespace hompresd_bench
