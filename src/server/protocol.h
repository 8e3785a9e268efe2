// The hompresd request/response protocol (DESIGN.md §4.7).
//
// One frame (server/frame.h) carries one JSON object. Requests name an
// operation and an id; responses echo the id and either carry the answer
// ("ok": true) or a structured error ("ok": false, "error": {code,
// message, line, column}). Error codes are kebab-case "subsystem/event"
// strings, mirroring the failpoint catalogue: "frame/malformed",
// "json/parse", "request/invalid", "structure/parse", "program/parse",
// "plan/<kind>", "admission/queue-full", "admission/per-client",
// "admission/rejected", "registry/unknown-name", "registry/unknown-view",
// "server/shutting-down".
//
// Operations:
//   ping            liveness probe
//   stats           server metrics snapshot (queue depth, batching,
//                   cache hit rate, latency percentiles)
//   define          register a named structure ("name", "structure",
//                   optional "vocabulary")
//   mutate          edit a named structure by delta: any of "add_tuple"
//                   ({relation, tuple}), "remove_tuple" ({relation,
//                   tuple}), "add_elements" (count), applied as one
//                   StructureDelta with the element appends taking
//                   effect first (so a new tuple may reference the
//                   freshly appended elements). The update is
//                   copy-on-write, so in-flight batches keep their
//                   snapshot and freshness is carried entirely by the
//                   new fingerprint (see DESIGN.md §4.7). Every
//                   materialized view registered on the structure is
//                   maintained incrementally under the same delta, and
//                   the response carries a "maintenance" block: what
//                   the delta did to the base ("applied": inserted /
//                   removed / elements / noops / index flags / version)
//                   and, per warm view, the chosen strategy with its
//                   work counters ("views": [{name, strategy, summary,
//                   derivations, rounds, idb_inserted, idb_removed,
//                   rederived, recomputed, degradations}]).
//   view_define     register a materialized Datalog view ("name") over
//                   a named structure ("on") from a program text
//                   ("program", datalog/parser.h grammar); optional
//                   "max_bounded_stage" caps the Ajtai-Gurevich
//                   boundedness probe. The certificate is reported
//                   ("bounded") for every program, but it changes the
//                   plan only for recursive ones, which it sends to
//                   bounded-UCQ; non-recursive views maintain by
//                   counting. The view evaluates its fixpoint up front
//                   and is kept warm by every later mutate of the base.
//   view_tuples     read a maintained view's IDB ("name"): per-IDB
//                   tuple lists plus version/strategy metadata,
//                   truncated at "max_results".
//   hom_has/find/count/enumerate
//                   HomProblem-shaped queries: "source" (structure
//                   text), "target" (structure text or "@name"),
//                   optional "config", "budget", "limit", "max_results"
//   cq_satisfied / cq_evaluate
//                   conjunctive query ("query": {structure, free})
//                   against "target"
//   ucq_satisfied / ucq_evaluate
//                   union of CQs ("disjuncts": [...], "arity")
//   cq_contained    Chandra-Merlin containment of "q1" in "q2"
//
// This header is deliberately transport-free: it parses request
// envelopes out of JsonValues and builds response JsonValues. Structure
// texts stay raw strings here — resolving "@name" references and
// parsing inline structures needs the server's registry, so it happens
// in server/server.cc.

#ifndef HOMPRES_SERVER_PROTOCOL_H_
#define HOMPRES_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/config.h"
#include "server/json.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {

// A protocol-level failure: which rule was violated and (for text
// parsers underneath) where. Becomes the "error" object of a response.
struct ProtocolError {
  std::string code;  // kebab-case "subsystem/event"
  std::string message;
  int line = 0;  // 1-based; 0 = no location
  int column = 0;
};

enum class RequestOp {
  kPing,
  kStats,
  kDefine,
  kMutate,
  kViewDefine,
  kViewTuples,
  kHomHas,
  kHomFind,
  kHomCount,
  kHomEnumerate,
  kCqSatisfied,
  kCqEvaluate,
  kUcqSatisfied,
  kUcqEvaluate,
  kCqContained,
};

// Stable wire name ("hom_has", "cq_contained", ...).
const char* RequestOpName(RequestOp op);
std::optional<RequestOp> RequestOpFromName(const std::string& name);

// True for the four HomProblem-shaped ops (the ones admission budgets
// and the batcher group by target fingerprint).
bool IsHomOp(RequestOp op);

// A conjunctive query, as shipped on the wire: canonical structure text
// plus the free-variable list.
struct CqSpec {
  std::string structure_text;
  std::vector<int> free_elements;
};

// Default cap on enumerate/evaluate result lists shipped back in one
// response (overridable per request, clamped to the frame size anyway).
inline constexpr uint64_t kDefaultMaxResults = 4096;

struct Request {
  int64_t id = 0;
  RequestOp op = RequestOp::kPing;

  // Optional request-level vocabulary; when absent, the server uses the
  // referenced named structure's vocabulary, or {E/2} for inline texts.
  std::optional<Vocabulary> vocabulary;

  // Hom ops.
  std::string source_text;
  std::string target_spec;  // structure text, or "@name" registry ref
  uint64_t limit = 0;       // hom_count
  uint64_t max_results = kDefaultMaxResults;

  // Engine configuration. `cache_explicit` records whether the client
  // set "cache" itself (otherwise the server's default applies to
  // has/count ops).
  EngineConfig config;
  bool cache_explicit = false;

  // Per-request budget; 0 = unlimited (then clamped by admission caps).
  uint64_t max_steps = 0;
  uint64_t timeout_ms = 0;

  // CQ/UCQ ops.
  CqSpec query;                   // cq_satisfied / cq_evaluate
  std::vector<CqSpec> disjuncts;  // ucq_*
  int ucq_arity = 0;
  CqSpec q1, q2;  // cq_contained

  // define / mutate / view_define / view_tuples.
  std::string name;
  std::string structure_text;            // define
  std::string mutate_relation;           // mutate: "add_tuple" relation
  std::vector<int> mutate_tuple;         //   tuple to insert
  std::string mutate_remove_relation;    // mutate: "remove_tuple" relation
  std::vector<int> mutate_remove_tuple;  //   tuple to delete
  int mutate_add_elements = 0;           //   universe elements to append
  std::string view_on;                   // view_define: base structure name
  std::string view_program;              //   Datalog program text
  int view_max_bounded_stage = 2;        //   boundedness probe cap (plans
                                         //   recursive programs only)
};

// Parses one request object. On failure returns nullopt and fills
// *error; the caller should still answer with the id recovered via
// RequestIdOrZero (a malformed body often has a readable id).
std::optional<Request> ParseRequest(const JsonValue& v, ProtocolError* error);

// Best-effort id extraction from any JSON value (0 when unavailable),
// so error responses to malformed requests stay correlated.
int64_t RequestIdOrZero(const JsonValue& v);

// Response skeletons. Ok responses start as {"id", "op", "ok": true};
// callers Set() the answer fields.
JsonValue OkResponse(int64_t id, RequestOp op);
JsonValue ErrorResponse(int64_t id, const ProtocolError& error);
JsonValue ErrorResponse(int64_t id, const std::string& code,
                        const std::string& message);

// Parser-compatible structure text ("|A|=3; E={(0 1),(1 2)}"): the
// inverse of structure/parser.h, used by clients to ship structures.
std::string StructureText(const Structure& s);

// Vocabulary <-> JSON ([["E",2],["T",3]]).
JsonValue VocabularyJson(const Vocabulary& vocabulary);
std::optional<Vocabulary> ParseVocabularyJson(const JsonValue& v,
                                              ProtocolError* error);

}  // namespace hompres

#endif  // HOMPRES_SERVER_PROTOCOL_H_
