// The traced in-process replay: the workload's seeded request stream
// executed through the library's public functions, in the order the
// daemon calls them for one request, with a span around each call:
//
//   ParseJson + ParseRequest                       server.decode
//   ParseStructure (inline sources and queries)    structure.parse
//   first TryIndex on a fresh target snapshot      structure.index_build
//   PlanHomQuery / Engine::Execute                 engine.plan /
//                                                  engine.execute or
//                                                  hom.cache_hit
//   ConjunctiveQuery::Evaluate / CqContained       cq.evaluate /
//                                                  cq.contained
//   UcqFingerprint, OptimizeUcqBudgeted (memo      opt.fingerprint,
//   misses), UnionOfCq::SatisfiedBy / Evaluate     opt.optimize,
//                                                  opt.ucq_eval
//   snapshot copy + Structure::Apply               structure.cow_apply
//   MaterializedView::Apply                        datalog.maintain.<s>
//   reading a view's IDB into the response         datalog.view_tuples
//   building the response object                   server.respond
//   JsonValue::Serialize + EncodeFrame             server.encode
//   freeing the request's state                    server.release
//
// Resolving a "@name" target is part of structure.parse, as it is part
// of the daemon's request resolution.
//
// Each request is one root span ("request"). The replay runs single
// threaded, with no sockets, queue or batching: the difference between
// the client's latency and the replay's is the serving overhead.

#ifndef HOMPRESD_BENCH_REPLAY_H_
#define HOMPRESD_BENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace hompresd_bench {

struct ReplayResult {
  // Wall time of the measured part (after the replayed warm-up).
  double wall_s = 0;
  // Construction of the materialized views (initial fixpoints).
  double materialize_s = 0;
  size_t requests = 0;
  size_t failed = 0;  // requests the library rejected (should be 0)
  // Optimizer memo misses: disjuncts in and out of OptimizeUcqBudgeted.
  long long disjuncts_in = 0;
  long long disjuncts_out = 0;
  std::vector<Span> spans;  // empty when untraced
};

// Replays the warm-up prefix of every connection (untraced), then
// spec.replay requests of the window, interleaved round-robin.
ReplayResult Replay(const WorkloadSpec& spec, bool traced);

}  // namespace hompresd_bench

#endif  // HOMPRESD_BENCH_REPLAY_H_
