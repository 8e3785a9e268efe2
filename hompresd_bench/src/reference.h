// Answer checking against the library's reference configuration:
// serial, uncached and unindexed homomorphism search, and from-scratch
// EvaluateSemiNaive (interpretive scan) for views. Nothing here shares
// the daemon's caches, indexes, optimizer or maintenance code.

#ifndef HOMPRESD_BENCH_REFERENCE_H_
#define HOMPRESD_BENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "loadgen.h"
#include "server/json.h"
#include "workload.h"

namespace hompresd_bench {

// max_results of the full view_tuples reads taken after the run (the
// daemon's cap).
inline constexpr uint64_t kFullViewResults = 65536;

struct CheckReport {
  size_t checked = 0;  // responses compared with a reference answer
  size_t mismatches = 0;
  std::vector<std::string> messages;  // first few mismatches

  void Fail(std::string message);
};

// True when the checker samples request `index` of `connection`: the
// load generator keeps these responses whole.
bool Sampled(const WorkloadSpec& spec, int connection, size_t index);

// Checks the sampled responses of `load` against reference answers, and
// (query_reuse) that every repeat of a pool item got the same answer,
// and (view_stream) that the mutates were all applied exactly once.
CheckReport CheckResponses(const WorkloadSpec& spec, const LoadGenerator& load);

// view_stream: checks full view_tuples responses taken after the run
// against a from-scratch fixpoint of the final base.
void CheckFinalViews(const WorkloadSpec& spec, const LoadGenerator& load,
                     const std::vector<std::pair<std::string,
                                                 hompres::JsonValue>>& views,
                     CheckReport* report);

}  // namespace hompresd_bench

#endif  // HOMPRESD_BENCH_REFERENCE_H_
