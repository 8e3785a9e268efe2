// Planning: turn a (HomProblem, EngineConfig) pair into an executable,
// inspectable HomPlan.
//
// Planning is a fixed sequence of deterministic passes:
//
//   1. Validation / normalization against one audited table
//      (kNormalizations and kIncompatibilities in plan.cc). Mode-driven
//      normalizations (enumeration is always serial and monolithic,
//      deterministic_witness needs threads) are applied and recorded as
//      adjustments. Each incompatible combination — cache with a witness
//      or enumeration query, factorization with surjectivity or forced
//      pairs, index narrowing without arc consistency — is a structured
//      PlanError, as are the caller bugs (vocabulary mismatch, an
//      enumeration without a callback, a limit outside count).
//   2. Forced-pair range check: a pair naming an element outside either
//      universe makes the query a certain "no"; the plan records it and
//      the kernel answers without searching.
//   3. Cache pass: has/count queries with use_cache consult the global
//      HomCache keyed by Structure::Fingerprint(); the plan carries the
//      fingerprints and options digest. Dispatch planning below is
//      deferred for such plans — the miss path re-plans without the
//      cache — so a cache hit costs no planning work.
//   4. Gaifman-component factorization: when sound (no surjectivity, no
//      forced pairs, not enumeration) and the source splits into two or
//      more components, the plan solves them independently.
//   5. Index-statistics-driven ordering + kernel selection: with
//      num_threads > 0 the split elements are chosen from the source's
//      occurrence order (engine/ordering.h) and the parallel
//      subtree-split driver runs them; otherwise the serial kernel
//      (AC-3 bitset, or naive backtracking when arc consistency is off)
//      runs with its dynamic smallest-domain-first variable order.
//
// The same inputs always produce the same plan, and HomPlan::Explain()
// renders it as a stable, diffable trace.

#ifndef HOMPRES_ENGINE_PLAN_H_
#define HOMPRES_ENGINE_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/problem.h"

namespace hompres {

enum class PlanErrorCode {
  kVocabularyMismatch,         // source and target vocabularies differ
  kMissingCallback,            // kEnumerate without a callback
  kLimitOutsideCount,          // limit != 0 on a non-count query
  kCacheWithFind,              // cache stores scalar answers, not witnesses
  kCacheWithEnumerate,         // cache stores scalar answers, not streams
  kFactorizeWithSurjective,    // surjectivity couples the components
  kFactorizeWithForced,        // forced pairs name the unsplit universe
  kIndexWithoutArcConsistency, // the naive kernel never scans
};

// Stable kebab-case name (e.g. "cache-with-enumerate") for messages.
const char* PlanErrorCodeName(PlanErrorCode code);

struct PlanError {
  PlanErrorCode code;
  std::string message;
};

enum class SerialKernel {
  kArcConsistencyBitset,  // AC-3 over packed bitset domains (default)
  kNaiveBacktracking,     // plain backtracking baseline
};

enum class ExecStrategy {
  kSerial,         // one serial kernel run
  kFactorized,     // independent per-Gaifman-component sub-queries
  kParallelSplit,  // subtree-split over a work-stealing pool
};

const char* SerialKernelName(SerialKernel kernel);
const char* ExecStrategyName(ExecStrategy strategy);

// One rung of the execution-time degradation ladder (DESIGN.md §4.6):
// which fallback a failed (or fault-injected) facility forced. The
// ladder is ordered — cache first, then index, then parallelism, then
// factorization, then the AC kernel — and every fallback preserves the
// answer; only cost and (for parallel → serial with a nondeterministic
// witness policy) witness choice can change.
enum class DegradationKind {
  kCacheLookupToMiss,        // unreadable shard: treat as miss, evict shard
  kCacheInsertSkipped,       // result computed but not memoized
  kIndexToScan,              // index build failed: unindexed scans
  kParallelToSerial,         // workers unavailable: one serial search
  kFactorizedToMonolithic,   // component split abandoned: whole-source search
  kAcToNaive,                // AC workspace unavailable: naive backtracking
  kMinimizeToUnminimized,    // UCQ optimizer budget/probe failure: keep the
                             // redundant (but equivalent) input disjuncts
  kMaintainToFromScratch,    // view maintenance fault: full refixpoint
  kIndexDeltaToRebuild,      // structure cache fault under a delta:
                             // blanket invalidation, lazy rebuild
};

// Stable kebab-case name (e.g. "index-to-scan") for Explain/Summary and
// the bench-JSON plan field.
const char* DegradationKindName(DegradationKind kind);

// A structured record of one fallback taken during execution: the rung,
// the failpoint-style site name that tripped ("relation_index/build"),
// and a human-readable detail.
struct DegradationEvent {
  DegradationKind kind;
  std::string site;
  std::string detail;
};

struct HomPlan {
  HomProblem problem;
  EngineConfig config;  // normalized by the validation pass

  ExecStrategy strategy = ExecStrategy::kSerial;
  SerialKernel kernel = SerialKernel::kArcConsistencyBitset;
  bool use_index = false;  // effective index narrowing in the kernel

  // Cache pass. When consult_cache is set, strategy describes nothing:
  // dispatch is deferred to the cache-miss path (which re-plans without
  // the cache), so a cache hit costs no planning work.
  bool consult_cache = false;
  uint64_t source_fingerprint = 0;
  uint64_t target_fingerprint = 0;
  uint64_t options_digest = 0;

  // Factorization pass: element lists of the source's Gaifman
  // components; empty unless strategy == kFactorized.
  std::vector<std::vector<int>> components;

  // Parallel pass: split elements (occurrence order) and the task count
  // their value ranges cross into; meaningful for kParallelSplit.
  std::vector<int> split_elements;
  size_t split_tasks = 1;

  // False iff some forced pair names an element outside either
  // universe — the query is then a certain "no" without searching.
  bool forced_in_range = true;

  // Mode-driven normalizations applied by the validation pass, in table
  // order. Empty = the config was taken as is.
  std::vector<std::string> adjustments;

  // Degradations recorded by the most recent Engine::Execute of this
  // plan (cleared at the start of each execution). Mutable because a
  // plan is logically immutable — executing it does not change what was
  // planned — but the audit of *how* it actually ran belongs with the
  // plan the caller holds. Consequently a single HomPlan object must not
  // be executed from two threads at once.
  mutable std::vector<DegradationEvent> degradations;

  // Multi-line, deterministic plan trace (CLI --explain). After an
  // execution that degraded, ends with a "degradations:" section listing
  // each event as "kind (site): detail".
  std::string Explain() const;

  // One-line summary ("mode=has strategy=serial kernel=ac-bitset
  // simd=avx2 components=1 tasks=1 cache=0") stamped into bench JSON
  // rows so plan changes are diffable in CI; the simd token is the
  // dispatched bitset64 kernel level (base/simd.h). After a degraded
  // execution, gains a trailing "degraded=kind+kind" token
  // (bench/check_regression.py flags it).
  std::string Summary() const;
};

// Planning is always strict: incompatible combinations are PlanErrors.
// The enum and PlanHomQuery's defaulted `mode` parameter remain only for
// existing callers that name PlanMode::kStrict.
enum class PlanMode {
  kStrict,
};

// Exactly one of `plan` and `error` is set.
struct PlanResult {
  std::optional<HomPlan> plan;
  std::optional<PlanError> error;
};

PlanResult PlanHomQuery(const HomProblem& problem, const EngineConfig& config,
                        PlanMode mode = PlanMode::kStrict);

// Digest of the config fields that change a has/count answer (engine
// selection is excluded: every engine returns the same answer by
// contract, so they share cache entries). Exposed for the cache tests.
uint64_t CacheOptionsDigest(const EngineConfig& config, uint64_t limit);

}  // namespace hompres

#endif  // HOMPRES_ENGINE_PLAN_H_
