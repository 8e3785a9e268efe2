#include "engine/plan.h"

#include <string>

#include "base/check.h"
#include "base/hash.h"
#include "base/simd.h"
#include "engine/ordering.h"
#include "graph/algorithms.h"
#include "structure/gaifman.h"
#include "structure/relation_index.h"

namespace hompres {

const char* HomQueryModeName(HomQueryMode mode) {
  switch (mode) {
    case HomQueryMode::kHas:
      return "has";
    case HomQueryMode::kFind:
      return "find";
    case HomQueryMode::kCount:
      return "count";
    case HomQueryMode::kEnumerate:
      return "enumerate";
  }
  return "?";
}

const char* PlanErrorCodeName(PlanErrorCode code) {
  switch (code) {
    case PlanErrorCode::kVocabularyMismatch:
      return "vocabulary-mismatch";
    case PlanErrorCode::kMissingCallback:
      return "missing-callback";
    case PlanErrorCode::kLimitOutsideCount:
      return "limit-outside-count";
    case PlanErrorCode::kCacheWithFind:
      return "cache-with-find";
    case PlanErrorCode::kCacheWithEnumerate:
      return "cache-with-enumerate";
    case PlanErrorCode::kFactorizeWithSurjective:
      return "factorize-with-surjective";
    case PlanErrorCode::kFactorizeWithForced:
      return "factorize-with-forced";
    case PlanErrorCode::kIndexWithoutArcConsistency:
      return "index-without-arc-consistency";
  }
  return "?";
}

const char* SerialKernelName(SerialKernel kernel) {
  switch (kernel) {
    case SerialKernel::kArcConsistencyBitset:
      return "ac-bitset";
    case SerialKernel::kNaiveBacktracking:
      return "naive";
  }
  return "?";
}

const char* DegradationKindName(DegradationKind kind) {
  switch (kind) {
    case DegradationKind::kCacheLookupToMiss:
      return "cache-lookup-to-miss";
    case DegradationKind::kCacheInsertSkipped:
      return "cache-insert-skipped";
    case DegradationKind::kIndexToScan:
      return "index-to-scan";
    case DegradationKind::kParallelToSerial:
      return "parallel-to-serial";
    case DegradationKind::kFactorizedToMonolithic:
      return "factorized-to-monolithic";
    case DegradationKind::kAcToNaive:
      return "ac-to-naive";
    case DegradationKind::kMinimizeToUnminimized:
      return "minimize-to-unminimized";
    case DegradationKind::kMaintainToFromScratch:
      return "maintain-to-scratch";
    case DegradationKind::kIndexDeltaToRebuild:
      return "index-delta-to-rebuild";
  }
  return "?";
}

const char* ExecStrategyName(ExecStrategy strategy) {
  switch (strategy) {
    case ExecStrategy::kSerial:
      return "serial";
    case ExecStrategy::kFactorized:
      return "factorized";
    case ExecStrategy::kParallelSplit:
      return "parallel-split";
  }
  return "?";
}

uint64_t CacheOptionsDigest(const EngineConfig& config, uint64_t limit) {
  // The sentinels and mixing order are shared with the pre-engine digest
  // so entries written by either layer key identically.
  uint64_t h = Mix64(config.surjective ? 0x53555246ULL : 0x544F54ULL);
  for (const auto& [var, val] : config.forced) {
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(var)));
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(val)));
  }
  h = Mix64(h ^ limit);
  return h;
}

namespace {

// The audited option-compatibility table, in two parts applied in
// order. First the mode-driven normalizations: they are not caller
// errors (the default config must stay usable in every mode), they are
// facts about the mode — enumeration is always serial and monolithic,
// deterministic_witness needs a thread pool to matter — so each is
// applied and recorded as an adjustment.
struct Normalization {
  const char* message;  // the recorded adjustment text
  bool (*applies)(HomQueryMode mode, const EngineConfig& config);
  void (*fix)(EngineConfig& config);
};

const Normalization kNormalizations[] = {
    {"enumeration is always serial: num_threads -> 0",
     [](HomQueryMode mode, const EngineConfig& config) {
       return mode == HomQueryMode::kEnumerate && config.num_threads > 0;
     },
     [](EngineConfig& config) { config.num_threads = 0; }},
    {"enumeration is always monolithic: factorize -> off",
     [](HomQueryMode mode, const EngineConfig& config) {
       return mode == HomQueryMode::kEnumerate && config.factorize;
     },
     [](EngineConfig& config) { config.factorize = false; }},
    {"deterministic_witness needs num_threads > 0: -> off",
     [](HomQueryMode mode, const EngineConfig& config) {
       (void)mode;
       return config.deterministic_witness && config.num_threads <= 0;
     },
     [](EngineConfig& config) { config.deterministic_witness = false; }},
};

// Then the incompatible combinations, each a structured PlanError.
struct Incompatibility {
  PlanErrorCode code;
  const char* message;
  bool (*applies)(HomQueryMode mode, const EngineConfig& config);
};

const Incompatibility kIncompatibilities[] = {
    {PlanErrorCode::kCacheWithFind,
     "the cache stores has/count answers, never witnesses: use_cache is "
     "incompatible with a find query",
     [](HomQueryMode mode, const EngineConfig& config) {
       return mode == HomQueryMode::kFind && config.use_cache;
     }},
    {PlanErrorCode::kCacheWithEnumerate,
     "the cache stores has/count answers, never streams: use_cache is "
     "incompatible with an enumerate query",
     [](HomQueryMode mode, const EngineConfig& config) {
       return mode == HomQueryMode::kEnumerate && config.use_cache;
     }},
    {PlanErrorCode::kFactorizeWithSurjective,
     "surjectivity constrains the union of the component images: "
     "factorize is incompatible with surjective",
     [](HomQueryMode mode, const EngineConfig& config) {
       (void)mode;
       return config.factorize && config.surjective;
     }},
    {PlanErrorCode::kFactorizeWithForced,
     "forced pairs name elements of the unsplit universe: factorize is "
     "incompatible with forced pairs",
     [](HomQueryMode mode, const EngineConfig& config) {
       (void)mode;
       return config.factorize && !config.forced.empty();
     }},
    {PlanErrorCode::kIndexWithoutArcConsistency,
     "the naive kernel probes single tuples and never scans: use_index "
     "requires use_arc_consistency",
     [](HomQueryMode mode, const EngineConfig& config) {
       (void)mode;
       return config.use_index && !config.use_arc_consistency;
     }},
};

PlanResult MakeError(PlanErrorCode code, const std::string& detail) {
  PlanResult result;
  result.error = PlanError{
      code, std::string(PlanErrorCodeName(code)) + ": " + detail};
  return result;
}

// Element lists of the Gaifman components of `a`, or empty when there
// are fewer than two (factorization is then the identity).
std::vector<std::vector<int>> SourceComponents(const Structure& a) {
  if (a.UniverseSize() < 2) return {};
  int num_components = 0;
  const std::vector<int> comp =
      ConnectedComponents(GaifmanGraph(a), &num_components);
  if (num_components < 2) return {};
  std::vector<std::vector<int>> elements(static_cast<size_t>(num_components));
  for (int v = 0; v < a.UniverseSize(); ++v) {
    elements[static_cast<size_t>(comp[static_cast<size_t>(v)])].push_back(v);
  }
  return elements;
}

}  // namespace

PlanResult PlanHomQuery(const HomProblem& problem, const EngineConfig& config,
                        PlanMode /*mode*/) {
  HOMPRES_CHECK(problem.source != nullptr);
  HOMPRES_CHECK(problem.target != nullptr);
  const Structure& a = *problem.source;
  const Structure& b = *problem.target;

  if (!(a.GetVocabulary() == b.GetVocabulary())) {
    return MakeError(PlanErrorCode::kVocabularyMismatch,
                     "source and target must share a vocabulary");
  }
  if (problem.mode == HomQueryMode::kEnumerate && !problem.callback) {
    return MakeError(PlanErrorCode::kMissingCallback,
                     "an enumerate query needs a callback");
  }
  if (problem.limit != 0 && problem.mode != HomQueryMode::kCount) {
    return MakeError(PlanErrorCode::kLimitOutsideCount,
                     "limit is meaningful only for a count query");
  }

  PlanResult result;
  result.plan.emplace();
  HomPlan& plan = *result.plan;
  plan.problem = problem;
  plan.config = config;

  // Pass 1: the audited compatibility table.
  for (const Normalization& rule : kNormalizations) {
    if (!rule.applies(problem.mode, plan.config)) continue;
    rule.fix(plan.config);
    plan.adjustments.push_back(rule.message);
  }
  for (const Incompatibility& rule : kIncompatibilities) {
    if (rule.applies(problem.mode, plan.config)) {
      return MakeError(rule.code, rule.message);
    }
  }

  // Pass 2: forced-pair range. An out-of-range pair is an unsatisfiable
  // constraint; the kernel answers the certain "no" without searching.
  for (const auto& [var, val] : plan.config.forced) {
    if (var < 0 || var >= a.UniverseSize() || val < 0 ||
        val >= b.UniverseSize()) {
      plan.forced_in_range = false;
      break;
    }
  }

  // Kernel selection (valid regardless of strategy; factorized and
  // parallel execution bottom out in this serial kernel per subproblem).
  plan.kernel = plan.config.use_arc_consistency
                    ? SerialKernel::kArcConsistencyBitset
                    : SerialKernel::kNaiveBacktracking;
  plan.use_index = plan.config.use_index && plan.config.use_arc_consistency;

  // Pass 3: cache consult. Dispatch planning is deferred: a hit answers
  // from the fingerprint key alone, and the miss path re-plans without
  // the cache, so neither pays for component or split analysis here.
  plan.consult_cache = plan.config.use_cache &&
                       (plan.problem.mode == HomQueryMode::kHas ||
                        plan.problem.mode == HomQueryMode::kCount);
  if (plan.consult_cache) {
    plan.options_digest = CacheOptionsDigest(plan.config, plan.problem.limit);
    plan.source_fingerprint = a.Fingerprint();
    plan.target_fingerprint = b.Fingerprint();
    return result;
  }

  // Pass 4: Gaifman-component factorization. The table has already
  // cleared factorize for enumeration and rejected it alongside
  // surjectivity or forced pairs, so applicability is just the
  // component count.
  if (plan.config.factorize) {
    plan.components = SourceComponents(a);
    if (plan.components.size() >= 2) {
      plan.strategy = ExecStrategy::kFactorized;
      return result;
    }
    plan.components.clear();
  }

  // Pass 5: parallel subtree split, driven by the source's occurrence
  // statistics. Enumeration was serialized by the table; an out-of-range
  // forced pair keeps the query serial (the kernel answers it directly).
  if (plan.config.num_threads > 0 && plan.forced_in_range &&
      plan.problem.mode != HomQueryMode::kEnumerate) {
    const SplitChoice split =
        ChooseSplitElements(a, b, plan.config.forced, plan.config.num_threads);
    if (split.num_tasks >= 2) {
      plan.strategy = ExecStrategy::kParallelSplit;
      plan.split_elements = split.elements;
      plan.split_tasks = split.num_tasks;
    }
  }
  return result;
}

std::string HomPlan::Summary() const {
  std::string s;
  s += "mode=";
  s += HomQueryModeName(problem.mode);
  s += " strategy=";
  s += ExecStrategyName(strategy);
  s += " kernel=";
  s += SerialKernelName(kernel);
  s += " simd=";
  s += simd::SimdLevelName(simd::ActiveSimdLevel());
  s += " components=";
  s += std::to_string(components.empty() ? 1 : components.size());
  s += " tasks=";
  s += std::to_string(split_tasks);
  s += " cache=";
  s += consult_cache ? "1" : "0";
  if (!degradations.empty()) {
    s += " degraded=";
    for (size_t i = 0; i < degradations.size(); ++i) {
      if (i > 0) s += "+";
      s += DegradationKindName(degradations[i].kind);
    }
  }
  return s;
}

std::string HomPlan::Explain() const {
  std::string s = "HomPlan\n";
  s += "  mode: ";
  s += HomQueryModeName(problem.mode);
  if (problem.mode == HomQueryMode::kCount) {
    s += " (limit=" + std::to_string(problem.limit) + ")";
  }
  s += "\n  strategy: ";
  s += ExecStrategyName(strategy);
  if (consult_cache) s += " (deferred: re-planned on cache miss)";
  s += "\n  kernel: ";
  s += SerialKernelName(kernel);
  s += use_index ? " (index narrowing on)" : " (index narrowing off)";
  s += "\n  simd: ";
  s += simd::SimdLevelName(simd::ActiveSimdLevel());
  s += " (detected ";
  s += simd::SimdLevelName(simd::DetectedSimdLevel());
  s += ")";
  s += "\n  cache: ";
  s += consult_cache ? "consult" : "off";
  s += "\n  components: ";
  if (components.empty()) {
    s += "1 (monolithic)";
  } else {
    s += std::to_string(components.size()) + " [";
    for (size_t i = 0; i < components.size(); ++i) {
      if (i > 0) s += ", ";
      s += std::to_string(components[i].size());
    }
    s += "]";
  }
  s += "\n  split: ";
  if (strategy == ExecStrategy::kParallelSplit) {
    s += "elements=[";
    for (size_t i = 0; i < split_elements.size(); ++i) {
      if (i > 0) s += ", ";
      s += std::to_string(split_elements[i]);
    }
    s += "] tasks=" + std::to_string(split_tasks) + " threads=" +
         std::to_string(config.num_threads);
  } else {
    s += "none";
  }
  s += "\n  forced: ";
  s += std::to_string(config.forced.size()) + " pair" +
       (config.forced.size() == 1 ? "" : "s");
  if (!config.forced.empty()) {
    s += forced_in_range ? " (in range)" : " (out of range: certain no)";
  }
  s += "\n  adjustments:";
  if (adjustments.empty()) {
    s += " none";
  } else {
    for (const std::string& adjustment : adjustments) {
      s += "\n    - " + adjustment;
    }
  }
  if (!degradations.empty()) {
    s += "\n  degradations:";
    for (const DegradationEvent& event : degradations) {
      s += "\n    - ";
      s += DegradationKindName(event.kind);
      s += " (" + event.site + "): " + event.detail;
    }
  }
  s += "\n";
  return s;
}

}  // namespace hompres
