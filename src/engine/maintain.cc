#include "engine/maintain.h"

namespace hompres {

const char* MaintainStrategyName(MaintainStrategy strategy) {
  switch (strategy) {
    case MaintainStrategy::kNoOp:
      return "noop";
    case MaintainStrategy::kBoundedUcq:
      return "bounded-ucq";
    case MaintainStrategy::kCounting:
      return "counting";
    case MaintainStrategy::kDeltaInsert:
      return "delta-insert";
    case MaintainStrategy::kDRed:
      return "dred";
    case MaintainStrategy::kFromScratch:
      return "from-scratch";
  }
  return "?";
}

MaintenancePlan PlanMaintenance(const MaintenanceTraits& traits) {
  MaintenancePlan plan;
  plan.traits = traits;
  if (traits.force_from_scratch) {
    plan.strategy = MaintainStrategy::kFromScratch;
  } else if (traits.inserted == 0 && traits.removed == 0) {
    plan.strategy = MaintainStrategy::kNoOp;
  } else if (!traits.recursive) {
    plan.strategy = MaintainStrategy::kCounting;
  } else if (traits.bounded && !traits.has_inequalities) {
    plan.strategy = MaintainStrategy::kBoundedUcq;
  } else if (traits.removed == 0) {
    plan.strategy = MaintainStrategy::kDeltaInsert;
  } else {
    plan.strategy = MaintainStrategy::kDRed;
  }
  return plan;
}

std::string MaintenancePlan::Summary() const {
  std::string s = "maintain=";
  s += MaintainStrategyName(strategy);
  s += " recursive=";
  s += traits.recursive ? "1" : "0";
  s += " bounded=";
  s += traits.bounded ? "1" : "0";
  if (traits.bounded) {
    s += " stage=" + std::to_string(traits.bounded_stage);
  }
  s += " ins=" + std::to_string(traits.inserted);
  s += " rem=" + std::to_string(traits.removed);
  s += " appends=" + std::to_string(traits.appended_elements);
  if (!degradations.empty()) {
    s += " degraded=";
    for (size_t i = 0; i < degradations.size(); ++i) {
      if (i > 0) s += "+";
      s += DegradationKindName(degradations[i].kind);
    }
  }
  return s;
}

std::string MaintenancePlan::Explain() const {
  std::string s = "MaintenancePlan\n";
  s += "  strategy: ";
  s += MaintainStrategyName(strategy);
  s += "\n  program: ";
  s += traits.recursive ? "recursive" : "non-recursive";
  if (traits.has_inequalities) s += ", inequalities";
  if (traits.bounded) {
    s += ", bounded (stage " + std::to_string(traits.bounded_stage) + ")";
  }
  s += "\n  delta: +";
  s += std::to_string(traits.inserted);
  s += " -";
  s += std::to_string(traits.removed);
  s += " tuples, +";
  s += std::to_string(traits.appended_elements);
  s += " elements";
  if (traits.force_from_scratch) s += "\n  baseline: forced from-scratch";
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
