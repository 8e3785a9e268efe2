// The serial homomorphism search kernel, stripped of orchestration.
//
// Everything above this line — caching, Gaifman-component factorization,
// parallel subtree splitting, result-shape mapping — lives in the engine
// layer (engine/engine.h). What remains here is the innermost loop: one
// backtracking search over candidate maps a -> b, with optional AC-3
// bitset propagation and index-narrowed scans, emitting each total
// homomorphism it finds.
//
// Budget contract: the kernel charges exactly one Budget::Checkpoint()
// per search node and stops (without emitting further) when the budget
// runs out. A forced pair naming an element outside either universe is a
// certain "no": the kernel returns immediately, charging nothing.
//
// The emit callback returns whether to continue the enumeration. It is
// invoked on the kernel's internal assignment buffer; copy it to keep it.

#ifndef HOMPRES_HOM_KERNEL_H_
#define HOMPRES_HOM_KERNEL_H_

#include <functional>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "engine/config.h"
#include "structure/structure.h"

namespace hompres {

// The subset of the configuration the serial kernel actually reads.
struct KernelOptions {
  bool surjective = false;
  std::vector<std::pair<int, int>> forced;
  bool use_arc_consistency = true;
  bool use_index = true;
};

// The kernel's view of a (validated) engine configuration.
inline KernelOptions ToKernelOptions(const EngineConfig& config) {
  KernelOptions options;
  options.surjective = config.surjective;
  options.forced = config.forced;
  options.use_arc_consistency = config.use_arc_consistency;
  options.use_index = config.use_index;
  return options;
}

// Runs the serial search, emitting every homomorphism until `emit`
// returns false or the budget stops. Inspect `budget` afterwards to
// distinguish exhaustion from a completed enumeration.
void RunSerialHomKernel(const Structure& a, const Structure& b,
                        const KernelOptions& options, Budget& budget,
                        const std::function<bool(const std::vector<int>&)>& emit);

}  // namespace hompres

#endif  // HOMPRES_HOM_KERNEL_H_
