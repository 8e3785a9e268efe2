// Runtime SIMD dispatch for the bitset64 word kernels.
//
// The solver-bound loops (AC-3 domain revision, the pebble-game fixpoint
// sweep, the treewidth DP's candidate intersection) spend their time in a
// handful of whole-row operations over packed uint64_t words. This header
// names those operations once, as a table of function pointers
// (SimdKernels), and provides three implementations of the table: a
// portable scalar one (the differential baseline — bit-identical by
// construction, since the wide forms compute the same words in a
// different order), an AVX2 one, and an AVX-512 one.
//
// Dispatch is decided exactly once per process: CPUID (via
// __builtin_cpu_supports) picks the widest level the host executes, then
// the HOMPRES_SIMD environment variable (scalar|avx2|avx512) may clamp it
// *down* — an override can never select an ISA the CPU lacks. The chosen
// table is cached behind one relaxed atomic pointer load, so the
// per-call dispatch cost is a single indirect branch; callers that
// already know their rows are one or two words wide (most of the test
// structures) keep the inlined scalar loops in bitset64.h and never pay
// even that.
//
// Every kernel accepts arbitrary (unpadded) word counts and finishes
// ragged tails with the scalar loop, so the dispatched forms are safe on
// any caller's buffer; the row pools in the solvers additionally pad
// strides to kRowAlignWords and align allocations to kRowAlignBytes so
// the hot rows run full-width lanes with an empty tail.
//
// Tests and benches can pin a level: KernelsFor(level) exposes each
// table directly (for differential fuzzing one ISA against another), and
// ScopedSimdOverride redirects the process-wide dispatch for a scope
// (for running whole solver stacks forced to scalar).

#ifndef HOMPRES_BASE_SIMD_H_
#define HOMPRES_BASE_SIMD_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>

namespace hompres {
namespace simd {

// Widest vector width a kernel table uses. Ordered: higher enum value =
// wider ISA, so clamping an override is a min().
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// "scalar", "avx2", "avx512" — the spelling HOMPRES_SIMD accepts and the
// one stamped into plan Explain()/Summary() lines and bench-JSON rows.
const char* SimdLevelName(SimdLevel level);

// Inverse of SimdLevelName; nullopt on any other spelling.
std::optional<SimdLevel> ParseSimdLevel(std::string_view name);

// Widest level this CPU supports (CPUID; cached after the first call).
// kAvx512 requires F+BW+VPOPCNTDQ together — the popcount kernel needs
// vpopcntq, and mixing per-kernel ISAs would make the `simd` stamp a lie.
SimdLevel DetectedSimdLevel();

// DetectedSimdLevel() clamped by HOMPRES_SIMD (read once). An override
// naming a wider ISA than the CPU has is ignored with the detected level
// kept; an unparseable value is ignored too.
SimdLevel ActiveSimdLevel();

// The dispatchable whole-row operations. Semantics are exactly those of
// the scalar loops in bitset64.h; every implementation preserves the
// tail-zero invariant (it writes only AND/OR combinations of existing
// words) and is bit-identical to scalar on every input.
struct SimdKernels {
  int (*popcount)(const uint64_t* words, int num_words);
  int (*find_first)(const uint64_t* words, int num_words);
  int (*find_next)(const uint64_t* words, int num_words, int bit);
  bool (*intersect_in_place)(uint64_t* dst, const uint64_t* src,
                             int num_words);  // dst &= src; true iff changed
  void (*union_in_place)(uint64_t* dst, const uint64_t* src, int num_words);
  bool (*any_set)(const uint64_t* words, int num_words);
  bool (*intersects)(const uint64_t* a, const uint64_t* b,
                     int num_words);  // (a & b) != 0
  bool (*equal)(const uint64_t* a, const uint64_t* b, int num_words);
};

// The table for one specific level. Calling a table above
// DetectedSimdLevel() executes illegal instructions — guard with
// DetectedSimdLevel() (the differential fuzz tests do).
const SimdKernels& KernelsFor(SimdLevel level);

namespace internal {
// Set once on first use (ActiveKernels/ActiveSimdLevel), then only read.
// Relaxed is enough: the tables are immutable statics and the pointer is
// written before any worker threads exist on the normal path; the test
// override below writes it from a quiesced state.
extern std::atomic<const SimdKernels*> g_active_kernels;
const SimdKernels* InitActiveKernels();
}  // namespace internal

// The process-wide dispatched table: one relaxed atomic load per call.
inline const SimdKernels& ActiveKernels() {
  const SimdKernels* k =
      internal::g_active_kernels.load(std::memory_order_relaxed);
  if (k == nullptr) k = internal::InitActiveKernels();
  return *k;
}

// Test hook: force the dispatched level for a scope (clamped to the
// detected level, like the env override). Not for concurrent use with
// running solvers — install before spawning work, restore after joining.
class ScopedSimdOverride {
 public:
  explicit ScopedSimdOverride(SimdLevel level);
  ~ScopedSimdOverride();
  ScopedSimdOverride(const ScopedSimdOverride&) = delete;
  ScopedSimdOverride& operator=(const ScopedSimdOverride&) = delete;

 private:
  const SimdKernels* previous_;
};

}  // namespace simd
}  // namespace hompres

#endif  // HOMPRES_BASE_SIMD_H_
