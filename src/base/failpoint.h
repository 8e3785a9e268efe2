// Deterministic fault injection for chaos testing the degraded paths.
//
// A *failpoint* is a named site in the library where a failure can be
// injected on demand: an index build that "runs out of memory", a cache
// shard that "goes bad", a worker thread that "fails to spawn". Sites are
// instrumented with the HOMPRES_FAILPOINT(name) macro, which evaluates to
// true when the named point is armed and its schedule says to fire:
//
//   if (HOMPRES_FAILPOINT("relation_index/build")) return nullptr;
//
// Names follow a "subsystem/event" scheme (see DESIGN.md §4.6 for the
// full catalogue). Schedules are deterministic and seed-driven so every
// chaos run is reproducible:
//
//   "once"     fire on the first hit only
//   "always"   fire on every hit
//   "nth:K"    fire on the K-th hit only (1-based)
//   "every:K"  fire on every K-th hit
//   "prob:P"   fire with probability P per hit, from the registry seed
//
// Arming is explicit (Arm / ArmFromSpec) or environment-driven
// (ArmFromEnv reads HOMPRES_FAILPOINTS and HOMPRES_CHAOS_SEED); nothing
// is armed by default. The disarmed fast path is one relaxed atomic load
// with no branch into the registry, so production binaries pay nothing.
//
// The registry is process-global and thread-safe. Hit/fire counters are
// kept per point so tests can assert that an armed site was actually
// reached and that every fired fault produced a visible degradation.

#ifndef HOMPRES_BASE_FAILPOINT_H_
#define HOMPRES_BASE_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hompres {

class FailpointRegistry {
 public:
  // The process-wide registry.
  static FailpointRegistry& Global();

  // True when at least one point is armed. This is the macro fast path;
  // a single relaxed load, no lock.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) != 0;
  }

  // Arms `name` with a schedule spec ("once", "always", "nth:K",
  // "every:K", "prob:P"). Re-arming replaces the previous schedule and
  // resets the point's counters. Returns false (and arms nothing) on a
  // malformed spec.
  bool Arm(const std::string& name, const std::string& spec);

  // Arms a semicolon- or comma-separated list of "name=spec" entries,
  // e.g. "hom_cache/lookup=once;thread_pool/spawn=prob:0.5". Returns
  // false if any entry is malformed (earlier entries stay armed).
  bool ArmFromSpec(const std::string& config);

  // Reads HOMPRES_FAILPOINTS (an ArmFromSpec string) and
  // HOMPRES_CHAOS_SEED (a decimal seed for "prob:" schedules) from the
  // environment. Returns true if anything was armed.
  bool ArmFromEnv();

  // Disarms one point / all points. Counters for disarmed points are
  // dropped.
  void Disarm(const std::string& name);
  void DisarmAll();

  // Seeds the deterministic stream behind "prob:" schedules. Applies to
  // points armed after the call.
  void SetSeed(uint64_t seed);

  // Called by the macro when AnyArmed(): records a hit on `name` and
  // returns whether the fault fires. Unarmed names return false without
  // recording anything.
  bool Hit(const char* name);

  // Counters for tests: how often an armed `name` was reached / fired.
  // Zero for unarmed names (counters reset on re-arm and disarm).
  uint64_t HitCount(const std::string& name) const;
  uint64_t FireCount(const std::string& name) const;

  // Names currently armed, in unspecified order.
  std::vector<std::string> ArmedNames() const;

 private:
  enum class Mode { kOnce, kAlways, kNth, kEvery, kProb };

  struct Point {
    Mode mode = Mode::kOnce;
    uint64_t n = 1;          // kNth / kEvery parameter
    double p = 0.0;          // kProb parameter
    uint64_t rng_state = 0;  // per-point SplitMix64 stream for kProb
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  static bool ParseSpec(const std::string& spec, Point* out);

  static std::atomic<uint64_t> armed_count_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Point> points_;
  uint64_t seed_ = 0;
};

}  // namespace hompres

// True iff the failpoint `name` is armed and fires on this hit. `name`
// is a string literal or a stored pointer to one (ShardedCache keeps its
// names that way); the registry keys on its value. Near-zero cost when
// nothing is armed: short-circuits after one relaxed load.
#define HOMPRES_FAILPOINT(name)                 \
  (::hompres::FailpointRegistry::AnyArmed() &&  \
   ::hompres::FailpointRegistry::Global().Hit(name))

#endif  // HOMPRES_BASE_FAILPOINT_H_
