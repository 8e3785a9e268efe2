// Unbudgeted homomorphism queries for the tests: each plans strictly
// through Engine::* (an invalid config fails hard) and runs with
// Budget::Unlimited(), so the answer is always Done.

#ifndef HOMPRES_TESTS_HOM_TEST_UTIL_H_
#define HOMPRES_TESTS_HOM_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/budget.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "structure/structure.h"

namespace hompres {

inline bool HasHom(const Structure& a, const Structure& b,
                   const EngineConfig& config = {}) {
  Budget unlimited = Budget::Unlimited();
  return Engine::Has(a, b, unlimited, config).Value();
}

inline std::optional<std::vector<int>> FindHom(
    const Structure& a, const Structure& b, const EngineConfig& config = {}) {
  Budget unlimited = Budget::Unlimited();
  return Engine::Find(a, b, unlimited, config).Value();
}

inline uint64_t CountHoms(const Structure& a, const Structure& b,
                          uint64_t limit = 0,
                          const EngineConfig& config = {}) {
  Budget unlimited = Budget::Unlimited();
  return Engine::Count(a, b, unlimited, limit, config).Value();
}

// True iff the enumeration visited every homomorphism (the callback
// never returned false).
inline bool EnumerateHoms(
    const Structure& a, const Structure& b,
    const std::function<bool(const std::vector<int>&)>& callback,
    const EngineConfig& config = {}) {
  Budget unlimited = Budget::Unlimited();
  return Engine::Enumerate(a, b, unlimited, callback, config).Value();
}

// Homomorphic equivalence: homs in both directions (Section 2.1).
inline bool HomEquivalent(const Structure& a, const Structure& b) {
  return HasHom(a, b) && HasHom(b, a);
}

// The naive backtracking kernel: arc consistency off, and with it index
// narrowing (which only the AC kernel uses; strict planning rejects it).
inline EngineConfig NaiveConfig(EngineConfig config = {}) {
  config.use_arc_consistency = false;
  config.use_index = false;
  return config;
}

}  // namespace hompres

#endif  // HOMPRES_TESTS_HOM_TEST_UTIL_H_
