// The bounded cache of homomorphism results: a ShardedCache
// (base/sharded_cache.h) of 16 shards x 1024 entries.
//
// The preservation pipeline, core computation, and UCQ evaluation issue
// thousands of near-identical homomorphism probes: minimal-model checks
// re-evaluate the same quotient images, the core loop's final IsCore pass
// repeats every retract probe of the last iteration, and the exhaustive
// verification scan asks each UCQ disjunct about structures it has
// already seen. This cache memoizes the *answers* (has-hom / count) —
// never witnesses — keyed by the 64-bit value fingerprints of the two
// structures (Structure::Fingerprint) plus a digest of the
// answer-relevant options (surjective, forced pairs, count limit).
//
// Soundness: a fingerprint is a pure function of a structure's value and
// is invalidated by the same mutations that invalidate the relation
// index, so a stale entry can only be read through a 64-bit collision
// (probability ~2^-64 per distinct pair). Engine-selection options
// (use_arc_consistency, use_index, num_threads, factorize) are *excluded*
// from the key: the engines are bit-identical on has/count by contract,
// so they share entries. Only completed (Done) results are ever stored —
// an exhausted search caches nothing.
//
// Caching is opt-in per call site (EngineConfig::use_cache, default off):
// the differential test harnesses compare engines against each other and
// must not let one engine's memoized answer mask another's bug.
//
// The shard is picked by the structure pair alone, so EvictShardFor on a
// failed lookup drops every cached answer about that pair.

#ifndef HOMPRES_HOM_HOM_CACHE_H_
#define HOMPRES_HOM_HOM_CACHE_H_

#include <cstdint>

#include "base/hash.h"
#include "base/sharded_cache.h"

namespace hompres {

struct HomCacheKey {
  // What question the cached value answers.
  enum class Kind : uint8_t {
    kHas = 0,    // value: 0 / 1
    kCount = 1,  // value: hom count under the keyed limit
  };

  uint64_t source_fp = 0;
  uint64_t target_fp = 0;
  uint64_t options_digest = 0;
  Kind kind = Kind::kHas;

  uint64_t ShardHash() const {
    return Mix64(source_fp ^ (target_fp * 0x9E3779B97F4A7C15ULL));
  }
  uint64_t SlotHash() const {
    uint64_t h = Mix64(source_fp);
    h = Mix64(h ^ target_fp);
    h = Mix64(h ^ options_digest);
    return Mix64(h ^ static_cast<uint64_t>(kind));
  }
  friend bool operator==(const HomCacheKey&, const HomCacheKey&) = default;
};

using HomCache = ShardedCache<HomCacheKey, uint64_t>;

// Entries stay 40 bytes inline, so a full cache is 16 x 1024 x 40 bytes
// plus its index and reference bits.
static_assert(sizeof(HomCache::Entry) == 40);

// A table of the process-wide cache's shape, with the "hom_cache/lookup"
// and "hom_cache/shard_insert" failpoints.
inline HomCache MakeHomCache() {
  return HomCache(16, 1024, "hom_cache/lookup", "hom_cache/shard_insert");
}

// The process-wide cache Engine::Execute consults. Leaked intentionally:
// solver calls may run during static destruction of test fixtures, and
// a leaked singleton has no destruction-order hazard.
inline HomCache& GlobalHomCache() {
  static HomCache* cache = new HomCache(MakeHomCache());
  return *cache;
}

}  // namespace hompres

#endif  // HOMPRES_HOM_HOM_CACHE_H_
