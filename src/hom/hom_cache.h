// A bounded, mutex-sharded CLOCK cache of homomorphism results.
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
// Concurrency: the table is split into 16 shards, each a small
// independently-locked flat table, so parallel pipeline workers do not
// serialize on one mutex. Capacity is bounded (kShardCapacity entries per
// shard). Entries live inline in one array per shard (no per-entry
// allocation), which grows by doubling up to that capacity; eviction is
// CLOCK (second chance) per shard: a hit sets the entry's reference bit,
// and a full shard evicts the first entry from its clock hand whose bit
// is clear, clearing the bits it sweeps past.

#ifndef HOMPRES_HOM_HOM_CACHE_H_
#define HOMPRES_HOM_HOM_CACHE_H_

#include <cstdint>
#include <optional>

namespace hompres {

struct HomCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  // Injected/real shard failures: lookups reported failed, insertions
  // skipped, shards dropped by EvictShardFor.
  uint64_t failed_lookups = 0;
  uint64_t failed_insertions = 0;
  uint64_t shard_evictions = 0;
};

class HomCache {
 public:
  // What question the cached value answers.
  enum class Kind : uint8_t {
    kHas = 0,    // value: 0 / 1
    kCount = 1,  // value: hom count under the keyed limit
  };

  // The process-wide cache used by the solver entry points.
  static HomCache& Global();

  // Looks up (source_fp, target_fp, options_digest, kind) and sets its
  // reference bit. nullopt = miss. A shard failure (the
  // "hom_cache/lookup" failpoint; a real store would report corruption
  // here) also returns nullopt and sets *failed when non-null, so the
  // caller can distinguish "not cached" from "cache unusable" and evict
  // the shard.
  std::optional<uint64_t> Lookup(uint64_t source_fp, uint64_t target_fp,
                                 uint64_t options_digest, Kind kind,
                                 bool* failed = nullptr);

  // Inserts or refreshes an entry, evicting by CLOCK when the shard is
  // full. Returns false when the store was skipped (the
  // "hom_cache/shard_insert" failpoint): the answer is simply not
  // memoized.
  bool Insert(uint64_t source_fp, uint64_t target_fp,
              uint64_t options_digest, Kind kind, uint64_t value);

  // Drops every entry of the shard that would hold (source_fp,
  // target_fp): the degradation ladder's response to a failed lookup
  // (a shard that cannot be read is discarded wholesale rather than
  // trusted).
  void EvictShardFor(uint64_t source_fp, uint64_t target_fp);

  // Drops every entry (tests use this to isolate trials).
  void Clear();

  HomCacheStats Stats() const;

  HomCache();
  ~HomCache();
  HomCache(const HomCache&) = delete;
  HomCache& operator=(const HomCache&) = delete;

 private:
  struct Shard;
  static constexpr int kNumShards = 16;
  static constexpr int kShardCapacity = 1024;

  Shard* shards_;  // kNumShards of them
};

}  // namespace hompres

#endif  // HOMPRES_HOM_HOM_CACHE_H_
