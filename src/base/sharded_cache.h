// A bounded, mutex-sharded CLOCK table: the one memo implementation.
//
// Every answer cache in the library is this table with a different key
// and value: the homomorphism result cache (hom/hom_cache.h), the
// containment-verdict cache (opt/optimizer.h), the CQ-fingerprint memo
// (opt/canonical.cc) and hompresd's optimize-once UCQ memo
// (server/server.cc). Keys are 64-bit fingerprints or small structs of
// them, so a lookup is a hash, a short probe and an equality test.
//
// Layout: the table is split into a power-of-two number of shards, each
// an independently locked flat table, so parallel workers do not
// serialize on one mutex. A shard keeps its entries inline in one array
// (no per-entry allocation) that grows by doubling up to the per-shard
// capacity, plus a 16-bit linear-probing index into that array kept at
// most half full (backward-shift deletion, so a probe never stops early
// at a stale gap).
//
// Eviction is CLOCK (second chance) per shard: a hit sets the entry's
// reference bit, new entries start with it clear, and a full shard
// evicts the first entry from its clock hand whose bit is clear,
// clearing the bits it sweeps past. A key that is never hit again is
// the first to go.
//
// Keys: a bare uint64_t fingerprint is multiplied by the golden ratio
// (the high bits pick the shard, the low bits the slot). A struct key supplies
// `uint64_t ShardHash() const` (which shard holds it; a key may hash
// only part of itself so EvictShardFor drops a family of keys) and
// `uint64_t SlotHash() const` (its probe position), plus operator==.
//
// Failures: the two optional failpoint names (base/failpoint.h) make a
// lookup report the shard unreadable and an insert skip the store, so
// callers can drill their degradation paths; the caller answers a
// failed lookup with EvictShardFor.

#ifndef HOMPRES_BASE_SHARDED_CACHE_H_
#define HOMPRES_BASE_SHARDED_CACHE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/failpoint.h"

namespace hompres {

// Counters of one table (or one shard of it). `size` is the number of
// live entries when the snapshot was taken.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  // Injected/real shard failures: lookups reported failed, insertions
  // skipped, shards dropped by EvictShardFor.
  uint64_t failed_lookups = 0;
  uint64_t failed_insertions = 0;
  uint64_t shard_evictions = 0;
  uint64_t size = 0;

  uint64_t Lookups() const { return hits + misses; }
  // Integer percentage of lookups answered from the table (0 before
  // the first lookup).
  uint64_t HitRatePercent() const {
    return Lookups() == 0 ? 0 : (hits * 100) / Lookups();
  }

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    failed_lookups += other.failed_lookups;
    failed_insertions += other.failed_insertions;
    shard_evictions += other.shard_evictions;
    size += other.size;
    return *this;
  }
};

template <typename Key, typename Value>
class ShardedCache {
 public:
  // One cached answer, stored inline in its shard's entry array.
  struct Entry {
    Key key;
    Value value;
  };

  // `num_shards` must be a power of two and `shard_capacity` below the
  // 16-bit index's empty marker. Null failpoint names disable the drill.
  ShardedCache(size_t num_shards, size_t shard_capacity,
               const char* lookup_failpoint = nullptr,
               const char* insert_failpoint = nullptr)
      : shards_(new Shard[num_shards]),
        shard_mask_(num_shards - 1),
        capacity_(shard_capacity),
        lookup_failpoint_(lookup_failpoint),
        insert_failpoint_(insert_failpoint) {
    HOMPRES_CHECK(num_shards > 0 && std::has_single_bit(num_shards));
    HOMPRES_CHECK(shard_capacity > 0 && shard_capacity < kEmptySlot);
  }

  // Looks `key` up and sets its reference bit. nullopt = miss. A shard
  // failure (the lookup failpoint) also returns nullopt and sets
  // *failed when non-null, so the caller can tell "not cached" from
  // "cache unusable" and evict the shard.
  std::optional<Value> Lookup(const Key& key, bool* failed = nullptr) {
    if (failed != nullptr) *failed = false;
    const uint64_t hash = SlotHash(key);
    Shard& shard = ShardOf(key, hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (lookup_failpoint_ != nullptr && HOMPRES_FAILPOINT(lookup_failpoint_)) {
      ++shard.stats.failed_lookups;
      if (failed != nullptr) *failed = true;
      return std::nullopt;
    }
    const size_t slot = shard.Find(key, hash);
    if (slot == shard.slots.size()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    ++shard.stats.hits;
    shard.referenced[shard.slots[slot]] = 1;
    return shard.entries[shard.slots[slot]].value;
  }

  // Inserts or refreshes an entry, evicting by CLOCK when the shard is
  // full. Returns false when the store was skipped (the insert
  // failpoint): the answer is simply not memoized.
  bool Insert(const Key& key, Value value) {
    const uint64_t hash = SlotHash(key);
    Shard& shard = ShardOf(key, hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (insert_failpoint_ != nullptr && HOMPRES_FAILPOINT(insert_failpoint_)) {
      ++shard.stats.failed_insertions;
      return false;
    }
    if (const size_t slot = shard.Find(key, hash);
        slot != shard.slots.size()) {
      shard.entries[shard.slots[slot]].value = std::move(value);
      shard.referenced[shard.slots[slot]] = 1;
      return true;
    }
    size_t pos = shard.entries.size();
    if (pos < capacity_) {
      if (2 * pos >= shard.slots.size()) shard.Grow(capacity_);
      shard.entries.push_back(Entry{key, std::move(value)});
      shard.referenced.push_back(0);
    } else {
      pos = shard.Evict();
      shard.entries[pos] = Entry{key, std::move(value)};
      shard.referenced[pos] = 0;
    }
    shard.Place(static_cast<uint16_t>(pos), hash);
    ++shard.stats.insertions;
    return true;
  }

  // Drops every entry of the shard that would hold `key`: the
  // degradation ladder's response to a failed lookup (a shard that
  // cannot be read is discarded wholesale rather than trusted).
  void EvictShardFor(const Key& key) {
    Shard& shard = ShardOf(key, SlotHash(key));
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.Reset();
    ++shard.stats.shard_evictions;
  }

  // Drops every entry; the counters keep running.
  void Clear() {
    for (size_t i = 0; i < NumShards(); ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      shards_[i].Reset();
    }
  }

  size_t NumShards() const { return shard_mask_ + 1; }

  CacheStats ShardStats(size_t shard) const {
    std::lock_guard<std::mutex> lock(shards_[shard].mu);
    CacheStats stats = shards_[shard].stats;
    stats.size = shards_[shard].entries.size();
    return stats;
  }

  CacheStats Stats() const {
    CacheStats total;
    for (size_t i = 0; i < NumShards(); ++i) total += ShardStats(i);
    return total;
  }

 private:
  static constexpr uint16_t kEmptySlot = 0xFFFF;
  static constexpr size_t kMinEntries = 16;

  static uint64_t SlotHash(const Key& key) {
    if constexpr (std::is_integral_v<Key>) {
      // Fibonacci hashing: one multiply, a bijection on the low bits the
      // slot index uses, and well-spread high bits for the shard.
      return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    } else {
      return key.SlotHash();
    }
  }

  // `entries` is the clock ring, dense and in insertion order, with
  // `referenced` its parallel second-chance bits; `slots` is the
  // linear-probing index into it (kEmptySlot or an entry position).
  // Both grow by doubling, so a lightly used shard stays small.
  struct Shard {
    mutable std::mutex mu;
    std::vector<Entry> entries;
    std::vector<uint8_t> referenced;
    std::vector<uint16_t> slots;
    size_t hand = 0;  // next entry the eviction sweep examines
    CacheStats stats;

    size_t Mask() const { return slots.size() - 1; }

    // Slot holding `key` (whose SlotHash is `hash`), or slots.size()
    // when absent.
    size_t Find(const Key& key, uint64_t hash) const {
      if (slots.empty()) return 0;
      for (size_t s = hash & Mask();; s = (s + 1) & Mask()) {
        if (slots[s] == kEmptySlot) return slots.size();
        if (entries[slots[s]].key == key) return s;
      }
    }

    void Place(uint16_t pos, uint64_t hash) {
      size_t s = hash & Mask();
      while (slots[s] != kEmptySlot) s = (s + 1) & Mask();
      slots[s] = pos;
    }

    // Backward-shift deletion: pull later members of the probe run into
    // the hole so lookups never stop early at a stale gap.
    void EraseSlot(size_t hole) {
      for (size_t s = (hole + 1) & Mask(); slots[s] != kEmptySlot;
           s = (s + 1) & Mask()) {
        const size_t home = SlotHash(entries[slots[s]].key) & Mask();
        if (((s - home) & Mask()) >= ((s - hole) & Mask())) {
          slots[hole] = slots[s];
          hole = s;
        }
      }
      slots[hole] = kEmptySlot;
    }

    void Grow(size_t max_entries) {
      // slots.size() is at least twice the old capacity, so this doubles.
      const size_t capacity =
          std::min(std::max(kMinEntries, slots.size()), max_entries);
      entries.reserve(capacity);
      referenced.reserve(capacity);
      slots.assign(std::bit_ceil(2 * capacity), kEmptySlot);
      for (size_t pos = 0; pos < entries.size(); ++pos) {
        Place(static_cast<uint16_t>(pos), SlotHash(entries[pos].key));
      }
    }

    // The first entry from the hand whose reference bit is clear
    // (clearing the bits it passes), unindexed and counted as an
    // eviction; its position is reused for the new entry.
    size_t Evict() {
      while (referenced[hand] != 0) {
        referenced[hand] = 0;
        hand = (hand + 1) % entries.size();
      }
      const size_t victim = hand;
      hand = (hand + 1) % entries.size();
      EraseSlot(Find(entries[victim].key, SlotHash(entries[victim].key)));
      ++stats.evictions;
      return victim;
    }

    // Drops every entry and releases the storage (move-assigning an
    // empty vector frees it; clear() would keep the capacity).
    void Reset() {
      entries = std::vector<Entry>();
      referenced = std::vector<uint8_t>();
      slots = std::vector<uint16_t>();
      hand = 0;
    }
  };

  // `hash` is SlotHash(key); a bare fingerprint takes its shard from the
  // high half, which the slot index (low bits) does not use.
  Shard& ShardOf(const Key& key, uint64_t hash) const {
    if constexpr (std::is_integral_v<Key>) {
      return shards_[(hash >> 32) & shard_mask_];
    } else {
      return shards_[key.ShardHash() & shard_mask_];
    }
  }

  std::unique_ptr<Shard[]> shards_;
  size_t shard_mask_;
  size_t capacity_;
  const char* lookup_failpoint_;
  const char* insert_failpoint_;
};

}  // namespace hompres

#endif  // HOMPRES_BASE_SHARDED_CACHE_H_
