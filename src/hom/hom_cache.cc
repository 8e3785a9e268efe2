#include "hom/hom_cache.h"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "base/failpoint.h"
#include "base/hash.h"

namespace hompres {

namespace {

struct Key {
  uint64_t source_fp;
  uint64_t target_fp;
  uint64_t options_digest;
  uint8_t kind;
};

uint64_t KeyHash(const Key& k) {
  uint64_t h = Mix64(k.source_fp);
  h = Mix64(h ^ k.target_fp);
  h = Mix64(h ^ k.options_digest);
  return Mix64(h ^ k.kind);
}

// One cached answer, stored inline (no per-entry allocation). The fields
// are flattened rather than nesting Key so an entry packs into 40 bytes.
struct Entry {
  uint64_t source_fp;
  uint64_t target_fp;
  uint64_t options_digest;
  uint64_t value;
  uint8_t kind;
  bool referenced;  // CLOCK second-chance bit, set by hits

  Key GetKey() const { return {source_fp, target_fp, options_digest, kind}; }
  bool Matches(const Key& k) const {
    return source_fp == k.source_fp && target_fp == k.target_fp &&
           options_digest == k.options_digest && kind == k.kind;
  }
};

constexpr uint16_t kEmptySlot = 0xFFFF;
constexpr size_t kMinEntries = 16;

}  // namespace

// One independently locked CLOCK table. `entries` is the clock ring,
// dense and in insertion order; `slots` is a linear-probing index into
// it (kEmptySlot or an entry position) kept at most half full. Both grow
// by doubling up to kShardCapacity entries, so a lightly used shard
// stays small. New entries start with a clear reference bit: a key that
// is never hit again is the first to go, and the sweep gives every hit
// entry a second chance.
struct HomCache::Shard {
  static_assert(kShardCapacity < kEmptySlot,
                "entry positions must fit below the empty-slot marker");

  std::mutex mu;
  std::vector<Entry> entries;
  std::vector<uint16_t> slots;
  size_t hand = 0;  // next entry the eviction sweep examines
  HomCacheStats stats;

  size_t Mask() const { return slots.size() - 1; }

  // Slot holding `key`, or slots.size() when absent.
  size_t Find(const Key& key) const {
    if (slots.empty()) return 0;
    for (size_t s = KeyHash(key) & Mask();; s = (s + 1) & Mask()) {
      if (slots[s] == kEmptySlot) return slots.size();
      if (entries[slots[s]].Matches(key)) return s;
    }
  }

  void Place(uint16_t pos) {
    size_t s = KeyHash(entries[pos].GetKey()) & Mask();
    while (slots[s] != kEmptySlot) s = (s + 1) & Mask();
    slots[s] = pos;
  }

  // Backward-shift deletion: pull later members of the probe run into
  // the hole so lookups never stop early at a stale gap.
  void EraseSlot(size_t hole) {
    for (size_t s = (hole + 1) & Mask(); slots[s] != kEmptySlot;
         s = (s + 1) & Mask()) {
      const size_t home = KeyHash(entries[slots[s]].GetKey()) & Mask();
      if (((s - home) & Mask()) >= ((s - hole) & Mask())) {
        slots[hole] = slots[s];
        hole = s;
      }
    }
    slots[hole] = kEmptySlot;
  }

  void Grow() {
    // slots.size() is twice the old capacity, so this doubles it.
    const size_t capacity =
        std::min(std::max(kMinEntries, slots.size()),
                 static_cast<size_t>(kShardCapacity));
    entries.reserve(capacity);
    slots.assign(2 * capacity, kEmptySlot);
    for (size_t pos = 0; pos < entries.size(); ++pos) {
      Place(static_cast<uint16_t>(pos));
    }
  }

  // Position for a new entry: a fresh one while below capacity, else the
  // first entry from the hand whose reference bit is clear (clearing the
  // bits it passes), unindexed and counted as an eviction.
  size_t Claim() {
    if (entries.size() < static_cast<size_t>(kShardCapacity)) {
      if (2 * entries.size() >= slots.size()) Grow();
      entries.emplace_back();
      return entries.size() - 1;
    }
    while (entries[hand].referenced) {
      entries[hand].referenced = false;
      hand = (hand + 1) % entries.size();
    }
    const size_t victim = hand;
    hand = (hand + 1) % entries.size();
    EraseSlot(Find(entries[victim].GetKey()));
    ++stats.evictions;
    return victim;
  }

  // Drops every entry and releases the storage (move-assigning an empty
  // vector frees it; clear() would keep the capacity).
  void Reset() {
    entries = std::vector<Entry>();
    slots = std::vector<uint16_t>();
    hand = 0;
  }
};

namespace {

inline int ShardOf(uint64_t source_fp, uint64_t target_fp) {
  return static_cast<int>(Mix64(source_fp ^ (target_fp * 0x9E3779B97F4A7C15ULL)) &
                          15u);
}

}  // namespace

HomCache::HomCache() : shards_(new Shard[kNumShards]) {}

HomCache::~HomCache() { delete[] shards_; }

HomCache& HomCache::Global() {
  // Leaked intentionally: solver calls may run during static destruction
  // of test fixtures; a function-local leaked singleton has no
  // destruction-order hazard.
  static HomCache* cache = new HomCache();
  return *cache;
}

std::optional<uint64_t> HomCache::Lookup(uint64_t source_fp,
                                         uint64_t target_fp,
                                         uint64_t options_digest, Kind kind,
                                         bool* failed) {
  if (failed != nullptr) *failed = false;
  Shard& shard = shards_[ShardOf(source_fp, target_fp)];
  const Key key{source_fp, target_fp, options_digest,
                static_cast<uint8_t>(kind)};
  std::lock_guard<std::mutex> lock(shard.mu);
  if (HOMPRES_FAILPOINT("hom_cache/lookup")) {
    ++shard.stats.failed_lookups;
    if (failed != nullptr) *failed = true;
    return std::nullopt;
  }
  const size_t slot = shard.Find(key);
  if (slot == shard.slots.size()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  ++shard.stats.hits;
  Entry& entry = shard.entries[shard.slots[slot]];
  entry.referenced = true;
  return entry.value;
}

bool HomCache::Insert(uint64_t source_fp, uint64_t target_fp,
                      uint64_t options_digest, Kind kind, uint64_t value) {
  Shard& shard = shards_[ShardOf(source_fp, target_fp)];
  const Key key{source_fp, target_fp, options_digest,
                static_cast<uint8_t>(kind)};
  std::lock_guard<std::mutex> lock(shard.mu);
  if (HOMPRES_FAILPOINT("hom_cache/shard_insert")) {
    ++shard.stats.failed_insertions;
    return false;
  }
  if (const size_t slot = shard.Find(key); slot != shard.slots.size()) {
    Entry& entry = shard.entries[shard.slots[slot]];
    entry.value = value;
    entry.referenced = true;
    return true;
  }
  const size_t pos = shard.Claim();
  shard.entries[pos] = Entry{source_fp, target_fp, options_digest, value,
                             static_cast<uint8_t>(kind), false};
  shard.Place(static_cast<uint16_t>(pos));
  ++shard.stats.insertions;
  return true;
}

void HomCache::EvictShardFor(uint64_t source_fp, uint64_t target_fp) {
  Shard& shard = shards_[ShardOf(source_fp, target_fp)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.Reset();
  ++shard.stats.shard_evictions;
}

void HomCache::Clear() {
  for (int i = 0; i < kNumShards; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].Reset();
  }
}

HomCacheStats HomCache::Stats() const {
  HomCacheStats total;
  for (int i = 0; i < kNumShards; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total.hits += shards_[i].stats.hits;
    total.misses += shards_[i].stats.misses;
    total.insertions += shards_[i].stats.insertions;
    total.evictions += shards_[i].stats.evictions;
    total.failed_lookups += shards_[i].stats.failed_lookups;
    total.failed_insertions += shards_[i].stats.failed_insertions;
    total.shard_evictions += shards_[i].stats.shard_evictions;
  }
  return total;
}

}  // namespace hompres
