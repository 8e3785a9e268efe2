// Finite relational structures over a vocabulary (Section 2.1).
//
// The universe is {0, ..., UniverseSize()-1}; each relation is a sorted,
// duplicate-free list of tuples. Substructure semantics follow the paper:
// a substructure may drop both elements and tuples (it is NOT necessarily
// induced), and the maximal proper substructures of A are exactly
// "A minus one tuple" and "A minus one isolated element" — the fact the
// minimal-model machinery in src/core relies on.
//
// Mutation is versioned and cache-maintaining (DESIGN.md §4.10): every
// successful in-place mutation bumps Version(), and an already-built
// RelationIndex / fingerprint follows the edit incrementally instead of
// being invalidated wholesale. Structured edit scripts arrive as
// StructureDelta values through Apply().

#ifndef HOMPRES_STRUCTURE_STRUCTURE_H_
#define HOMPRES_STRUCTURE_STRUCTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "structure/delta.h"
#include "structure/vocabulary.h"

namespace hompres {

class RelationIndex;

// A tuple of universe elements.
using Tuple = std::vector<int>;

class Structure {
 public:
  // Empty structure with the given universe size. Requires n >= 0.
  Structure(Vocabulary vocabulary, int universe_size);

  // Copies do not inherit the cached relation index (it borrows the
  // source's tuple storage); moves carry it along (the storage moves
  // with the structure). Copies restart version counting; moves keep it.
  Structure(const Structure& other);
  Structure& operator=(const Structure& other);
  Structure(Structure&&) noexcept = default;
  Structure& operator=(Structure&&) noexcept = default;

  const Vocabulary& GetVocabulary() const { return vocabulary_; }
  int UniverseSize() const { return universe_size_; }

  // Monotone mutation counter of this structure instance: bumped by
  // every successful AddElement/AddTuple/RemoveTupleByValue (and so by
  // every effective Apply op). Versions order the states of ONE
  // instance; they carry no meaning across copies.
  uint64_t Version() const { return version_; }

  // Appends an element to the universe and returns its id.
  int AddElement();

  // Adds `tuple` to relation `rel`. Requires matching arity and in-range
  // elements. Returns false (no change) if the tuple is already present.
  bool AddTuple(int rel, const Tuple& tuple);

  // Removes `tuple` from relation `rel` in place. Returns false (no
  // change) if the tuple is not present. The value-keyed counterpart of
  // the copying RemoveTuple() below.
  bool RemoveTupleByValue(int rel, const Tuple& tuple);

  // Applies `delta`'s ops in order (see structure/delta.h): element
  // appends, tuple insertions, tuple deletions. No-op ops (duplicate
  // insert, missing remove) are counted, not errors. The cached index
  // and fingerprint are maintained incrementally across the whole
  // script; the result records what changed and how the index fared.
  DeltaApplyResult Apply(const StructureDelta& delta);

  bool HasTuple(int rel, const Tuple& tuple) const;

  // Tuples of relation `rel` in lexicographic order.
  const std::vector<Tuple>& Tuples(int rel) const;

  // Total number of tuples across all relations.
  int NumTuples() const;

  // The per-position relation index over the current tuples (see
  // structure/relation_index.h), built lazily on first use and cached.
  // An already-built index is *maintained in place* by AddTuple /
  // RemoveTupleByValue / AddElement (amortized O(arity) for tail edits,
  // O(arity * |R_rel|) worst case for mid-list edits), so the reference
  // stays valid across mutations and always reflects the current value;
  // once maintenance debt exceeds a rebuild (or the "delta/apply"
  // failpoint fires) the cache is dropped and lazily rebuilt instead.
  // The copy/mutation constructors (RemoveTuple, RemoveElement,
  // InducedSubstructure, DisjointUnion, Image, plain copies) produce
  // structures without a cache. Concurrent Index() calls on a const
  // structure are safe; mutating while other threads read is not (as for
  // every other accessor).
  const RelationIndex& Index() const;

  // Failure-tolerant variant for the degraded paths: returns the cached
  // index if one is already built; otherwise attempts the build and
  // returns nullptr if it fails (std::bad_alloc, or the
  // "relation_index/build" failpoint) instead of propagating. Callers
  // fall back to unindexed scans — same answers, more tuples visited.
  // The already-built case never consults the failpoint, so a site that
  // probed successfully is not re-failed downstream.
  const RelationIndex* TryIndex() const;

  // A 64-bit fingerprint of the structure's value (vocabulary arities,
  // universe size, and the set of tuples per relation; each tuple is
  // hashed order-sensitively and the per-tuple hashes combine
  // commutatively, so the cached value follows insertions and deletions
  // incrementally). Equal structures always fingerprint equal; distinct
  // structures collide with probability ~2^-64. Computed lazily, cached
  // next to the relation index, and maintained by the same mutations
  // (copies recompute, moves carry it). Keys the homomorphism-result
  // cache (hom/hom_cache.h). Never zero. Concurrent Fingerprint() calls
  // on a const structure are safe.
  uint64_t Fingerprint() const;

  // --- Substructure operations -------------------------------------------

  // True iff every tuple of *this (viewed with identical element ids) is a
  // tuple of `other` and the universes/vocabularies are compatible
  // (UniverseSize() <= other.UniverseSize()). This is "substructure with
  // the identity embedding".
  bool IsSubstructureOf(const Structure& other) const;

  // The structure with the same universe and all tuples except tuple
  // `index` of relation `rel`.
  Structure RemoveTuple(int rel, int index) const;

  // Removes element `a`, dropping all tuples that mention it; ids above a
  // shift down by one. If old_to_new is non-null it receives the id map
  // (old id -> new id, -1 for a).
  Structure RemoveElement(int a, std::vector<int>* old_to_new = nullptr) const;

  // The substructure induced by `elements` (keeps exactly the tuples whose
  // entries all lie in `elements`). Element i of the result corresponds to
  // elements[i].
  Structure InducedSubstructure(const std::vector<int>& elements,
                                std::vector<int>* old_to_new = nullptr) const;

  // Elements that occur in no tuple.
  std::vector<int> IsolatedElements() const;

  // --- Constructions ------------------------------------------------------

  // Disjoint union A + B (Section 3's closure operation); elements of
  // `other` are shifted by UniverseSize(). Vocabularies must agree.
  Structure DisjointUnion(const Structure& other) const;

  // The homomorphic image h(A): universe {0..image_size-1}, tuples
  // h(t) for every tuple t. `h` must map every element into range.
  Structure Image(const std::vector<int>& h, int image_size) const;

  // Structural equality: same vocabulary, universe size, and tuple sets.
  friend bool operator==(const Structure& a, const Structure& b);

  std::string DebugString() const;

 private:
  void CheckRelation(int rel) const;
  void CheckElement(int a) const;
  void InvalidateIndex() {
    index_.reset();
    fingerprint_ = 0;
  }
  // Decides, per mutation, whether the cached index/fingerprint are
  // maintained in place. Fires the "delta/apply" failpoint: a fault
  // degrades the edit to blanket invalidation (lazy rebuild — answers
  // unchanged, cost re-paid). No cache, nothing to maintain.
  bool BeginCacheMaintenance();
  // Drops the index (keeping the fingerprint) once incremental
  // maintenance debt exceeds a from-scratch rebuild: the compaction
  // threshold of DESIGN.md §4.10. Returns true if it compacted.
  bool CompactIndexIfIndebted();
  uint64_t TupleHash(int rel, const Tuple& tuple) const;
  uint64_t FinalizeFingerprint() const;

  Vocabulary vocabulary_;
  int universe_size_ = 0;
  std::vector<std::vector<Tuple>> relations_;  // sorted tuple lists
  uint64_t version_ = 0;
  // Lazily built index cache; null until Index() is first called,
  // maintained in place (or dropped for lazy rebuild) by mutations.
  // Shared-ptr so moves transfer it for free; never shared outside.
  mutable std::shared_ptr<RelationIndex> index_;
  // Lazily computed Fingerprint(); 0 = not yet computed (the hash is
  // remapped away from 0). tuple_acc_ is the commutative sum of
  // per-tuple hashes backing it, valid exactly when fingerprint_ != 0.
  mutable uint64_t fingerprint_ = 0;
  mutable uint64_t tuple_acc_ = 0;
  // Set by a "delta/apply" fault inside the current Apply() (reset at
  // its start) so the apply result can distinguish a degraded drop from
  // a compaction.
  bool cache_fault_ = false;
};

// True iff every 0-ary tuple of `pattern` is also a tuple of `b`. A
// nullary atom mentions no element, so a search driven by elements (the
// homomorphism kernel, a tree-decomposition DP) never checks it; the
// engine's planner and the DP guard with this scan instead. Vocabularies
// must agree.
bool NullaryAtomsHold(const Structure& pattern, const Structure& b);

}  // namespace hompres

#endif  // HOMPRES_STRUCTURE_STRUCTURE_H_
