#include "structure/structure.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <sstream>

#include "base/failpoint.h"
#include "base/hash.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// Guards the lazy index build across threads. Consumers fetch Index()
// once per search/evaluation (not per node), so a single global lock is
// contention-free in practice; mutators bypass it entirely (mutation is
// single-threaded by contract).
std::mutex& IndexBuildMutex() {
  static std::mutex mu;
  return mu;
}

// Fixed slack under the compaction threshold so tiny structures (whose
// rebuild cost rounds to a handful of slots) still amortize a few
// in-place edits before compacting.
constexpr size_t kCompactionSlack = 64;

}  // namespace

Structure::Structure(Vocabulary vocabulary, int universe_size)
    : vocabulary_(std::move(vocabulary)), universe_size_(universe_size) {
  HOMPRES_CHECK_GE(universe_size, 0);
  relations_.resize(static_cast<size_t>(vocabulary_.NumRelations()));
}

Structure::Structure(const Structure& other)
    : vocabulary_(other.vocabulary_),
      universe_size_(other.universe_size_),
      relations_(other.relations_) {}

Structure& Structure::operator=(const Structure& other) {
  if (this != &other) {
    vocabulary_ = other.vocabulary_;
    universe_size_ = other.universe_size_;
    relations_ = other.relations_;
    version_ = 0;
    InvalidateIndex();
  }
  return *this;
}

const RelationIndex& Structure::Index() const {
  std::lock_guard<std::mutex> lock(IndexBuildMutex());
  if (index_ == nullptr) {
    index_ = std::make_shared<RelationIndex>(*this);
  }
  return *index_;
}

const RelationIndex* Structure::TryIndex() const {
  std::lock_guard<std::mutex> lock(IndexBuildMutex());
  if (index_ != nullptr) return index_.get();
  if (HOMPRES_FAILPOINT("relation_index/build")) return nullptr;
  try {
    index_ = std::make_shared<RelationIndex>(*this);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
  return index_.get();
}

uint64_t Structure::TupleHash(int rel, const Tuple& tuple) const {
  // Order-sensitive within the tuple (position matters), seeded with a
  // relation boundary so moving a tuple between same-arity relations
  // changes the hash. The per-tuple hashes combine by wrapping addition
  // in tuple_acc_ — commutative, so insertions add and removals subtract
  // without re-reading the tuple store.
  uint64_t h = Mix64(0xABCDULL + static_cast<uint64_t>(rel));
  for (int e : tuple) h = Mix64(h ^ static_cast<uint64_t>(e));
  return h;
}

uint64_t Structure::FinalizeFingerprint() const {
  uint64_t h = Mix64(0x486F6D507265ULL);  // "HomPre"
  h = Mix64(h ^ static_cast<uint64_t>(vocabulary_.NumRelations()));
  for (int rel = 0; rel < vocabulary_.NumRelations(); ++rel) {
    h = Mix64(h ^ static_cast<uint64_t>(vocabulary_.Arity(rel)));
  }
  h = Mix64(h ^ static_cast<uint64_t>(universe_size_));
  h = Mix64(h ^ tuple_acc_);
  if (h == 0) h = 1;  // 0 is the "not computed" sentinel
  return h;
}

uint64_t Structure::Fingerprint() const {
  std::lock_guard<std::mutex> lock(IndexBuildMutex());
  if (fingerprint_ != 0) return fingerprint_;
  uint64_t acc = 0;
  for (size_t rel = 0; rel < relations_.size(); ++rel) {
    for (const Tuple& t : relations_[rel]) {
      acc += TupleHash(static_cast<int>(rel), t);
    }
  }
  tuple_acc_ = acc;
  fingerprint_ = FinalizeFingerprint();
  return fingerprint_;
}

void Structure::CheckRelation(int rel) const {
  HOMPRES_CHECK_GE(rel, 0);
  HOMPRES_CHECK_LT(rel, vocabulary_.NumRelations());
}

void Structure::CheckElement(int a) const {
  HOMPRES_CHECK_GE(a, 0);
  HOMPRES_CHECK_LT(a, universe_size_);
}

bool Structure::BeginCacheMaintenance() {
  if (index_ == nullptr && fingerprint_ == 0) return false;
  if (HOMPRES_FAILPOINT("delta/apply")) {
    InvalidateIndex();
    cache_fault_ = true;
    return false;
  }
  return true;
}

bool Structure::CompactIndexIfIndebted() {
  if (index_ == nullptr) return false;
  if (index_->MaintenanceDebt() <=
      index_->RebuildCost() + kCompactionSlack) {
    return false;
  }
  // Compaction: drop the indebted index and let the next Index() call
  // rebuild it densely. The fingerprint is value-tracking, not
  // id-tracking, so it survives.
  index_.reset();
  return true;
}

int Structure::AddElement() {
  ++version_;
  const bool maintain = BeginCacheMaintenance();
  const int id = universe_size_++;
  if (maintain) {
    if (index_ != nullptr) index_->ApplyAppendElement();
    // tuple_acc_ is untouched: the universe size enters at finalization.
    if (fingerprint_ != 0) fingerprint_ = FinalizeFingerprint();
    CompactIndexIfIndebted();
  }
  return id;
}

bool Structure::AddTuple(int rel, const Tuple& tuple) {
  CheckRelation(rel);
  HOMPRES_CHECK_EQ(static_cast<int>(tuple.size()), vocabulary_.Arity(rel));
  for (int a : tuple) CheckElement(a);
  auto& tuples = relations_[static_cast<size_t>(rel)];
  auto it = std::lower_bound(tuples.begin(), tuples.end(), tuple);
  if (it != tuples.end() && *it == tuple) return false;
  ++version_;
  const bool maintain = BeginCacheMaintenance();
  const int id = static_cast<int>(it - tuples.begin());
  tuples.insert(it, tuple);
  if (maintain) {
    if (index_ != nullptr) index_->ApplyInsert(rel, id, tuple);
    if (fingerprint_ != 0) {
      tuple_acc_ += TupleHash(rel, tuple);
      fingerprint_ = FinalizeFingerprint();
    }
    CompactIndexIfIndebted();
  }
  return true;
}

bool Structure::RemoveTupleByValue(int rel, const Tuple& tuple) {
  CheckRelation(rel);
  HOMPRES_CHECK_EQ(static_cast<int>(tuple.size()), vocabulary_.Arity(rel));
  auto& tuples = relations_[static_cast<size_t>(rel)];
  auto it = std::lower_bound(tuples.begin(), tuples.end(), tuple);
  if (it == tuples.end() || *it != tuple) return false;
  ++version_;
  const bool maintain = BeginCacheMaintenance();
  const int id = static_cast<int>(it - tuples.begin());
  tuples.erase(it);
  if (maintain) {
    if (index_ != nullptr) index_->ApplyRemove(rel, id, tuple);
    if (fingerprint_ != 0) {
      tuple_acc_ -= TupleHash(rel, tuple);
      fingerprint_ = FinalizeFingerprint();
    }
    CompactIndexIfIndebted();
  }
  return true;
}

DeltaApplyResult Structure::Apply(const StructureDelta& delta) {
  DeltaApplyResult result;
  const bool had_index = index_ != nullptr;
  cache_fault_ = false;
  for (const DeltaOp& op : delta.Ops()) {
    switch (op.kind) {
      case DeltaOp::Kind::kAppendElements:
        for (int i = 0; i < op.count; ++i) AddElement();
        result.elements_appended += op.count;
        break;
      case DeltaOp::Kind::kInsertTuple:
        if (AddTuple(op.rel, op.tuple)) {
          ++result.tuples_inserted;
        } else {
          ++result.noop_ops;
        }
        break;
      case DeltaOp::Kind::kRemoveTuple:
        if (RemoveTupleByValue(op.rel, op.tuple)) {
          ++result.tuples_removed;
        } else {
          ++result.noop_ops;
        }
        break;
    }
  }
  result.version = version_;
  result.index_maintained = had_index && index_ != nullptr;
  if (had_index && index_ == nullptr) {
    // Either the "delta/apply" failpoint degraded an edit to blanket
    // invalidation, or the compaction threshold retired an indebted
    // index (the fingerprint survives compaction).
    result.index_degraded = cache_fault_;
    result.index_compacted = !cache_fault_;
  }
  return result;
}

bool Structure::HasTuple(int rel, const Tuple& tuple) const {
  CheckRelation(rel);
  const auto& tuples = relations_[static_cast<size_t>(rel)];
  return std::binary_search(tuples.begin(), tuples.end(), tuple);
}

const std::vector<Tuple>& Structure::Tuples(int rel) const {
  CheckRelation(rel);
  return relations_[static_cast<size_t>(rel)];
}

int Structure::NumTuples() const {
  int total = 0;
  for (const auto& tuples : relations_) {
    total += static_cast<int>(tuples.size());
  }
  return total;
}

bool Structure::IsSubstructureOf(const Structure& other) const {
  if (!(vocabulary_ == other.vocabulary_)) return false;
  if (universe_size_ > other.universe_size_) return false;
  for (int rel = 0; rel < vocabulary_.NumRelations(); ++rel) {
    for (const Tuple& t : Tuples(rel)) {
      if (!other.HasTuple(rel, t)) return false;
    }
  }
  return true;
}

Structure Structure::RemoveTuple(int rel, int index) const {
  CheckRelation(rel);
  HOMPRES_CHECK_GE(index, 0);
  HOMPRES_CHECK_LT(index,
                   static_cast<int>(relations_[static_cast<size_t>(rel)].size()));
  Structure result = *this;
  auto& tuples = result.relations_[static_cast<size_t>(rel)];
  tuples.erase(tuples.begin() + index);
  return result;
}

Structure Structure::RemoveElement(int a,
                                   std::vector<int>* old_to_new) const {
  CheckElement(a);
  std::vector<int> keep;
  keep.reserve(static_cast<size_t>(universe_size_ - 1));
  for (int e = 0; e < universe_size_; ++e) {
    if (e != a) keep.push_back(e);
  }
  return InducedSubstructure(keep, old_to_new);
}

Structure Structure::InducedSubstructure(const std::vector<int>& elements,
                                         std::vector<int>* old_to_new) const {
  std::vector<int> map(static_cast<size_t>(universe_size_), -1);
  for (size_t i = 0; i < elements.size(); ++i) {
    CheckElement(elements[i]);
    HOMPRES_CHECK_EQ(map[static_cast<size_t>(elements[i])], -1);
    map[static_cast<size_t>(elements[i])] = static_cast<int>(i);
  }
  Structure result(vocabulary_, static_cast<int>(elements.size()));
  for (int rel = 0; rel < vocabulary_.NumRelations(); ++rel) {
    for (const Tuple& t : Tuples(rel)) {
      Tuple mapped;
      mapped.reserve(t.size());
      bool keep = true;
      for (int e : t) {
        const int m = map[static_cast<size_t>(e)];
        if (m == -1) {
          keep = false;
          break;
        }
        mapped.push_back(m);
      }
      if (keep) result.AddTuple(rel, mapped);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return result;
}

std::vector<int> Structure::IsolatedElements() const {
  // The index's occurrence counts are the single pass over the tuple
  // store this needs; repeated calls on the same structure (the
  // minimal-model search does many) reuse the cached index.
  const std::vector<int>& occurrences = Index().ElementOccurrences();
  std::vector<int> isolated;
  for (int e = 0; e < universe_size_; ++e) {
    if (occurrences[static_cast<size_t>(e)] == 0) isolated.push_back(e);
  }
  return isolated;
}

Structure Structure::DisjointUnion(const Structure& other) const {
  HOMPRES_CHECK(vocabulary_ == other.vocabulary_);
  Structure result(vocabulary_, universe_size_ + other.universe_size_);
  for (int rel = 0; rel < vocabulary_.NumRelations(); ++rel) {
    for (const Tuple& t : Tuples(rel)) result.AddTuple(rel, t);
    for (const Tuple& t : other.Tuples(rel)) {
      Tuple shifted = t;
      for (int& e : shifted) e += universe_size_;
      result.AddTuple(rel, shifted);
    }
  }
  return result;
}

Structure Structure::Image(const std::vector<int>& h, int image_size) const {
  HOMPRES_CHECK_EQ(static_cast<int>(h.size()), universe_size_);
  Structure result(vocabulary_, image_size);
  for (int e = 0; e < universe_size_; ++e) {
    HOMPRES_CHECK_GE(h[static_cast<size_t>(e)], 0);
    HOMPRES_CHECK_LT(h[static_cast<size_t>(e)], image_size);
  }
  for (int rel = 0; rel < vocabulary_.NumRelations(); ++rel) {
    for (const Tuple& t : Tuples(rel)) {
      Tuple mapped;
      mapped.reserve(t.size());
      for (int e : t) mapped.push_back(h[static_cast<size_t>(e)]);
      result.AddTuple(rel, mapped);
    }
  }
  return result;
}

bool operator==(const Structure& a, const Structure& b) {
  return a.vocabulary_ == b.vocabulary_ &&
         a.universe_size_ == b.universe_size_ && a.relations_ == b.relations_;
}

bool NullaryAtomsHold(const Structure& pattern, const Structure& b) {
  const Vocabulary& vocabulary = pattern.GetVocabulary();
  for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
    if (vocabulary.Arity(rel) != 0) continue;
    if (!pattern.Tuples(rel).empty() && b.Tuples(rel).empty()) return false;
  }
  return true;
}

std::string Structure::DebugString() const {
  std::ostringstream out;
  out << "Structure(|A|=" << universe_size_;
  for (int rel = 0; rel < vocabulary_.NumRelations(); ++rel) {
    out << "; " << vocabulary_.Name(rel) << "={";
    bool first = true;
    for (const Tuple& t : Tuples(rel)) {
      if (!first) out << ',';
      first = false;
      out << '(';
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ' ';
        out << t[i];
      }
      out << ')';
    }
    out << '}';
  }
  out << ')';
  return out.str();
}

}  // namespace hompres
