#include "hom/homomorphism.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <utility>

#include "base/bitset64.h"
#include "base/failpoint.h"
#include "base/row_pool.h"
#include "hom/kernel.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// One table constraint: the A-tuple `pattern` (over variables) must map
// into the tuple list of relation `rel` of B.
struct TupleConstraint {
  int rel;
  Tuple pattern;
};

// Reusable per-thread scratch of the packed solver. Domains live in flat
// row pools: at search depth l, level_words[l] holds n rows of `stride`
// uint64_t words (one packed candidate set per variable) and
// level_sizes[l] the matching popcounts, so "copy all domains for the
// next search node" is one contiguous memcpy instead of n vector<bool>
// copies. The pools are 64-byte aligned and the stride is padded
// (bitset64::PaddedWordsFor) so wide instances run full SIMD lanes with
// no ragged tail; the padding words start zero and every kernel keeps
// them zero. The pool grows to the largest instance a thread has seen
// and is reused across searches (leased, so nested searches on the same
// thread — e.g. one started from an enumeration callback — get their
// own).
struct SolverWorkspace {
  std::vector<AlignedWordPool> level_words;
  std::vector<std::vector<int>> level_sizes;
  AlignedWordPool supported;  // Propagate scratch: arity x stride rows
  AlignedWordPool covered;    // surjectivity scratch
  AlignedWordPool reachable;  // surjectivity scratch
  AlignedWordPool full_row;   // all m bits set
  AlignedWordPool adjacency;  // bitwise-AC value rows (see BuildAdjacency)
  std::vector<int> assignment;
};

std::vector<std::unique_ptr<SolverWorkspace>>& WorkspacePool() {
  thread_local std::vector<std::unique_ptr<SolverWorkspace>> pool;
  return pool;
}

// Checks a workspace out of the thread's pool for the lifetime of one
// HomSearch and returns it on destruction.
class WorkspaceLease {
 public:
  WorkspaceLease() {
    auto& pool = WorkspacePool();
    if (pool.empty()) {
      ws_ = std::make_unique<SolverWorkspace>();
    } else {
      ws_ = std::move(pool.back());
      pool.pop_back();
    }
  }
  ~WorkspaceLease() { WorkspacePool().push_back(std::move(ws_)); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  SolverWorkspace& Get() { return *ws_; }

 private:
  std::unique_ptr<SolverWorkspace> ws_;
};

class HomSearch {
 public:
  HomSearch(const Structure& a, const Structure& b,
            const KernelOptions& options, Budget& budget)
      : a_(a), b_(b), options_(options), budget_(budget), ws_(lease_.Get()) {
    size_t max_arity = 0;
    for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
      for (const Tuple& t : a.Tuples(rel)) {
        constraints_.push_back(TupleConstraint{rel, t});
        max_arity = std::max(max_arity, t.size());
      }
    }
    if (options_.use_arc_consistency && options_.use_index &&
        !constraints_.empty()) {
      // A failed index build (allocation failure or injected fault)
      // degrades to pure-scan propagation: same answers, more tuples
      // visited per revision.
      index_ = b.TryIndex();
    }
    n_ = a.UniverseSize();
    m_ = b.UniverseSize();
    stride_ = bitset64::PaddedWordsFor(m_);
    max_arity_ = static_cast<int>(max_arity);
    // Var -> constraints mentioning it (each constraint once), for the
    // propagation worklist.
    constraints_of_var_.assign(static_cast<size_t>(n_), {});
    for (size_t ci = 0; ci < constraints_.size(); ++ci) {
      const Tuple& pattern = constraints_[ci].pattern;
      for (size_t i = 0; i < pattern.size(); ++i) {
        bool dup = false;
        for (size_t j = 0; j < i; ++j) dup |= pattern[j] == pattern[i];
        if (!dup) {
          constraints_of_var_[static_cast<size_t>(pattern[i])].push_back(
              static_cast<int>(ci));
        }
      }
    }
  }

  // Runs the search; invokes `emit` for every homomorphism found. `emit`
  // returns false to stop the enumeration. After Run, the caller
  // distinguishes "space exhausted" from "budget exhausted" via
  // budget_.Stopped().
  void Run(const std::function<bool(const std::vector<int>&)>& emit) {
    // A pre-assignment referencing an element outside either universe can
    // be satisfied by no map: report "no homomorphism" instead of
    // aborting (and never index past the domain rows).
    for (const auto& [var, val] : options_.forced) {
      if (var < 0 || var >= n_ || val < 0 || val >= m_) return;
    }
    if (n_ == 0) {
      // The empty map is the unique homomorphism; surjectivity requires an
      // empty target.
      if (!options_.surjective || m_ == 0) emit(std::vector<int>{});
      return;
    }
    if (m_ == 0) return;  // nonempty universe cannot map anywhere

    // Size the workspace for this instance. The outer level vectors are
    // sized once up front: Solve holds references into them across
    // recursive calls, so they must never reallocate mid-search.
    if (static_cast<int>(ws_.level_words.size()) < n_ + 1) {
      ws_.level_words.resize(static_cast<size_t>(n_ + 1));
      ws_.level_sizes.resize(static_cast<size_t>(n_ + 1));
    }
    ws_.supported.Resize(static_cast<size_t>(max_arity_) *
                         static_cast<size_t>(stride_));
    ws_.covered.Resize(static_cast<size_t>(stride_));
    ws_.reachable.Resize(static_cast<size_t>(stride_));
    ws_.full_row.Resize(static_cast<size_t>(stride_));
    bitset64::SetFirstN(ws_.full_row.data(), stride_, m_);
    BuildAdjacency();

    AlignedWordPool& words = LevelWords(0);
    std::vector<int>& sizes = LevelSizes(0);
    for (int v = 0; v < n_; ++v) {
      std::memcpy(Row(words, v), ws_.full_row.data(), RowBytes());
      sizes[static_cast<size_t>(v)] = m_;
    }
    for (const auto& [var, val] : options_.forced) {
      uint64_t* row = Row(words, var);
      const bool allowed = bitset64::Test(row, val);
      bitset64::ClearAll(row, stride_);
      if (!allowed) return;  // conflicting pre-assignments empty the domain
      bitset64::Set(row, val);
      sizes[static_cast<size_t>(var)] = 1;
    }
    if (options_.use_arc_consistency && !Propagate(words, sizes)) return;
    ws_.assignment.assign(static_cast<size_t>(n_), -1);
    stopped_ = false;
    Solve(0, words, sizes, emit);
  }

 private:
  size_t RowBytes() const {
    return static_cast<size_t>(stride_) * sizeof(uint64_t);
  }

  uint64_t* Row(AlignedWordPool& words, int var) const {
    return words.data() + static_cast<size_t>(var) * static_cast<size_t>(stride_);
  }
  const uint64_t* Row(const AlignedWordPool& words, int var) const {
    return words.data() + static_cast<size_t>(var) * static_cast<size_t>(stride_);
  }

  AlignedWordPool& LevelWords(int level) {
    AlignedWordPool& w = ws_.level_words[static_cast<size_t>(level)];
    const size_t need = static_cast<size_t>(n_) * static_cast<size_t>(stride_);
    // Resize zeroes the pool; skip it when the size already matches (the
    // rows get memcpy-overwritten before any read).
    if (w.size() != need) w.Resize(need);
    return w;
  }
  std::vector<int>& LevelSizes(int level) {
    std::vector<int>& s = ws_.level_sizes[static_cast<size_t>(level)];
    s.resize(static_cast<size_t>(n_));
    return s;
  }

  // Bitwise-AC adjacency rows for the binary constraints (the dominant
  // case: every graph query). For a binary relation R of B the pool holds
  // 2m packed rows of `stride_` words:
  //
  //   row(base + v)      = { u : (u, v) in R }   (support for position 0)
  //   row(base + m + u)  = { v : (u, v) in R }   (support for position 1)
  //
  // A revision of a binary constraint with distinct variables then
  // computes each side's support set as a union of the other side's
  // domain rows — whole-row kernel work proportional to |domain| * stride
  // instead of a scan over all of R's tuples. The union over dom(var1) of
  // { u : (u, v) in R } is exactly { u : exists v in dom(var1), (u, v) in
  // R }; intersecting dom(var0) with it equals intersecting with the
  // tuple scan's marked set (the scan's extra dom(var0) membership test
  // is absorbed by the intersection), so the propagation fixpoint — and
  // every answer derived from it — is bit-identical to the scan path.
  //
  // The rows are part of the indexed kernel (use_index): the pure-scan
  // ablation keeps measuring genuine tuple scans. Memory is
  // 2m * stride words per binary relation with at least one
  // distinct-variable constraint; relations without one never allocate.
  void BuildAdjacency() {
    const int num_rels = b_.GetVocabulary().NumRelations();
    adjacency_base_.assign(static_cast<size_t>(num_rels), -1);
    if (index_ == nullptr || !options_.use_arc_consistency) return;
    size_t rows = 0;
    for (const TupleConstraint& c : constraints_) {
      if (c.pattern.size() != 2 || c.pattern[0] == c.pattern[1]) continue;
      if (adjacency_base_[static_cast<size_t>(c.rel)] >= 0) continue;
      adjacency_base_[static_cast<size_t>(c.rel)] =
          static_cast<int64_t>(rows);
      rows += 2 * static_cast<size_t>(m_);
    }
    if (rows == 0) return;
    ws_.adjacency.Resize(rows * static_cast<size_t>(stride_));  // zeroed
    for (int rel = 0; rel < num_rels; ++rel) {
      const int64_t base = adjacency_base_[static_cast<size_t>(rel)];
      if (base < 0) continue;
      for (const Tuple& t : b_.Tuples(rel)) {
        bitset64::Set(AdjacencyRow(base, t[1]), t[0]);
        bitset64::Set(AdjacencyRow(base + m_, t[0]), t[1]);
      }
    }
  }

  uint64_t* AdjacencyRow(int64_t index) {
    return ws_.adjacency.data() +
           static_cast<size_t>(index) * static_cast<size_t>(stride_);
  }
  uint64_t* AdjacencyRow(int64_t base, int value) {
    return AdjacencyRow(base + value);
  }

  // Generalized arc consistency: drop unsupported values until fixpoint.
  // Returns false if some domain empties.
  //
  // Worklist discipline: a constraint is (re)queued exactly when one of
  // its variables' domains shrinks; `seed_var >= 0` starts from only the
  // constraints mentioning that variable (Solve narrows one variable per
  // level, so everything else is already at fixpoint from the parent
  // level), `seed_var < 0` starts from every constraint. The revision
  // operators are monotone and reductive, so chaotic iteration converges
  // to the same greatest fixpoint in any order — the final domains, and
  // every answer derived from them, match the round-robin schedule bit
  // for bit, including the empty-domain (infeasible) verdict.
  //
  // Binary constraints with distinct variables take the bitwise path
  // (BuildAdjacency above) when the adjacency rows exist. Otherwise, with
  // the index enabled, a constraint whose pattern has a singleton-domain
  // (assigned) position only scans the inverted list of that position's
  // value — the shortest such list if several positions are assigned.
  // Every skipped tuple disagrees with a singleton domain, so Compatible
  // would have rejected it: the support sets, and hence the propagation
  // fixpoint, are bit-identical to the full scan on every path.
  bool Propagate(AlignedWordPool& words, std::vector<int>& sizes,
                 int seed_var = -1) {
    uint64_t* supported = ws_.supported.data();
    const int num_constraints = static_cast<int>(constraints_.size());
    ac_queued_.assign(static_cast<size_t>(num_constraints), 0);
    ac_queue_.clear();
    if (seed_var >= 0) {
      EnqueueConstraintsOf(seed_var);
    } else {
      for (int ci = num_constraints - 1; ci >= 0; --ci) {
        ac_queued_[static_cast<size_t>(ci)] = 1;
        ac_queue_.push_back(ci);
      }
    }
    while (!ac_queue_.empty()) {
      const int ci = ac_queue_.back();
      ac_queue_.pop_back();
      // Clear before revising: a revision that shrinks one of its own
      // variables must requeue itself (its other support sets were
      // computed from the pre-shrink domain).
      ac_queued_[static_cast<size_t>(ci)] = 0;
      const TupleConstraint& c = constraints_[static_cast<size_t>(ci)];
      // For each position, collect the values that appear in some
      // compatible B-tuple.
      const int arity = static_cast<int>(c.pattern.size());
      if (arity == 2 && c.pattern[0] != c.pattern[1] &&
          adjacency_base_[static_cast<size_t>(c.rel)] >= 0) {
        if (!ReviseBinaryBitwise(c, words, sizes)) return false;
        continue;
      }
      bitset64::ClearAll(supported, arity * stride_);
      const std::vector<Tuple>& tuples = b_.Tuples(c.rel);
      std::span<const int> narrowed;
      bool use_narrowed = false;
      if (index_ != nullptr) {
        size_t best = tuples.size();
        for (int i = 0; i < arity; ++i) {
          const int var = c.pattern[static_cast<size_t>(i)];
          if (sizes[static_cast<size_t>(var)] != 1) continue;
          const int only = bitset64::FindFirst(Row(words, var), stride_);
          const auto ids = index_->TuplesAt(c.rel, i, only);
          if (ids.size() <= best) {
            best = ids.size();
            narrowed = ids;
            use_narrowed = true;
          }
        }
      }
      const auto mark = [&](const Tuple& s) {
        if (!Compatible(c.pattern, s, words)) return;
        for (int i = 0; i < arity; ++i) {
          bitset64::Set(supported + i * stride_,
                        s[static_cast<size_t>(i)]);
        }
      };
      if (use_narrowed) {
        for (int id : narrowed) mark(tuples[static_cast<size_t>(id)]);
      } else {
        for (const Tuple& s : tuples) mark(s);
      }
      for (int i = 0; i < arity; ++i) {
        const int var = c.pattern[static_cast<size_t>(i)];
        uint64_t* row = Row(words, var);
        if (bitset64::IntersectInPlace(row, supported + i * stride_,
                                       stride_)) {
          sizes[static_cast<size_t>(var)] =
              bitset64::Popcount(row, stride_);
          if (sizes[static_cast<size_t>(var)] == 0) return false;
          EnqueueConstraintsOf(var);
        }
      }
    }
    return true;
  }

  void EnqueueConstraintsOf(int var) {
    for (int ci : constraints_of_var_[static_cast<size_t>(var)]) {
      if (!ac_queued_[static_cast<size_t>(ci)]) {
        ac_queued_[static_cast<size_t>(ci)] = 1;
        ac_queue_.push_back(ci);
      }
    }
  }

  // One bitwise revision of a binary distinct-variable constraint: each
  // side's support set is the union of the adjacency rows selected by the
  // other side's domain, then intersected into the domain. Equal to the
  // tuple-scan revision bit for bit (see BuildAdjacency), but all
  // whole-row kernel work — the unions and intersections vectorize.
  bool ReviseBinaryBitwise(const TupleConstraint& c, AlignedWordPool& words,
                           std::vector<int>& sizes) {
    const int64_t base = adjacency_base_[static_cast<size_t>(c.rel)];
    uint64_t* supported = ws_.supported.data();
    for (int i = 0; i < 2; ++i) {
      // Support for position i unions the rows indexed by the values
      // still in the *other* position's domain. The first row is a copy
      // (saves the clear pass; singleton domains — the common case during
      // search — finish in one row op).
      const int other = c.pattern[static_cast<size_t>(1 - i)];
      const int64_t dir_base = i == 0 ? base : base + m_;
      uint64_t* sup = supported + i * stride_;
      const uint64_t* other_row = Row(words, other);
      int v = bitset64::FindFirst(other_row, stride_);
      if (v < 0) {  // unreachable: empty domains abort the propagation
        bitset64::ClearAll(sup, stride_);
        continue;
      }
      std::memcpy(sup, AdjacencyRow(dir_base, v), RowBytes());
      for (v = bitset64::FindNext(other_row, stride_, v); v >= 0;
           v = bitset64::FindNext(other_row, stride_, v)) {
        bitset64::UnionInPlace(sup, AdjacencyRow(dir_base, v), stride_);
      }
    }
    for (int i = 0; i < 2; ++i) {
      const int var = c.pattern[static_cast<size_t>(i)];
      uint64_t* row = Row(words, var);
      if (bitset64::IntersectInPlace(row, supported + i * stride_,
                                     stride_)) {
        sizes[static_cast<size_t>(var)] = bitset64::Popcount(row, stride_);
        if (sizes[static_cast<size_t>(var)] == 0) return false;
        EnqueueConstraintsOf(var);
      }
    }
    return true;
  }

  // Is B-tuple s compatible with the pattern under current domains
  // (including repeated-variable consistency)?
  bool Compatible(const Tuple& pattern, const Tuple& s,
                  const AlignedWordPool& words) const {
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (!bitset64::Test(Row(words, pattern[i]),
                          s[i])) {
        return false;
      }
      for (size_t j = i + 1; j < pattern.size(); ++j) {
        if (pattern[i] == pattern[j] && s[i] != s[j]) return false;
      }
    }
    return true;
  }

  // Check constraints whose variables are all assigned.
  bool AssignedConsistent() const {
    for (const TupleConstraint& c : constraints_) {
      Tuple image;
      image.reserve(c.pattern.size());
      bool full = true;
      for (int var : c.pattern) {
        const int val = ws_.assignment[static_cast<size_t>(var)];
        if (val == -1) {
          full = false;
          break;
        }
        image.push_back(val);
      }
      if (full && !b_.HasTuple(c.rel, image)) return false;
    }
    return true;
  }

  // Surjectivity pruning: every target value must be assigned or still
  // available in some unassigned domain, and the uncovered values must
  // fit in the unassigned variables.
  bool SurjectivityPossible(const AlignedWordPool& words) {
    uint64_t* covered = ws_.covered.data();
    uint64_t* reach = ws_.reachable.data();
    bitset64::ClearAll(covered, stride_);
    bitset64::ClearAll(reach, stride_);
    int unassigned = 0;
    for (int var = 0; var < n_; ++var) {
      const int val = ws_.assignment[static_cast<size_t>(var)];
      if (val != -1) {
        bitset64::Set(covered, val);
      } else {
        ++unassigned;
        bitset64::UnionInPlace(reach, Row(words, var), stride_);
      }
    }
    int missing = 0;
    for (int w = 0; w < stride_; ++w) {
      const uint64_t uncovered = ws_.full_row.data()[w] & ~covered[w];
      if ((uncovered & ~reach[w]) != 0) return false;  // unreachable value
      missing += std::popcount(uncovered);
    }
    return missing <= unassigned;
  }

  void Solve(int level, AlignedWordPool& words, std::vector<int>& sizes,
             const std::function<bool(const std::vector<int>&)>& emit) {
    if (stopped_) return;
    if (!budget_.Checkpoint()) {
      stopped_ = true;
      return;
    }

    // Pick the unassigned variable with the smallest domain.
    int var = -1;
    int best_size = -1;
    for (int v = 0; v < n_; ++v) {
      if (ws_.assignment[static_cast<size_t>(v)] != -1) continue;
      const int size = sizes[static_cast<size_t>(v)];
      if (var == -1 || size < best_size) {
        var = v;
        best_size = size;
      }
    }
    if (var == -1) {
      // Complete assignment.
      if (options_.surjective) {
        bitset64::ClearAll(ws_.covered.data(), stride_);
        for (int val : ws_.assignment) bitset64::Set(ws_.covered.data(), val);
        if (bitset64::Popcount(ws_.covered.data(), stride_) != m_) return;
      }
      if (!emit(ws_.assignment)) stopped_ = true;
      return;
    }

    // The next level's buffers are fixed for the whole value loop: each
    // candidate overwrites them with a flat copy of this level's domains.
    const uint64_t* row = Row(words, var);
    AlignedWordPool& next_words = LevelWords(level + 1);
    std::vector<int>& next_sizes = LevelSizes(level + 1);
    for (int val = bitset64::FindFirst(row, stride_); val >= 0;
         val = bitset64::FindNext(row, stride_, val)) {
      ws_.assignment[static_cast<size_t>(var)] = val;
      std::memcpy(next_words.data(), words.data(),
                  words.size() * sizeof(uint64_t));
      std::memcpy(next_sizes.data(), sizes.data(), sizes.size() * sizeof(int));
      uint64_t* next_row = Row(next_words, var);
      bitset64::ClearAll(next_row, stride_);
      bitset64::Set(next_row, val);
      next_sizes[static_cast<size_t>(var)] = 1;
      bool feasible = true;
      if (options_.use_arc_consistency) {
        // Only `var` changed relative to this level's propagated domains,
        // so the worklist starts from its constraints alone.
        feasible = Propagate(next_words, next_sizes, var);
      } else {
        feasible = AssignedConsistent();
      }
      if (feasible && options_.surjective) {
        feasible = SurjectivityPossible(next_words);
      }
      if (feasible) Solve(level + 1, next_words, next_sizes, emit);
      ws_.assignment[static_cast<size_t>(var)] = -1;
      if (stopped_) return;
    }
  }

  const Structure& a_;
  const Structure& b_;
  KernelOptions options_;
  Budget& budget_;
  const RelationIndex* index_ = nullptr;  // null = pure-scan propagation
  std::vector<TupleConstraint> constraints_;
  // Per-relation first row of the bitwise-AC adjacency pool; -1 when the
  // relation has no binary distinct-variable constraint (or no index).
  std::vector<int64_t> adjacency_base_;
  // Propagation worklist state (see Propagate).
  std::vector<std::vector<int>> constraints_of_var_;
  std::vector<int> ac_queue_;
  std::vector<char> ac_queued_;
  int n_ = 0;
  int m_ = 0;
  int stride_ = 0;  // words per packed domain row
  int max_arity_ = 0;
  bool stopped_ = false;
  WorkspaceLease lease_;  // declared before ws_: initialization order
  SolverWorkspace& ws_;
};

}  // namespace

void RunSerialHomKernel(
    const Structure& a, const Structure& b, const KernelOptions& options,
    Budget& budget,
    const std::function<bool(const std::vector<int>&)>& emit) {
  // An allocation failure while leasing or sizing the solver workspace
  // (real, or the injected "hom/workspace_alloc_hard" fault) is
  // unrecoverable at this level: contain it as a structured kMemory stop
  // so the caller sees an exhausted Outcome, never a crash. The
  // recoverable simulation — the AC workspace cannot grow, so the plan
  // falls back to the naive kernel — is the engine's
  // "hom/workspace_alloc" degradation rung.
  if (HOMPRES_FAILPOINT("hom/workspace_alloc_hard")) {
    budget.ForceStop(StopReason::kMemory);
    return;
  }
  try {
    HomSearch search(a, b, options, budget);
    search.Run(emit);
  } catch (const std::bad_alloc&) {
    budget.ForceStop(StopReason::kMemory);
  }
}

bool VerifyHomomorphism(const Structure& a, const Structure& b,
                        const std::vector<int>& h) {
  if (static_cast<int>(h.size()) != a.UniverseSize()) return false;
  for (int val : h) {
    if (val < 0 || val >= b.UniverseSize()) return false;
  }
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : a.Tuples(rel)) {
      Tuple image;
      image.reserve(t.size());
      for (int e : t) image.push_back(h[static_cast<size_t>(e)]);
      if (!b.HasTuple(rel, image)) return false;
    }
  }
  return true;
}

}  // namespace hompres
