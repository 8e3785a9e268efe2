#include "cq/decomposed_eval.h"

#include <algorithm>
#include <numeric>

#include "base/bitset64.h"
#include "base/check.h"
#include "base/subsets.h"
#include "structure/gaifman.h"
#include "structure/relation_index.h"
#include "tw/nice.h"

namespace hompres {

namespace {

// Partial assignments over a (sorted) bag, aligned with the bag's order
// and stored row-major in one flat buffer: `width` ints per assignment,
// lexicographically sorted and duplicate-free (see Normalize). The flat
// layout replaces a std::set<std::vector<int>> — no per-assignment node
// or vector allocation, sequential scans instead of pointer chasing, and
// joins become linear merges of sorted rows. Both forms hold the same
// set of assignments at every node, so the DP's verdict is unchanged.
//
// `rows` is explicit rather than data.size()/width: width-0 tables (the
// leaf, and any bag that forgets everything) still distinguish "the one
// empty assignment" from "no assignments".
struct AssignmentTable {
  int width = 0;
  size_t rows = 0;
  std::vector<int> data;

  const int* Row(size_t r) const {
    return data.data() + r * static_cast<size_t>(width);
  }
};

bool RowLess(const int* a, const int* b, int width) {
  return std::lexicographical_compare(a, a + width, b, b + width);
}
bool RowEq(const int* a, const int* b, int width) {
  return std::equal(a, a + width, b);
}

// Canonical form: rows sorted lexicographically, duplicates dropped.
void Normalize(AssignmentTable& t) {
  if (t.width == 0) {
    t.rows = t.rows > 0 ? 1 : 0;
    return;
  }
  if (t.rows <= 1) return;
  std::vector<size_t> order(t.rows);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return RowLess(t.Row(x), t.Row(y), t.width);
  });
  std::vector<int> packed;
  packed.reserve(t.data.size());
  size_t kept = 0;
  for (const size_t r : order) {
    const int* row = t.Row(r);
    if (kept > 0 &&
        RowEq(packed.data() + (kept - 1) * static_cast<size_t>(t.width), row,
              t.width)) {
      continue;
    }
    packed.insert(packed.end(), row, row + t.width);
    ++kept;
  }
  t.data = std::move(packed);
  t.rows = kept;
}

// A canonical tuple relevant to an introduce node: fully contained in the
// bag and mentioning the introduced element. `bag_pos[j]` is the bag
// position of entry j; `is_fresh[j]` marks the entries equal to the
// introduced element.
struct RelevantTuple {
  int rel;
  Tuple t;
  std::vector<int> bag_pos;
  std::vector<bool> is_fresh;
};

class DecompositionDp {
 public:
  DecompositionDp(const Structure& canonical, const Structure& b,
                  const NiceTreeDecomposition& nice)
      : canonical_(canonical),
        b_(b),
        nice_(nice),
        canonical_index_(canonical.Index()),
        b_index_(b.Index()) {}

  bool Run() { return Solve(nice_.root).rows > 0; }

 private:
  // All tuples of the canonical structure fully contained in `bag` that
  // mention `fresh`, found through the inverted lists instead of a scan
  // over every canonical tuple per introduce node.
  std::vector<RelevantTuple> RelevantTuples(const std::vector<int>& bag,
                                            int fresh) const {
    std::vector<RelevantTuple> result;
    for (int rel = 0; rel < canonical_.GetVocabulary().NumRelations();
         ++rel) {
      const auto& tuples = canonical_.Tuples(rel);
      for (int id : canonical_index_.TuplesMentioning(rel, fresh)) {
        const Tuple& t = tuples[static_cast<size_t>(id)];
        RelevantTuple r{rel, t, {}, {}};
        r.bag_pos.reserve(t.size());
        r.is_fresh.reserve(t.size());
        bool inside = true;
        for (int e : t) {
          const auto it = std::lower_bound(bag.begin(), bag.end(), e);
          if (it == bag.end() || *it != e) {
            inside = false;
            break;
          }
          r.bag_pos.push_back(static_cast<int>(it - bag.begin()));
          r.is_fresh.push_back(e == fresh);
        }
        if (inside) result.push_back(std::move(r));
      }
    }
    return result;
  }

  // Fills `out` with the values v such that the image of `r.t` under the
  // extended assignment (fresh -> v, other bag elements -> their value in
  // `assignment`, a table row aligned with the bag minus `fresh`) is a
  // tuple of B. The enumeration runs over the shortest inverted list of a
  // bound position (or the whole relation if every position is fresh); a
  // value qualifies exactly when HasTuple would accept the image, and the
  // packed set iterates ascending, so the DP tables match the old
  // sorted-vector construction bit for bit.
  void CandidateValues(const RelevantTuple& r, const int* assignment,
                       size_t fresh_pos, Bitset64& out) const {
    const size_t arity = r.t.size();
    // Bound value per position (-1 at fresh positions). Reused scratch:
    // CandidateValues runs once per (assignment, tuple) in the introduce
    // loop, and a fresh heap allocation per call would dominate the
    // word-wise intersection it feeds.
    std::vector<int>& bound = bound_scratch_;
    bound.assign(arity, -1);
    int best_pos = -1;
    size_t best_size = 0;
    for (size_t j = 0; j < arity; ++j) {
      if (r.is_fresh[j]) continue;
      const size_t p = static_cast<size_t>(r.bag_pos[j]);
      bound[j] = assignment[p > fresh_pos ? p - 1 : p];
      const auto ids =
          b_index_.TuplesAt(r.rel, static_cast<int>(j), bound[j]);
      if (best_pos == -1 || ids.size() < best_size) {
        best_pos = static_cast<int>(j);
        best_size = ids.size();
      }
    }
    out.ClearAll();
    const auto& tuples = b_.Tuples(r.rel);
    const auto consider = [&](const Tuple& s) {
      int v = -1;
      for (size_t j = 0; j < arity; ++j) {
        if (r.is_fresh[j]) {
          if (v == -1) {
            v = s[j];
          } else if (s[j] != v) {
            return;  // repeated fresh positions must agree
          }
        } else if (s[j] != bound[j]) {
          return;
        }
      }
      out.Set(v);
    };
    if (best_pos >= 0) {
      for (int id : b_index_.TuplesAt(r.rel, best_pos, bound[static_cast<size_t>(
                                                           best_pos)])) {
        consider(tuples[static_cast<size_t>(id)]);
      }
    } else {
      for (const Tuple& s : tuples) consider(s);
    }
  }

  AssignmentTable Solve(int node) const {
    const auto& bag = nice_.bags[static_cast<size_t>(node)];
    const auto& children = nice_.children[static_cast<size_t>(node)];
    switch (nice_.kinds[static_cast<size_t>(node)]) {
      case NiceNodeKind::kLeaf: {
        AssignmentTable t;
        t.rows = 1;  // the empty assignment
        return t;
      }
      case NiceNodeKind::kIntroduce: {
        const auto& child_bag =
            nice_.bags[static_cast<size_t>(children[0])];
        // The introduced canonical element.
        int fresh = -1;
        for (int e : bag) {
          if (!std::binary_search(child_bag.begin(), child_bag.end(), e)) {
            fresh = e;
            break;
          }
        }
        HOMPRES_CHECK_GE(fresh, 0);
        const size_t fresh_pos = static_cast<size_t>(
            std::lower_bound(bag.begin(), bag.end(), fresh) - bag.begin());
        const auto tuples = RelevantTuples(bag, fresh);
        const AssignmentTable below = Solve(children[0]);
        AssignmentTable result;
        result.width = static_cast<int>(bag.size());
        // Packed candidate sets, hoisted out of the assignment loop; the
        // per-tuple intersection is a word-wise AND instead of a
        // set_intersection over sorted vectors.
        Bitset64 candidates(b_.UniverseSize());
        Bitset64 per_tuple(b_.UniverseSize());
        for (size_t r = 0; r < below.rows; ++r) {
          const int* assignment = below.Row(r);
          // Values the fresh element may take: all of B's universe when no
          // canonical tuple constrains it, otherwise the intersection of
          // the per-tuple candidate sets.
          if (tuples.empty()) {
            candidates.SetAll();
          } else {
            CandidateValues(tuples[0], assignment, fresh_pos, candidates);
            for (size_t i = 1; i < tuples.size() && candidates.Any(); ++i) {
              CandidateValues(tuples[i], assignment, fresh_pos, per_tuple);
              candidates.IntersectWith(per_tuple);
            }
          }
          for (int value = candidates.FindFirst(); value >= 0;
               value = candidates.FindNext(value)) {
            // Extended row: the child row with `value` spliced in at the
            // fresh element's bag position.
            result.data.insert(result.data.end(), assignment,
                               assignment + fresh_pos);
            result.data.push_back(value);
            result.data.insert(result.data.end(), assignment + fresh_pos,
                               assignment + below.width);
            ++result.rows;
          }
        }
        Normalize(result);
        return result;
      }
      case NiceNodeKind::kForget: {
        const auto& child_bag =
            nice_.bags[static_cast<size_t>(children[0])];
        // Position of the forgotten element in the child bag.
        size_t drop_pos = 0;
        for (size_t i = 0; i < child_bag.size(); ++i) {
          if (!std::binary_search(bag.begin(), bag.end(), child_bag[i])) {
            drop_pos = i;
            break;
          }
        }
        const AssignmentTable child = Solve(children[0]);
        AssignmentTable result;
        result.width = child.width - 1;
        result.rows = child.rows;
        result.data.reserve(child.rows * static_cast<size_t>(result.width));
        for (size_t r = 0; r < child.rows; ++r) {
          const int* row = child.Row(r);
          result.data.insert(result.data.end(), row, row + drop_pos);
          result.data.insert(result.data.end(), row + drop_pos + 1,
                             row + child.width);
        }
        Normalize(result);  // projection may collide rows
        return result;
      }
      case NiceNodeKind::kJoin: {
        const AssignmentTable left = Solve(children[0]);
        if (left.rows == 0) {
          AssignmentTable empty;
          empty.width = static_cast<int>(bag.size());
          return empty;
        }
        const AssignmentTable right = Solve(children[1]);
        // Both sides are sorted and unique: intersect with one linear
        // merge (already canonical, no Normalize needed).
        AssignmentTable result;
        result.width = left.width;
        size_t i = 0;
        size_t j = 0;
        while (i < left.rows && j < right.rows) {
          const int* a = left.Row(i);
          const int* b = right.Row(j);
          if (RowLess(a, b, left.width)) {
            ++i;
          } else if (RowLess(b, a, left.width)) {
            ++j;
          } else {
            result.data.insert(result.data.end(), a, a + left.width);
            ++result.rows;
            ++i;
            ++j;
          }
        }
        return result;
      }
    }
    HOMPRES_CHECK(false);
    return {};
  }

  const Structure& canonical_;
  const Structure& b_;
  const NiceTreeDecomposition& nice_;
  const RelationIndex& canonical_index_;
  const RelationIndex& b_index_;
  mutable std::vector<int> bound_scratch_;
};

}  // namespace

bool SatisfiedByTreewidthDp(const ConjunctiveQuery& q, const Structure& b,
                            const TreeDecomposition& td) {
  HOMPRES_CHECK(q.IsBoolean());
  HOMPRES_CHECK(q.Canonical().GetVocabulary() == b.GetVocabulary());
  const Graph gaifman = GaifmanGraph(q.Canonical());
  HOMPRES_CHECK(IsValidTreeDecomposition(gaifman, td));
  // The engine's nullary-atom guard (structure.h): 0-ary atoms appear in
  // no bag (they mention no variable), so the DP never checks them.
  if (!NullaryAtomsHold(q.Canonical(), b)) return false;
  if (q.Canonical().UniverseSize() > 0 && b.UniverseSize() == 0) {
    return false;
  }
  const NiceTreeDecomposition nice = MakeNiceDecomposition(gaifman, td);
  return DecompositionDp(q.Canonical(), b, nice).Run();
}

bool SatisfiedByTreewidthDp(const ConjunctiveQuery& q, const Structure& b) {
  return SatisfiedByTreewidthDp(
      q, b, ExactTreeDecomposition(GaifmanGraph(q.Canonical())));
}

}  // namespace hompres
