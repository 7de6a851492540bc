// ChainStats: incremental statistics for one reference chain
// Tk -> ... -> T1 (Sec. V-A of the paper).
//
// Levels are 0-based here: level 0 is the root table T1, level k-1 is
// Tk. For every tuple t at level L the structure maintains
//   cnt(L, t, j) = number of children of t (at level L+1) whose subtree
//                  reaches level j, for j in (L, k),
// plus parent pointers, children lists and the linear join matrix
//   h(j, i) = |S_{j,i}| = number of level-i tuples reaching level j.
//
// Because a chain is a path, a tuple's reach set is always the
// contiguous range [L, MaxReach(t)] - reaching level j implies reaching
// every level between L and j.
//
// Attach/Detach update all counters and the matrix in O(k) per level
// flip, which is what makes both the Statistics Updater and the exact
// move-effect evaluation (apply + revert) cheap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/refgraph.h"

namespace aspect {

/// Lower-triangular linear join matrix; entry (j, i) is stored for
/// 0 <= i < j < k (0-based levels).
class JoinMatrix {
 public:
  explicit JoinMatrix(int k = 0) : k_(k), h_(static_cast<size_t>(k * k), 0) {}

  int k() const { return k_; }
  int64_t at(int j, int i) const {
    return h_[static_cast<size_t>(j * k_ + i)];
  }
  void set(int j, int i, int64_t v) {
    h_[static_cast<size_t>(j * k_ + i)] = v;
  }
  void add(int j, int i, int64_t d) {
    h_[static_cast<size_t>(j * k_ + i)] += d;
  }

  bool operator==(const JoinMatrix& other) const {
    return k_ == other.k_ && h_ == other.h_;
  }

  /// Mean relative error against a target matrix (the paper's
  /// epsilon_H): mean over entries of |h - h~| / max(h~, 1).
  double ErrorAgainst(const JoinMatrix& target) const;

  std::string ToString() const;

 private:
  int k_;
  std::vector<int64_t> h_;
};

class ChainStats {
 public:
  explicit ChainStats(ReferenceChain chain);

  const ReferenceChain& chain() const { return chain_; }
  int k() const { return static_cast<int>(chain_.tables.size()); }

  /// (Re)builds all statistics from the database in one reach pass and
  /// one fill pass per level. The result equals attaching every live
  /// child with an FK value one at a time in slot order, children lists
  /// included.
  void Build(const Database& db);

  /// Grows per-tuple arrays to cover new appends in `db`.
  void EnsureCapacity(const Database& db);

  /// Grows the per-tuple arrays of one level to at least `slots` rows
  /// (used to simulate an insert before the database applies it).
  void EnsureSlotCount(int level, int64_t slots);

  const JoinMatrix& matrix() const { return h_; }

  /// Parent of tuple `t` at level L (L >= 1); -1 if detached.
  TupleId Parent(int level, TupleId t) const {
    return parent_[static_cast<size_t>(level)][static_cast<size_t>(t)];
  }

  /// Children (at level L+1) of tuple `t` at level L (L <= k-2).
  const std::vector<TupleId>& Children(int level, TupleId t) const {
    return children_[static_cast<size_t>(level)][static_cast<size_t>(t)];
  }

  /// Number of children of `t` (level L) whose subtree reaches level j.
  int32_t Cnt(int level, TupleId t, int j) const;

  /// True if tuple `t` at level L has a descendant at level j (j == L
  /// counts as reaching itself).
  bool Reaches(int level, TupleId t, int j) const {
    return j == level || Cnt(level, t, j) > 0;
  }

  /// Largest level `t` reaches.
  int MaxReach(int level, TupleId t) const;

  /// Ancestor of `t` at `target_level` (walking parent pointers);
  /// kInvalidTuple if the path is broken by a detached tuple.
  TupleId AncestorAt(int level, TupleId t, int target_level) const;

  /// Any descendant of `t` at `target_level` (walking children that
  /// reach it); kInvalidTuple if none.
  TupleId DescendantAt(int level, TupleId t, int target_level) const;

  /// Attaches tuple `child` at level L (>= 1) under `parent` at L-1,
  /// updating counters and the matrix. `child` must be detached.
  void Attach(int level, TupleId child, TupleId parent);

  /// Detaches `child` at level L from its current parent (no-op if
  /// already detached).
  void Detach(int level, TupleId child);

  /// Every level at which `table_index` appears in this chain (a DAG
  /// path visits a table at most once, so 0 or 1 entries).
  int LevelOfTable(int table_index) const;

 private:
  void Propagate(int level, TupleId t, int j, int delta);

  ReferenceChain chain_;
  JoinMatrix h_;
  // parent_[L][t] for L in [1, k); children_[L][t] for L in [0, k-1);
  // child_pos_[L][t]: index of t within its parent's children vector.
  std::vector<std::vector<TupleId>> parent_;
  std::vector<std::vector<std::vector<TupleId>>> children_;
  std::vector<std::vector<int32_t>> child_pos_;
  // cnt_[L]: per tuple, (k-1-L) counters for j in (L, k).
  std::vector<std::vector<int32_t>> cnt_;
};

/// Extracts the linear join matrix of a chain directly from a database
/// (one reach pass per level, no incremental state). Used for targets
/// and as the tests' oracle for ChainStats.
JoinMatrix ComputeJoinMatrix(const Database& db, const ReferenceChain& chain);

}  // namespace aspect
