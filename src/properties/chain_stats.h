// Incremental statistics of the linear join property (Sec. V-A of the
// paper), for every maximal reference chain Tk -> ... -> T1 at once.
//
// Levels are 0-based here: level 0 is the root table T1, level k-1 is
// Tk. For every tuple t at level L of a chain the structure maintains
//   cnt(L, t, j) = number of children of t (at level L+1) whose subtree
//                  reaches level j, for j in (L, k),
// plus parent pointers, children lists and the linear join matrix
//   h(j, i) = |S_{j,i}| = number of level-i tuples reaching level j.
//
// Because a chain is a path, a tuple's reach set is always the
// contiguous range [L, MaxReach(t)] - reaching level j implies reaching
// every level between L and j.
//
// Parent pointers and children lists belong to a foreign-key edge (a
// child table's FK column), not to a chain: every chain through one
// edge reads the same EdgeLists. Each chain keeps only its counters and
// its matrix. Re-parenting a child relinks the edge once and then
// updates the counters of each chain through it in O(k) per level flip,
// which is what makes both the Statistics Updater and the exact
// move-effect evaluation cheap.
//
// Parents and counters are the statistics: Error and pricing read
// them, and Build keeps them from then on. The children lists are the
// search index: only tweaking walks them, so BuildLists makes them
// from the parents when a Tweak starts and ReleaseLists frees them when
// it ends; while they exist every relink keeps them current.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
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
  /// Row-major storage: entry (j, i) at data()[j * k() + i].
  int64_t* data() { return h_.data(); }

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

/// Parent pointers and children lists of one FK edge, in flat arrays.
/// The parent pointers always exist; the lists only between
/// BuildLists and ReleaseLists. The children of every parent slot sit
/// in one block of a shared arena, with slack. Appending to a full
/// block moves it to the arena's end with twice the room; once dead
/// cells outnumber live ones the arena is compacted, each list keeping
/// its order.
///
/// Order rule: BuildLists lists children in slot order, Link puts the
/// child last and Unlink swap-removes it (the former last child takes
/// its place). Tweaking's random draws read children in this order, so
/// it is part of the output contract.
class EdgeLists {
 public:
  /// Sizes the parents for the given slot counts with nothing attached
  /// and drops the lists.
  void Reset(int64_t child_slots, int64_t parent_slots);
  /// After Reset, attaches every live row of `child` whose `fk` cell
  /// holds a value.
  void Fill(const Table& child, const Column& fk);
  /// Lists every attached child under its parent in slot order (what
  /// Link one child at a time would leave) in one count and one fill
  /// pass over the parents.
  void BuildLists();
  /// Frees the lists; Link and Unlink then keep only the parents.
  void ReleaseLists();
  bool listed() const { return listed_; }

  void EnsureChildSlots(int64_t n);
  void EnsureParentSlots(int64_t n);

  /// Parent of child row `c`; kInvalidTuple if detached.
  TupleId Parent(TupleId c) const {
    return parent_[static_cast<size_t>(c)];
  }
  /// Children of parent slot `p`, in list order. Requires listed().
  std::span<const int32_t> Children(TupleId p) const {
    const Block& b = block_[static_cast<size_t>(p)];
    return {arena_.data() + b.begin, static_cast<size_t>(b.size)};
  }

  /// Attaches detached `c` under `p`, last in `p`'s list if listed.
  void Link(TupleId c, TupleId p);
  /// Detaches `c` (no-op if detached); the last child takes its place.
  void Unlink(TupleId c);

  /// Arena cells in use by blocks, and cells in all (for tests).
  int64_t LiveCells() const;
  int64_t ArenaCells() const { return static_cast<int64_t>(arena_.size()); }

 private:
  friend class LinearStats;

  struct Block {
    uint32_t begin = 0;
    int32_t size = 0;
    int32_t cap = 0;
  };
  /// Makes room for one more child in block `p`.
  void Grow(TupleId p);
  void Compact();

  std::vector<int32_t> parent_;  // child row -> parent slot or -1
  int64_t parent_slots_ = 0;     // parent slots the lists cover
  // The lists, while listed_.
  bool listed_ = false;
  std::vector<int32_t> pos_;  // child row -> index in its list
  std::vector<Block> block_;  // parent slot -> its arena block
  std::vector<int32_t> arena_;
  size_t dead_ = 0;  // arena cells outside every block
};

class LinearStats;

/// Counters and join matrix of one chain; parents and children are read
/// from the EdgeLists its LinearStats owns.
class ChainStats {
 public:
  const ReferenceChain& chain() const { return chain_; }
  int k() const { return static_cast<int>(chain_.tables.size()); }
  const JoinMatrix& matrix() const { return h_; }

  /// Parent of tuple `t` at level L (L >= 1); -1 if detached.
  TupleId Parent(int level, TupleId t) const {
    return edge_[static_cast<size_t>(level)]->Parent(t);
  }

  /// Children (at level L+1) of tuple `t` at level L (L <= k-2).
  /// Requires the lists (LinearStats::BuildLists).
  std::span<const int32_t> Children(int level, TupleId t) const {
    return edge_[static_cast<size_t>(level) + 1]->Children(t);
  }

  /// Number of children of `t` (level L) whose subtree reaches level j.
  int32_t Cnt(int level, TupleId t, int j) const {
    const auto width = static_cast<size_t>(k() - 1 - level);
    return cnt_[static_cast<size_t>(level)]
               [static_cast<size_t>(t) * width +
                static_cast<size_t>(j - level - 1)];
  }

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

  /// The first descendant of `t` at `target_level`, walking each
  /// children list in order to the first child that reaches it;
  /// kInvalidTuple if none. Requires the lists.
  TupleId DescendantAt(int level, TupleId t, int target_level) const;

  /// The level at which `table_index` appears in this chain (a DAG
  /// path visits a table at most once), or -1.
  int LevelOfTable(int table_index) const;

 private:
  friend class LinearStats;

  explicit ChainStats(ReferenceChain chain);

  /// Grows level L's counter rows to at least `slots` tuples.
  void EnsureRows(int level, int64_t slots) {
    const auto width = static_cast<size_t>(k() - 1 - level);
    std::vector<int32_t>& rows = cnt_[static_cast<size_t>(level)];
    if (rows.size() < static_cast<size_t>(slots) * width) {
      rows.resize(static_cast<size_t>(slots) * width, 0);
    }
  }
  /// Adds `delta` to cnt(level, t, j) and, when the tuple's reach to j
  /// flips, adds `delta` to h(j, level) (entry j * stride + level of
  /// `h`, skipped if `h` is null) and recurses to the parent.
  void Propagate(int level, TupleId t, int j, int delta, int64_t* h,
                 int stride);
  /// Counts (delta = +1) or uncounts (-1) the reach set of `child` at
  /// level L under `parent` at L-1.
  void AddReach(int level, TupleId child, TupleId parent, int delta,
                int64_t* h, int stride);

  ReferenceChain chain_;
  JoinMatrix h_;
  // edge_id_[L] / edge_[L]: the edge from level L to L-1 (L >= 1).
  std::vector<int> edge_id_;
  std::vector<const EdgeLists*> edge_;
  // cnt_[L]: per tuple, (k-1-L) counters for j in (L, k).
  std::vector<std::vector<int32_t>> cnt_;
};

/// Net matrix change of a move on one edge, per chain through it
/// (LinearStats::EvaluateMove). Reused from call to call.
struct MoveDelta {
  /// Change of h(j, i) of the edge's `use`-th chain.
  int64_t at(int use, int j, int i) const {
    return h[static_cast<size_t>(use) * static_cast<size_t>(stride * stride) +
             static_cast<size_t>(j * stride + i)];
  }

  int stride = 0;
  std::vector<int64_t> h;
  std::vector<std::pair<TupleId, TupleId>> moved;  // (child, old parent)
};

/// The bound state of the linear tool: one EdgeLists per distinct FK
/// edge of the chains, and one ChainStats per chain.
class LinearStats {
 public:
  /// One chain through an edge: the edge enters the chain at `level`.
  struct Use {
    int chain;
    int level;
  };

  explicit LinearStats(std::vector<ReferenceChain> chains = {});
  LinearStats(const LinearStats& other);
  LinearStats& operator=(const LinearStats& other);
  LinearStats(LinearStats&&) = default;
  LinearStats& operator=(LinearStats&&) = default;

  /// (Re)builds the statistics from the database: per edge one parent
  /// pass, per chain one reach pass and one count pass per level. The
  /// result equals Reset and then Attach of every live child with an
  /// FK value, deepest level first, in slot order. Lists are dropped.
  void Build(const Database& db);
  /// Sizes every array for `db`'s tables with nothing attached.
  void Reset(const Database& db);
  /// Builds every edge's children lists from its parents (the search
  /// index Tweak walks), and frees them again.
  void BuildLists();
  void ReleaseLists();

  int num_chains() const { return static_cast<int>(chains_.size()); }
  const ChainStats& chain(int c) const {
    return chains_[static_cast<size_t>(c)];
  }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const EdgeLists& edge(int e) const { return edges_[static_cast<size_t>(e)]; }
  /// Edge id of `table`'s FK column `col`; -1 if no chain uses it.
  int EdgeOf(int table, int col) const;
  /// Edge from level L to L-1 of chain `c`.
  int EdgeAt(int c, int level) const {
    return chains_[static_cast<size_t>(c)].edge_id_[static_cast<size_t>(level)];
  }
  /// The chains through edge `e`, in chain order.
  std::span<const Use> Uses(int e) const {
    return std::span<const Use>(uses_).subspan(
        static_cast<size_t>(use_begin_[static_cast<size_t>(e)]),
        static_cast<size_t>(use_begin_[static_cast<size_t>(e) + 1] -
                            use_begin_[static_cast<size_t>(e)]));
  }

  /// Grows every array indexed by `table`'s slots to `slots` rows.
  void EnsureTableSlots(int table, int64_t slots);

  /// Moves `child` of edge `e` from its current parent (if any) to
  /// `parent` (if valid), at the end of its list while listed.
  /// Counters are not touched.
  void Relink(int e, TupleId child, TupleId parent);
  /// Counts (+1) or uncounts (-1) `child`'s reach under `parent` in
  /// chain `c`, where the child sits at `level`.
  void AddReach(int c, int level, TupleId child, TupleId parent, int delta);

  /// Attaches detached `child` under `parent` on edge `e`, updating
  /// the list and every chain through the edge.
  void Attach(int e, TupleId child, TupleId parent);
  /// Detaches `child` on edge `e` (no-op if detached).
  void Detach(int e, TupleId child);

  /// The net change of every matrix through edge `e` if each of
  /// `children` (distinct) moved under `parent`, written to `out`.
  /// Counters and matrices end as they began. Lists, if built, end as
  /// applying and reverting the moves would leave them: each moved
  /// child that had a parent is swap-removed from its list, in order,
  /// and then appended back, in reverse order.
  void EvaluateMove(int e, std::span<const TupleId> children,
                    TupleId parent, MoveDelta* out);

 private:
  /// Points every chain at this object's edges (after construction or
  /// a copy; a move keeps the edges' addresses).
  void WireEdges();

  std::vector<ChainStats> chains_;
  std::vector<EdgeLists> edges_;
  // Per edge: child table, FK column, parent table.
  std::vector<int> edge_table_, edge_col_, edge_parent_;
  std::vector<std::vector<int>> col_edge_;  // table -> column -> edge
  std::vector<Use> uses_;       // grouped by edge
  std::vector<int> use_begin_;  // edge e's uses: [e], [e + 1])
  int max_k_ = 0;
};

/// Extracts the linear join matrix of a chain directly from a database
/// (one reach pass per level, no incremental state). Used for targets
/// and as the tests' oracle for LinearStats.
JoinMatrix ComputeJoinMatrix(const Database& db, const ReferenceChain& chain);

}  // namespace aspect
