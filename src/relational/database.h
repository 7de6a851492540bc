// Database: a named collection of tables plus the uniform modification
// API of Sec. III-D (deleteValues / insertValues / replaceValues) and
// row-level insert/delete, all observable by registered listeners.
//
// Every tweaking tool's Statistics Updater registers as a
// ModificationListener: it is notified after each applied modification
// with both the new state and the captured pre-images, so it can update
// its property statistics incrementally (Fig. 5 of the paper).
#pragma once

#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace aspect {

/// The kind of a modification in the uniform ASPECT API.
enum class OpKind : int {
  kDeleteValues = 0,   // erase cells (they become kEmpty)
  kInsertValues = 1,   // fill previously erased cells
  kReplaceValues = 2,  // overwrite non-empty cells
  kInsertTuple = 3,    // append a full tuple
  kDeleteTuple = 4,    // tombstone a tuple
};

const char* OpKindToString(OpKind kind);

/// One proposed or applied modification. For the three cell operations,
/// `values` is broadcast: every tuple in `tuples` receives values[j] in
/// column cols[j] (the paper's insertValues/replaceValues semantics).
/// For kInsertTuple, `values` is the full row and `tuples`/`cols` are
/// empty; for kDeleteTuple, `tuples` holds the single victim id.
struct Modification {
  OpKind kind = OpKind::kReplaceValues;
  std::string table;
  std::vector<TupleId> tuples;
  std::vector<int> cols;
  std::vector<Value> values;

  static Modification DeleteValues(std::string table,
                                   std::vector<TupleId> tuples,
                                   std::vector<int> cols);
  static Modification InsertValues(std::string table,
                                   std::vector<TupleId> tuples,
                                   std::vector<int> cols,
                                   std::vector<Value> values);
  static Modification ReplaceValues(std::string table,
                                    std::vector<TupleId> tuples,
                                    std::vector<int> cols,
                                    std::vector<Value> values);
  static Modification InsertTuple(std::string table,
                                  std::vector<Value> row);
  static Modification DeleteTuple(std::string table, TupleId tuple);
};

/// Observer of applied modifications (the Statistics Updater hook).
class ModificationListener {
 public:
  virtual ~ModificationListener() = default;

  /// Called after `mod` has been applied.
  ///
  /// `old_values` carries pre-images: for cell operations it is laid out
  /// row-major as tuples.size() x cols.size(); for kDeleteTuple it is
  /// the deleted row; for kInsertTuple it is empty. `new_tuple` is the
  /// id assigned by kInsertTuple (kInvalidTuple otherwise).
  virtual void OnApplied(const Modification& mod,
                         const std::vector<Value>& old_values,
                         TupleId new_tuple) = 0;

  /// Called once after a whole batch applied via Database::ApplyBatch.
  /// The spans are parallel: old_values[i] / new_tuples[i] belong to
  /// mods[i], with the same layouts as OnApplied. The default forwards
  /// entry by entry; listeners with a columnar fast path override it.
  /// Batches never touch the same tuple twice (the ApplyBatch
  /// contract), so observing all writes at once is equivalent to
  /// observing them one at a time.
  virtual void OnAppliedBatch(std::span<const Modification> mods,
                              std::span<const std::vector<Value>> old_values,
                              std::span<const TupleId> new_tuples);
};

class Database {
 public:
  /// Creates an empty database with the given schema (must validate).
  static Result<std::unique_ptr<Database>> Create(const Schema& schema);

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const Table& table(int i) const { return *tables_[static_cast<size_t>(i)]; }
  Table& table(int i) { return *tables_[static_cast<size_t>(i)]; }

  /// Finds a table by name (nullptr if absent).
  const Table* FindTable(const std::string& name) const;
  Table* FindTable(const std::string& name);

  /// Total number of live tuples across all tables.
  int64_t TotalTuples() const;

  /// Registers/unregisters a modification listener (not owned).
  void AddListener(ModificationListener* listener);
  void RemoveListener(ModificationListener* listener);

  /// The registered listeners, in registration order. The coordinator's
  /// parallel pass splices the notifications its tasks recorded into
  /// the listeners no task route covered.
  const std::vector<ModificationListener*>& listeners() const {
    return listeners_;
  }

  /// RAII per-thread listener routing for the shared-database parallel
  /// pass (DESIGN.md Sec. 10): while a route is installed, Apply /
  /// ApplyBatch on the installing thread notify exactly the routed
  /// listeners instead of the registered list. Each parallel task
  /// installs a route of {its own tool's listeners, its write
  /// recorder}, so concurrent tasks never deliver into each other's
  /// statistics and the shared listener list is never read under
  /// contention. Like the access probes (analysis/probe.h), the route
  /// is a plain thread_local: with none installed (the normal case)
  /// the cost is one null check per Apply. The routed vector must
  /// outlive the route.
  class ScopedListenerRoute {
   public:
    explicit ScopedListenerRoute(
        const std::vector<ModificationListener*>* route);
    ~ScopedListenerRoute();

    ScopedListenerRoute(const ScopedListenerRoute&) = delete;
    ScopedListenerRoute& operator=(const ScopedListenerRoute&) = delete;

   private:
    const std::vector<ModificationListener*>* prev_;
  };

  /// Validates and applies a modification, then notifies listeners.
  /// On kInsertTuple success, *new_tuple (if non-null) receives the id.
  Status Apply(const Modification& mod, TupleId* new_tuple = nullptr);

  /// Applies a batch of modifications all-or-nothing: either every one
  /// applies and listeners receive a single OnAppliedBatch call, or the
  /// applied prefix is rolled back and the first error returned (with
  /// no listener notification). `new_tuples` (if non-null) receives one
  /// id per modification (kInvalidTuple for non-inserts). Callers must
  /// not address the same tuple from two modifications of one batch:
  /// listener notifications are deferred until the whole batch has been
  /// written, which is only equivalent to one-at-a-time application
  /// when the touched tuple sets are disjoint (see DESIGN.md).
  Status ApplyBatch(std::span<const Modification> mods,
                    std::vector<TupleId>* new_tuples = nullptr);

  /// Reverts one applied modification given the pre-images captured by
  /// the listener notification (`old_values` / `new_tuple` exactly as
  /// OnApplied received them). Listeners are NOT notified: callers
  /// rebuild listener-held state afterwards.
  /// Modifications must be undone in reverse application order so that
  /// a kInsertTuple always reverts the table's last slot (see
  /// ModificationLog::UndoOnto).
  Status Undo(const Modification& mod, const std::vector<Value>& old_values,
              TupleId new_tuple);

  /// Deep copy (listeners and the referrer index are not copied).
  std::unique_ptr<Database> Clone() const;

  /// The referrer index (DESIGN.md §17): for each FK edge (child
  /// table, FK column), the live child rows whose cell holds parent
  /// slot v, for every v. Built by the first call (tools call it from
  /// Bind, which the coordinator runs serially), then kept current by
  /// Apply, ApplyBatch and Undo before any listener runs. Writes made
  /// directly through Table or Column bypass it.
  void BuildReferrerIndex();
  bool has_referrer_index() const { return ref_built_; }

  /// True if no live row's FK cell refers to tuple `t` of `table`.
  bool Unreferenced(int table, TupleId t) const;

  /// The referrers of `parent` over one edge, in ascending id order.
  std::vector<TupleId> Referrers(int child_table, int fk_col,
                                 TupleId parent) const;

  /// Calls fn(row) for every referrer of `parent` over one edge, in
  /// list order (unsorted), without allocating.
  template <typename Fn>
  void ForEachReferrer(int child_table, int fk_col, TupleId parent,
                       Fn&& fn) const {
    assert(ref_built_);
    const RefEdge& e = ref_edges_[static_cast<size_t>(
        ref_col_edge_[static_cast<size_t>(child_table)]
                     [static_cast<size_t>(fk_col)])];
    if (parent < 0 || parent >= static_cast<TupleId>(e.head.size())) return;
    for (int32_t r = e.head[static_cast<size_t>(parent)]; r >= 0;
         r = e.next[static_cast<size_t>(r)]) {
      fn(static_cast<TupleId>(r));
    }
  }

 private:
  explicit Database(Schema schema);

  /// One edge of the referrer index: per parent slot, an intrusive
  /// doubly-linked list of child rows. Only writes to the child's FK
  /// column or row structure touch it (`head` grows from the child
  /// side), and those atoms overlap, so in a parallel group one write
  /// lease owns the edge and needs no lock (DESIGN.md §17).
  struct RefEdge {
    std::vector<int32_t> head;        // parent slot -> first row or -1
    std::vector<int32_t> next, prev;  // child row -> neighbours or -1
  };

  /// Unlinks (link = false) or links the FK cells `mod` writes: its
  /// columns for a cell operation, the whole row for a tuple operation
  /// (`row` is the id a kInsertTuple produced). ApplyOne and Undo
  /// unlink before writing, while the cells hold their old values, and
  /// link after, also when the write failed.
  void Reindex(int table, const Modification& mod, TupleId row, bool link);

  Status ApplyCellOp(const Modification& mod, Table* t,
                     std::vector<Value>* old_values);

  /// Applies one modification without notifying listeners; fills the
  /// pre-images and (for kInsertTuple) the produced id.
  Status ApplyOne(const Modification& mod, std::vector<Value>* old_values,
                  TupleId* inserted);

  Schema schema_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<ModificationListener*> listeners_;
  // Referrer index: edges, table -> column -> edge id (-1: not an FK)
  // and parent table -> ids of the edges referring to it.
  std::vector<RefEdge> ref_edges_;
  std::vector<std::vector<int>> ref_col_edge_;
  std::vector<std::vector<int>> ref_inbound_;
  bool ref_built_ = false;
};

}  // namespace aspect
