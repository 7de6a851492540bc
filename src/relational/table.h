// Table: columnar tuple storage with stable tuple ids.
//
// Tuple ids are dense row indexes that remain stable for the lifetime of
// the table: deletion tombstones a row instead of moving others, so the
// per-tuple statistics that tweaking tools maintain stay valid across
// modifications. Appends allocate fresh ids at the end.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/probe.h"
#include "common/result.h"
#include "common/status.h"
#include "relational/column.h"
#include "relational/schema.h"

namespace aspect {

using TupleId = int64_t;
inline constexpr TupleId kInvalidTuple = -1;

/// Staging area for bulk columnar row construction (DESIGN.md §12).
/// A RowBlock owns private probe-less columns shaped like a TableSpec;
/// a producer (typically one generation shard on its own thread) fills
/// it with PushRow, then Table::AppendRows splices the whole block onto
/// the table with one vector concatenation per column — no per-tuple
/// listener, modlog, or probe overhead. Blocks built concurrently are
/// spliced serially in shard order, which is what keeps the sharded
/// generators bitwise-identical at every thread count.
class RowBlock {
 public:
  explicit RowBlock(const TableSpec& spec);

  /// Pre-allocates capacity for `n` rows in every staging column.
  void Reserve(int64_t n);

  /// Appends one row. Every value is type-checked before any column
  /// grows, so a mismatch cannot leave the block ragged.
  Status PushRow(const std::vector<Value>& values);

  int64_t num_rows() const { return rows_; }
  int num_columns() const { return static_cast<int>(cols_.size()); }

 private:
  friend class Table;
  std::vector<Column> cols_;
  int64_t rows_ = 0;
};

class Table {
 public:
  explicit Table(const TableSpec& spec);

  const std::string& name() const { return spec_.name; }
  const TableSpec& spec() const { return spec_; }

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }
  Column& column(int i) { return columns_[static_cast<size_t>(i)]; }
  int ColumnIndex(const std::string& col_name) const {
    return spec_.ColumnIndex(col_name);
  }

  /// Assigns this table's schema index as the probe identity for the
  /// scope-conformance analyzer (analysis/probe.h) and propagates it to
  /// every column. Row-structure accesses (liveness, slot counts, tuple
  /// inserts/deletes) probe as (table, kProbeRowStructure); cell
  /// accesses probe per column. Database's constructor calls this.
  void SetProbeTable(int table) {
    probe_table_ = table;
    for (int c = 0; c < num_columns(); ++c) {
      columns_[static_cast<size_t>(c)].SetProbeId(table, c);
    }
  }

  /// Number of live (non-tombstoned) tuples — this is |T| everywhere in
  /// the paper's formulas.
  int64_t NumTuples() const {
    analysis::ProbeRead(probe_table_, analysis::kProbeRowStructure);
    return num_live_;
  }
  /// Number of row slots including tombstones; tuple ids range over
  /// [0, NumSlots()).
  int64_t NumSlots() const {
    analysis::ProbeRead(probe_table_, analysis::kProbeRowStructure);
    return static_cast<int64_t>(live_.size());
  }

  bool IsLive(TupleId t) const {
    analysis::ProbeRead(probe_table_, analysis::kProbeRowStructure);
    return t >= 0 && t < static_cast<int64_t>(live_.size()) &&
           live_[static_cast<size_t>(t)];
  }

  /// Appends a tuple with the given per-column values; returns its id.
  Result<TupleId> Append(const std::vector<Value>& values);

  /// Splices a staged RowBlock onto the end of the table: one row-
  /// structure probe, one structural-mutation scope, and one vector
  /// concatenation per column for the whole block (the bulk columnar
  /// construction path; see RowBlock). The block must have been built
  /// from this table's spec — a column-count mismatch is Invalid and a
  /// per-column type mismatch fails before any storage is touched.
  /// `block` is consumed. New tuples get consecutive ids at the end and
  /// are live; listeners are NOT notified (generation-time construction
  /// defers integrity to relational/integrity).
  Status AppendRows(RowBlock&& block);

  /// Pre-allocates capacity for `n` total slots across all columns.
  void Reserve(int64_t n);

  /// Tombstones a live tuple.
  Status Delete(TupleId t);

  /// Reverts a Delete: makes a tombstoned slot live again. The slot's
  /// cell values are untouched by Delete, so this restores the tuple
  /// exactly (the undo-log rollback fast path).
  Status Undelete(TupleId t);

  /// Reverts the most recent Append: removes the last slot entirely
  /// (live or tombstoned). The undo-log applies entries in reverse, so
  /// the tuple being reverted is always the last slot.
  Status PopBack();

  /// Iterates live tuple ids in increasing order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    analysis::ProbeRead(probe_table_, analysis::kProbeRowStructure);
    const TupleId slots = static_cast<TupleId>(live_.size());
    for (TupleId t = 0; t < slots; ++t) {
      if (live_[static_cast<size_t>(t)]) fn(t);
    }
  }

  /// Collects the ids of all live tuples.
  std::vector<TupleId> LiveTuples() const;

  /// Reads a full row (null for empty cells).
  std::vector<Value> GetRow(TupleId t) const;

 private:
#ifndef NDEBUG
  /// Debug-only mutual-exclusion witness for row-structure mutations
  /// (Append / Delete / Undelete / PopBack). Slot allocation is sharded
  /// per table by construction — each Table owns its own free-slot
  /// frontier (live_ tail), there is no database-global allocator — so
  /// the shared-database parallel pass is contention-free as long as at
  /// most one lease holder mutates a given table's row structure. The
  /// witness asserts exactly that: two threads inside a structural
  /// mutation of the same table at once trip the counter. Copies and
  /// moves reset the witness (the new storage has no mutator), keeping
  /// Table's implicit copy/move assignable for Database::Clone.
  struct MutationWitness {
    std::atomic<int> depth{0};
    MutationWitness() = default;
    MutationWitness(const MutationWitness&) noexcept {}
    MutationWitness(MutationWitness&&) noexcept {}
    MutationWitness& operator=(const MutationWitness&) noexcept {
      return *this;
    }
    MutationWitness& operator=(MutationWitness&&) noexcept { return *this; }
  };
  mutable MutationWitness structure_mutators_;
#endif

  TableSpec spec_;
  std::vector<Column> columns_;
  std::vector<uint8_t> live_;
  int64_t num_live_ = 0;
  // Probe identity (see SetProbeTable); copied with the table so merged
  // storage keeps reporting the correct atom.
  int probe_table_ = -1;
};

}  // namespace aspect
