// Snapshot generator: grows a blueprint dataset over a simulated
// timeline and materializes its prefix snapshots D1 < D2 < ... < D6,
// which the paper's evaluation takes from the growing dataset (Sec. VI-A).
//
// Growth is append-only and FK values always point at tuples that
// already exist in the same snapshot band, so every snapshot is a
// prefix of the next and is FK-closed; ids agree across snapshots.
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/sharding.h"
#include "relational/database.h"
#include "workload/blueprint.h"

namespace aspect {

/// The result of growing one blueprint: the full dataset plus the
/// per-snapshot per-table size boundaries.
class SnapshotSet {
 public:
  SnapshotSet(Schema schema, std::unique_ptr<Database> full,
              std::vector<std::vector<int64_t>> sizes);

  const Schema& schema() const { return schema_; }
  int num_snapshots() const {
    return static_cast<int>(sizes_.empty() ? 0 : sizes_[0].size());
  }

  /// The fully grown dataset (equals the last snapshot).
  const Database& full() const { return *full_; }

  /// Live tuples of table `t` in snapshot `s` (both the snapshot index
  /// and size lookups are 1-based for snapshots, 0-based for tables).
  int64_t TableSize(int table, int snapshot) const {
    return sizes_[static_cast<size_t>(table)]
                 [static_cast<size_t>(snapshot - 1)];
  }

  /// Per-table sizes of snapshot `s`, in schema table order.
  std::vector<int64_t> SnapshotSizes(int snapshot) const;

  /// Materializes snapshot `s` (1-based) as an independent Database.
  /// The row copies shard across `gen.threads` workers (the full
  /// dataset is read-only here); the result does not depend on it.
  Result<std::unique_ptr<Database>> Materialize(
      int snapshot, const GenOptions& gen = {}) const;

 private:
  Schema schema_;
  std::unique_ptr<Database> full_;
  // sizes_[table][snapshot-1] = table size at that snapshot.
  std::vector<std::vector<int64_t>> sizes_;
};

/// Grows `blueprint` deterministically from `seed`. Each (snapshot,
/// table) growth band generates through the sharded columnar pipeline
/// (relational/rowgen.h, DESIGN.md §12): parent tables finish their
/// band before children start, so FK domains are per-band constants
/// and the band's rows shard across `gen.threads` workers with private
/// RNG streams. The produced dataset is bitwise identical at every
/// thread count.
Result<SnapshotSet> GenerateDataset(const DatasetBlueprint& blueprint,
                                    uint64_t seed,
                                    const GenOptions& gen = {});

}  // namespace aspect
