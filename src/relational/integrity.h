// Referential-integrity checking. The paper's size-scaler contract
// (Sec. III-A) requires expected tuple counts and no invalid foreign
// keys; this module verifies both, and that no cell is left in the
// temporarily-empty state outside a tweak transaction.
#pragma once

#include "common/status.h"
#include "relational/database.h"

namespace aspect {

/// Options for CheckIntegrity.
struct IntegrityOptions {
  /// If true, kEmpty cells are a violation (the default between tweaks;
  /// tools may disable this mid-transaction).
  bool forbid_empty_cells = true;
  /// If true, FK cells must not be NULL.
  bool forbid_null_foreign_keys = true;
  /// Worker threads for the table-parallel check (DESIGN.md §12):
  /// 1 (default) checks serially, 0 means one per hardware thread.
  /// Tables are read-only during the check, so any table can verify
  /// concurrently with any other; the reported failure is always the
  /// first one in (table, column, tuple) order regardless of thread
  /// count.
  int threads = 1;
};

/// Returns OK iff every FK value in every live tuple refers to a live
/// tuple of the referenced table, subject to `options`, and, once the
/// database's referrer index is built, the index lists exactly those
/// references (a mismatch names the edge and the parent slot).
Status CheckIntegrity(const Database& db,
                      const IntegrityOptions& options = {});

}  // namespace aspect
