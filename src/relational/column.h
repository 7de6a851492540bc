// Column: typed columnar storage with per-cell state.
//
// A cell is in one of three states:
//   - kValue: holds a value of the column's type;
//   - kNull:  an SQL NULL;
//   - kEmpty: temporarily erased by the ASPECT deleteValues operation and
//             awaiting re-fill by insertValues (Sec. III-D of the paper).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/probe.h"
#include "common/result.h"
#include "common/status.h"
#include "relational/value.h"

namespace aspect {

/// Per-cell state marker (see file comment).
enum class CellState : uint8_t { kValue = 0, kNull = 1, kEmpty = 2 };

/// One column of a Table. Rows are addressed by dense row index; the
/// enclosing Table maps tuple ids onto row indexes (they coincide).
class Column {
 public:
  Column(std::string name, ColumnType type, std::string ref_table = "");

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  bool is_foreign_key() const { return type_ == ColumnType::kForeignKey; }
  /// Name of the referenced table; empty unless is_foreign_key().
  const std::string& ref_table() const { return ref_table_; }

  int64_t size() const { return static_cast<int64_t>(state_.size()); }

  /// Probe identity for the scope-conformance analyzer: the enclosing
  /// table's schema index and this column's index (analysis/probe.h).
  /// Unset ids (-1, the default) disable the probes; Table::SetProbeTable
  /// assigns them when the Database is built.
  void SetProbeId(int table, int column) {
    probe_table_ = table;
    probe_col_ = column;
  }

  CellState state(int64_t row) const {
    analysis::ProbeRead(probe_table_, probe_col_, row);
    return state_[static_cast<size_t>(row)];
  }
  bool IsValue(int64_t row) const { return state(row) == CellState::kValue; }
  bool IsEmpty(int64_t row) const { return state(row) == CellState::kEmpty; }
  bool IsNull(int64_t row) const { return state(row) == CellState::kNull; }

  /// Reads the cell as a dynamically typed Value (null/empty -> Null).
  Value Get(int64_t row) const;

  /// Fast paths for the hot types. Preconditions: matching type and a
  /// kValue cell state (checked only by assert).
  int64_t GetInt(int64_t row) const {
    analysis::ProbeRead(probe_table_, probe_col_, row);
    return ints_[static_cast<size_t>(row)];
  }
  double GetDouble(int64_t row) const {
    analysis::ProbeRead(probe_table_, probe_col_, row);
    return doubles_[static_cast<size_t>(row)];
  }
  const std::string& GetString(int64_t row) const {
    analysis::ProbeRead(probe_table_, probe_col_, row);
    return strings_[static_cast<size_t>(row)];
  }

  /// True when `v` can be stored in this column: null always, else the
  /// value's dynamic type must match the column type. Callers that
  /// write several columns check every value with this first so a late
  /// type mismatch cannot leave a row half-written.
  bool Accepts(const Value& v) const;

  /// Writes the cell; a null Value sets the kNull state. Returns
  /// Invalid if the value's dynamic type does not match the column.
  Status Set(int64_t row, const Value& v);

  /// Broadcast write: stores the same value into every listed row with
  /// a single type dispatch (the columnar fast path behind multi-tuple
  /// cell modifications). Returns Invalid on a type mismatch, in which
  /// case no row is written.
  Status SetBroadcast(const std::vector<int64_t>& rows, const Value& v);

  /// Pre-allocates capacity for `n` total rows.
  void Reserve(int64_t n);

  /// Marks the cell kEmpty (ASPECT deleteValues semantics).
  void Erase(int64_t row);

  /// Appends one cell (growing the column by one row).
  Status Append(const Value& v);

  /// Removes the last row (undo of Append; requires size() > 0).
  void PopBack();

  /// Fast typed setters.
  void SetInt(int64_t row, int64_t v);
  void SetDouble(int64_t row, double v);

  /// Splices the entirety of `src` onto the end of this column — one
  /// vector concatenation per storage array instead of a per-cell
  /// dispatch. `src` is consumed (strings are moved). Returns Invalid
  /// on a column-type mismatch, in which case nothing is appended. The
  /// bulk columnar construction path (Table::AppendRows) is built on
  /// this; no per-cell probes fire (the rows did not exist before the
  /// splice, so there is no prior state to attribute).
  Status AppendBatch(Column&& src);

 private:
  std::string name_;
  ColumnType type_;
  std::string ref_table_;

  // Exactly one of these is populated, chosen by type_ (int64 and
  // foreign keys share ints_).
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<CellState> state_;

  // Probe identity (see SetProbeId); copied with the column so moved
  // storage keeps reporting the correct atom.
  int probe_table_ = -1;
  int probe_col_ = -1;
};

}  // namespace aspect
