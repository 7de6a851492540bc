#include "relational/table.h"

#include <cassert>
#include <utility>

#include "common/string_util.h"

namespace aspect {

#ifndef NDEBUG
namespace {

/// Debug scope asserting that no two threads mutate one table's row
/// structure concurrently (the write-lease invariant of the shared-
/// database parallel pass: a table's row structure has at most one
/// lease holder per group).
class StructureMutationScope {
 public:
  explicit StructureMutationScope(std::atomic<int>* depth) : depth_(depth) {
    const int prev = depth_->fetch_add(1, std::memory_order_acq_rel);
    assert(prev == 0 &&
           "concurrent row-structure mutation: two parallel tasks hold a "
           "write lease on the same table");
    (void)prev;
  }
  ~StructureMutationScope() {
    depth_->fetch_sub(1, std::memory_order_acq_rel);
  }

 private:
  std::atomic<int>* depth_;
};

}  // namespace
#define ASPECT_STRUCTURE_MUTATION_SCOPE() \
  StructureMutationScope structure_scope(&structure_mutators_.depth)
#else
#define ASPECT_STRUCTURE_MUTATION_SCOPE() \
  do {                                    \
  } while (false)
#endif

RowBlock::RowBlock(const TableSpec& spec) {
  cols_.reserve(spec.columns.size());
  for (const ColumnSpec& c : spec.columns) {
    cols_.emplace_back(c.name, c.type, c.ref_table);
  }
}

void RowBlock::Reserve(int64_t n) {
  for (Column& c : cols_) c.Reserve(n);
}

Status RowBlock::PushRow(const std::vector<Value>& values) {
  if (values.size() != cols_.size()) {
    return Status::Invalid(StrFormat(
        "RowBlock: push with %zu values, expected %zu columns",
        values.size(), cols_.size()));
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (!cols_[c].Accepts(values[c])) {
      return Status::Invalid(StrFormat(
          "RowBlock: value %zu has wrong type for column '%s'", c,
          cols_[c].name().c_str()));
    }
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    ASPECT_RETURN_NOT_OK(cols_[c].Append(values[c]));
  }
  ++rows_;
  return Status::OK();
}

Table::Table(const TableSpec& spec) : spec_(spec) {
  columns_.reserve(spec_.columns.size());
  for (const ColumnSpec& c : spec_.columns) {
    columns_.emplace_back(c.name, c.type, c.ref_table);
  }
}

Result<TupleId> Table::Append(const std::vector<Value>& values) {
  if (static_cast<int>(values.size()) != num_columns()) {
    return Status::Invalid(StrFormat(
        "table '%s': append with %zu values, expected %d columns",
        name().c_str(), values.size(), num_columns()));
  }
  // Type-check every value before growing any column, so a mismatch on
  // a later column cannot leave the columns ragged.
  for (int c = 0; c < num_columns(); ++c) {
    if (!columns_[static_cast<size_t>(c)].Accepts(
            values[static_cast<size_t>(c)])) {
      return Status::Invalid(StrFormat(
          "table '%s': append value %d has wrong type for column '%s'",
          name().c_str(), c,
          columns_[static_cast<size_t>(c)].name().c_str()));
    }
  }
  analysis::ProbeWrite(probe_table_, analysis::kProbeRowStructure);
  ASPECT_STRUCTURE_MUTATION_SCOPE();
  for (int c = 0; c < num_columns(); ++c) {
    ASPECT_RETURN_NOT_OK(columns_[static_cast<size_t>(c)].Append(
        values[static_cast<size_t>(c)]));
  }
  live_.push_back(1);
  ++num_live_;
  return static_cast<int64_t>(live_.size()) - 1;
}

Status Table::AppendRows(RowBlock&& block) {
  if (block.num_columns() != num_columns()) {
    return Status::Invalid(StrFormat(
        "table '%s': AppendRows block has %d columns, expected %d",
        name().c_str(), block.num_columns(), num_columns()));
  }
  const int64_t rows = block.num_rows();
  if (rows == 0) return Status::OK();
  analysis::ProbeWrite(probe_table_, analysis::kProbeRowStructure);
  ASPECT_STRUCTURE_MUTATION_SCOPE();
  for (int c = 0; c < num_columns(); ++c) {
    ASPECT_RETURN_NOT_OK(columns_[static_cast<size_t>(c)].AppendBatch(
        std::move(block.cols_[static_cast<size_t>(c)])));
  }
  live_.insert(live_.end(), static_cast<size_t>(rows), uint8_t{1});
  num_live_ += rows;
  return Status::OK();
}

void Table::Reserve(int64_t n) {
  live_.reserve(static_cast<size_t>(n));
  for (Column& c : columns_) c.Reserve(n);
}

Status Table::Delete(TupleId t) {
  if (!IsLive(t)) {
    return Status::KeyError(
        StrFormat("table '%s': tuple %lld is not live", name().c_str(),
                  static_cast<long long>(t)));
  }
  analysis::ProbeWrite(probe_table_, analysis::kProbeRowStructure);
  ASPECT_STRUCTURE_MUTATION_SCOPE();
  live_[static_cast<size_t>(t)] = 0;
  --num_live_;
  return Status::OK();
}

Status Table::Undelete(TupleId t) {
  if (t < 0 || t >= NumSlots()) {
    return Status::KeyError(
        StrFormat("table '%s': tuple %lld out of range", name().c_str(),
                  static_cast<long long>(t)));
  }
  if (live_[static_cast<size_t>(t)]) {
    return Status::Invalid(
        StrFormat("table '%s': tuple %lld is not tombstoned",
                  name().c_str(), static_cast<long long>(t)));
  }
  analysis::ProbeWrite(probe_table_, analysis::kProbeRowStructure);
  ASPECT_STRUCTURE_MUTATION_SCOPE();
  live_[static_cast<size_t>(t)] = 1;
  ++num_live_;
  return Status::OK();
}

Status Table::PopBack() {
  if (NumSlots() == 0) {
    return Status::Invalid(
        StrFormat("table '%s': PopBack on empty table", name().c_str()));
  }
  analysis::ProbeWrite(probe_table_, analysis::kProbeRowStructure);
  ASPECT_STRUCTURE_MUTATION_SCOPE();
  if (live_.back()) --num_live_;
  live_.pop_back();
  for (Column& c : columns_) c.PopBack();
  return Status::OK();
}

std::vector<TupleId> Table::LiveTuples() const {
  std::vector<TupleId> out;
  out.reserve(static_cast<size_t>(num_live_));
  ForEachLive([&](TupleId t) { out.push_back(t); });
  return out;
}

std::vector<Value> Table::GetRow(TupleId t) const {
  std::vector<Value> row;
  row.reserve(static_cast<size_t>(num_columns()));
  for (int c = 0; c < num_columns(); ++c) {
    row.push_back(columns_[static_cast<size_t>(c)].Get(t));
  }
  return row;
}

}  // namespace aspect
