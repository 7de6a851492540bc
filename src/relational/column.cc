#include "relational/column.h"

#include <cassert>
#include <iterator>

#include "common/string_util.h"

namespace aspect {

Column::Column(std::string name, ColumnType type, std::string ref_table)
    : name_(std::move(name)),
      type_(type),
      ref_table_(std::move(ref_table)) {
  assert(type_ == ColumnType::kForeignKey || ref_table_.empty());
}

Value Column::Get(int64_t row) const {
  analysis::ProbeRead(probe_table_, probe_col_, row);
  const size_t r = static_cast<size_t>(row);
  if (state_[r] != CellState::kValue) return Value::Null();
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey:
      return Value(ints_[r]);
    case ColumnType::kDouble:
      return Value(doubles_[r]);
    case ColumnType::kString:
      return Value(strings_[r]);
  }
  return Value::Null();
}

bool Column::Accepts(const Value& v) const {
  if (v.is_null()) return true;
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey:
      return v.is_int64();
    case ColumnType::kDouble:
      return v.is_double();
    case ColumnType::kString:
      return v.is_string();
  }
  return false;
}

Status Column::Set(int64_t row, const Value& v) {
  const size_t r = static_cast<size_t>(row);
  if (v.is_null()) {
    analysis::ProbeWrite(probe_table_, probe_col_, row);
    state_[r] = CellState::kNull;
    return Status::OK();
  }
  analysis::ProbeWrite(probe_table_, probe_col_, row);
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey:
      if (!v.is_int64()) {
        return Status::Invalid(StrFormat(
            "column '%s' expects int64, got %s", name_.c_str(),
            v.ToString().c_str()));
      }
      ints_[r] = v.int64();
      break;
    case ColumnType::kDouble:
      if (!v.is_double()) {
        return Status::Invalid(StrFormat(
            "column '%s' expects double, got %s", name_.c_str(),
            v.ToString().c_str()));
      }
      doubles_[r] = v.dbl();
      break;
    case ColumnType::kString:
      if (!v.is_string()) {
        return Status::Invalid(StrFormat(
            "column '%s' expects string, got %s", name_.c_str(),
            v.ToString().c_str()));
      }
      strings_[r] = v.str();
      break;
  }
  state_[r] = CellState::kValue;
  return Status::OK();
}

Status Column::SetBroadcast(const std::vector<int64_t>& rows,
                            const Value& v) {
  // Per-row attribution only when a sink is listening: the common case
  // (no probes) keeps the single dispatch and zero per-row overhead.
  if (analysis::ProbeInstalled()) {
    for (const int64_t row : rows) {
      analysis::ProbeWrite(probe_table_, probe_col_, row);
    }
  }
  if (v.is_null()) {
    for (const int64_t row : rows) {
      state_[static_cast<size_t>(row)] = CellState::kNull;
    }
    return Status::OK();
  }
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey: {
      if (!v.is_int64()) {
        return Status::Invalid(StrFormat(
            "column '%s' expects int64, got %s", name_.c_str(),
            v.ToString().c_str()));
      }
      const int64_t x = v.int64();
      for (const int64_t row : rows) {
        ints_[static_cast<size_t>(row)] = x;
        state_[static_cast<size_t>(row)] = CellState::kValue;
      }
      break;
    }
    case ColumnType::kDouble: {
      if (!v.is_double()) {
        return Status::Invalid(StrFormat(
            "column '%s' expects double, got %s", name_.c_str(),
            v.ToString().c_str()));
      }
      const double x = v.dbl();
      for (const int64_t row : rows) {
        doubles_[static_cast<size_t>(row)] = x;
        state_[static_cast<size_t>(row)] = CellState::kValue;
      }
      break;
    }
    case ColumnType::kString: {
      if (!v.is_string()) {
        return Status::Invalid(StrFormat(
            "column '%s' expects string, got %s", name_.c_str(),
            v.ToString().c_str()));
      }
      for (const int64_t row : rows) {
        strings_[static_cast<size_t>(row)] = v.str();
        state_[static_cast<size_t>(row)] = CellState::kValue;
      }
      break;
    }
  }
  return Status::OK();
}

void Column::Reserve(int64_t n) {
  const size_t cap = static_cast<size_t>(n);
  state_.reserve(cap);
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey:
      ints_.reserve(cap);
      break;
    case ColumnType::kDouble:
      doubles_.reserve(cap);
      break;
    case ColumnType::kString:
      strings_.reserve(cap);
      break;
  }
}

void Column::Erase(int64_t row) {
  analysis::ProbeWrite(probe_table_, probe_col_, row);
  state_[static_cast<size_t>(row)] = CellState::kEmpty;
}

Status Column::Append(const Value& v) {
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey:
      ints_.push_back(0);
      break;
    case ColumnType::kDouble:
      doubles_.push_back(0);
      break;
    case ColumnType::kString:
      strings_.emplace_back();
      break;
  }
  state_.push_back(CellState::kNull);
  return Set(size() - 1, v);
}

void Column::PopBack() {
  analysis::ProbeWrite(probe_table_, probe_col_, size() - 1);
  assert(!state_.empty());
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey:
      ints_.pop_back();
      break;
    case ColumnType::kDouble:
      doubles_.pop_back();
      break;
    case ColumnType::kString:
      strings_.pop_back();
      break;
  }
  state_.pop_back();
}

void Column::SetInt(int64_t row, int64_t v) {
  analysis::ProbeWrite(probe_table_, probe_col_, row);
  assert(type_ == ColumnType::kInt64 || type_ == ColumnType::kForeignKey);
  ints_[static_cast<size_t>(row)] = v;
  state_[static_cast<size_t>(row)] = CellState::kValue;
}

void Column::SetDouble(int64_t row, double v) {
  analysis::ProbeWrite(probe_table_, probe_col_, row);
  assert(type_ == ColumnType::kDouble);
  doubles_[static_cast<size_t>(row)] = v;
  state_[static_cast<size_t>(row)] = CellState::kValue;
}

Status Column::AppendBatch(Column&& src) {
  if (type_ != src.type_) {
    return Status::Invalid(StrFormat(
        "AppendBatch: column '%s' type mismatch with staged column '%s'",
        name_.c_str(), src.name_.c_str()));
  }
  switch (type_) {
    case ColumnType::kInt64:
    case ColumnType::kForeignKey:
      ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
      break;
    case ColumnType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin(),
                      src.doubles_.end());
      break;
    case ColumnType::kString:
      strings_.insert(strings_.end(),
                      std::make_move_iterator(src.strings_.begin()),
                      std::make_move_iterator(src.strings_.end()));
      break;
  }
  state_.insert(state_.end(), src.state_.begin(), src.state_.end());
  return Status::OK();
}

}  // namespace aspect
