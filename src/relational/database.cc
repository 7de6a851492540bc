#include "relational/database.h"

#include <algorithm>

#include "analysis/probe.h"
#include "common/string_util.h"

namespace aspect {
namespace {

/// Emits the semantic write footprint of an applied modification for
/// the scope-conformance analyzer: cell operations write their (table,
/// column) atoms; tuple insert/delete writes the table's row structure.
/// The physical per-column probes inside ApplyOne are suppressed (a
/// tuple insert physically appends to every column, but semantically
/// the tool changed the row set, not other tools' cell values — the
/// directional disturbance rules of analysis/access_scope.h account for
/// the new rows' cells), so this is the only write record an applied
/// modification leaves.
void ProbeModification(const Schema& schema, const Modification& mod) {
  if (!analysis::ProbeInstalled()) return;
  const int t = schema.TableIndex(mod.table);
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      // Per-tuple attribution: the interval footprint and the row-range
      // write leases need to know which rows each cell atom touched.
      for (const int c : mod.cols) {
        for (const TupleId tuple : mod.tuples) {
          analysis::ProbeWrite(t, c, tuple);
        }
      }
      break;
    case OpKind::kInsertTuple:
    case OpKind::kDeleteTuple:
      analysis::ProbeWrite(t, analysis::kProbeRowStructure);
      break;
  }
}

/// The calling thread's installed listener route (null = notify the
/// database's registered listeners). Thread-local by construction, so
/// shared-mode tasks route without synchronisation.
thread_local const std::vector<ModificationListener*>* tls_route = nullptr;

}  // namespace

Database::ScopedListenerRoute::ScopedListenerRoute(
    const std::vector<ModificationListener*>* route)
    : prev_(tls_route) {
  tls_route = route;
}

Database::ScopedListenerRoute::~ScopedListenerRoute() { tls_route = prev_; }

const char* OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kDeleteValues:
      return "deleteValues";
    case OpKind::kInsertValues:
      return "insertValues";
    case OpKind::kReplaceValues:
      return "replaceValues";
    case OpKind::kInsertTuple:
      return "insertTuple";
    case OpKind::kDeleteTuple:
      return "deleteTuple";
  }
  return "?";
}

Modification Modification::DeleteValues(std::string table,
                                        std::vector<TupleId> tuples,
                                        std::vector<int> cols) {
  Modification m;
  m.kind = OpKind::kDeleteValues;
  m.table = std::move(table);
  m.tuples = std::move(tuples);
  m.cols = std::move(cols);
  return m;
}

Modification Modification::InsertValues(std::string table,
                                        std::vector<TupleId> tuples,
                                        std::vector<int> cols,
                                        std::vector<Value> values) {
  Modification m;
  m.kind = OpKind::kInsertValues;
  m.table = std::move(table);
  m.tuples = std::move(tuples);
  m.cols = std::move(cols);
  m.values = std::move(values);
  return m;
}

Modification Modification::ReplaceValues(std::string table,
                                         std::vector<TupleId> tuples,
                                         std::vector<int> cols,
                                         std::vector<Value> values) {
  Modification m;
  m.kind = OpKind::kReplaceValues;
  m.table = std::move(table);
  m.tuples = std::move(tuples);
  m.cols = std::move(cols);
  m.values = std::move(values);
  return m;
}

Modification Modification::InsertTuple(std::string table,
                                       std::vector<Value> row) {
  Modification m;
  m.kind = OpKind::kInsertTuple;
  m.table = std::move(table);
  m.values = std::move(row);
  return m;
}

Modification Modification::DeleteTuple(std::string table, TupleId tuple) {
  Modification m;
  m.kind = OpKind::kDeleteTuple;
  m.table = std::move(table);
  m.tuples = {tuple};
  return m;
}

Database::Database(Schema schema) : schema_(std::move(schema)) {
  tables_.reserve(schema_.tables.size());
  for (const TableSpec& spec : schema_.tables) {
    tables_.push_back(std::make_unique<Table>(spec));
    tables_.back()->SetProbeTable(static_cast<int>(tables_.size()) - 1);
  }
}

Result<std::unique_ptr<Database>> Database::Create(const Schema& schema) {
  ASPECT_RETURN_NOT_OK(schema.Validate());
  return std::unique_ptr<Database>(new Database(schema));
}

const Table* Database::FindTable(const std::string& name) const {
  const int i = schema_.TableIndex(name);
  return i < 0 ? nullptr : tables_[static_cast<size_t>(i)].get();
}

Table* Database::FindTable(const std::string& name) {
  const int i = schema_.TableIndex(name);
  return i < 0 ? nullptr : tables_[static_cast<size_t>(i)].get();
}

int64_t Database::TotalTuples() const {
  int64_t total = 0;
  for (const auto& t : tables_) total += t->NumTuples();
  return total;
}

void Database::AddListener(ModificationListener* listener) {
  listeners_.push_back(listener);
}

void Database::RemoveListener(ModificationListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

Status Database::ApplyCellOp(const Modification& mod, Table* t,
                             std::vector<Value>* old_values) {
  // Validate indices and cell-state preconditions first so the
  // operation is all-or-nothing.
  for (const int c : mod.cols) {
    if (c < 0 || c >= t->num_columns()) {
      return Status::OutOfRange(StrFormat("table '%s': column %d",
                                          mod.table.c_str(), c));
    }
  }
  if (mod.kind != OpKind::kDeleteValues) {
    if (mod.values.size() != mod.cols.size()) {
      return Status::Invalid(
          StrFormat("%s on '%s': %zu values for %zu columns",
                    OpKindToString(mod.kind), mod.table.c_str(),
                    mod.values.size(), mod.cols.size()));
    }
    // Type-check up front so the operation stays all-or-nothing.
    for (size_t j = 0; j < mod.cols.size(); ++j) {
      if (!t->column(mod.cols[j]).Accepts(mod.values[j])) {
        return Status::Invalid(StrFormat(
            "%s on '%s': value %zu has wrong type for column %d",
            OpKindToString(mod.kind), mod.table.c_str(), j, mod.cols[j]));
      }
    }
  }
  for (const TupleId tid : mod.tuples) {
    if (!t->IsLive(tid)) {
      return Status::KeyError(StrFormat("table '%s': tuple %lld not live",
                                        mod.table.c_str(),
                                        static_cast<long long>(tid)));
    }
    for (size_t j = 0; j < mod.cols.size(); ++j) {
      const Column& col = t->column(mod.cols[j]);
      const bool empty = col.IsEmpty(tid);
      switch (mod.kind) {
        case OpKind::kDeleteValues:
          if (empty) {
            return Status::Invalid(StrFormat(
                "deleteValues on '%s': cell (%lld, %d) already empty",
                mod.table.c_str(), static_cast<long long>(tid),
                mod.cols[j]));
          }
          break;
        case OpKind::kInsertValues:
          if (!empty) {
            return Status::Invalid(StrFormat(
                "insertValues on '%s': cell (%lld, %d) is not empty",
                mod.table.c_str(), static_cast<long long>(tid),
                mod.cols[j]));
          }
          break;
        case OpKind::kReplaceValues:
          if (empty) {
            return Status::Invalid(StrFormat(
                "replaceValues on '%s': cell (%lld, %d) is empty",
                mod.table.c_str(), static_cast<long long>(tid),
                mod.cols[j]));
          }
          break;
        default:
          return Status::Internal("not a cell op");
      }
    }
  }
  // Capture pre-images, then apply. Writes go column-major: `values`
  // is broadcast (values[j] lands in cols[j] for every tuple), so one
  // type dispatch per column covers the whole tuple span.
  old_values->reserve(mod.tuples.size() * mod.cols.size());
  for (const TupleId tid : mod.tuples) {
    for (const int c : mod.cols) {
      old_values->push_back(t->column(c).Get(tid));
    }
  }
  for (size_t j = 0; j < mod.cols.size(); ++j) {
    Column& col = t->column(mod.cols[j]);
    if (mod.kind == OpKind::kDeleteValues) {
      for (const TupleId tid : mod.tuples) col.Erase(tid);
    } else {
      ASPECT_RETURN_NOT_OK(col.SetBroadcast(mod.tuples, mod.values[j]));
    }
  }
  return Status::OK();
}

Status Database::ApplyOne(const Modification& mod,
                          std::vector<Value>* old_values,
                          TupleId* inserted) {
  Table* t = FindTable(mod.table);
  if (t == nullptr) {
    return Status::KeyError(StrFormat("no table '%s'", mod.table.c_str()));
  }
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      ASPECT_RETURN_NOT_OK(ApplyCellOp(mod, t, old_values));
      break;
    case OpKind::kInsertTuple: {
      ASPECT_ASSIGN_OR_RETURN(*inserted, t->Append(mod.values));
      break;
    }
    case OpKind::kDeleteTuple: {
      if (mod.tuples.size() != 1) {
        return Status::Invalid("deleteTuple expects exactly one tuple id");
      }
      if (!t->IsLive(mod.tuples[0])) {
        return Status::KeyError(
            StrFormat("table '%s': tuple %lld not live", mod.table.c_str(),
                      static_cast<long long>(mod.tuples[0])));
      }
      *old_values = t->GetRow(mod.tuples[0]);
      ASPECT_RETURN_NOT_OK(t->Delete(mod.tuples[0]));
      break;
    }
  }
  return Status::OK();
}

Status Database::Apply(const Modification& mod, TupleId* new_tuple) {
  std::vector<Value> old_values;
  TupleId inserted = kInvalidTuple;
  {
    // The probes inside ApplyOne (pre-image capture, physical column
    // writes) and the listeners' statistics reads are framework
    // machinery, not the proposing tool's own access; the semantic
    // footprint is emitted below instead.
    analysis::ScopedProbeSuppress suppress;
    ASPECT_RETURN_NOT_OK(ApplyOne(mod, &old_values, &inserted));
    if (new_tuple != nullptr) *new_tuple = inserted;
    const std::vector<ModificationListener*>& targets =
        tls_route != nullptr ? *tls_route : listeners_;
    for (ModificationListener* l : targets) {
      l->OnApplied(mod, old_values, inserted);
    }
  }
  ProbeModification(schema_, mod);
  return Status::OK();
}

Status Database::ApplyBatch(std::span<const Modification> mods,
                            std::vector<TupleId>* new_tuples) {
  if (new_tuples != nullptr) {
    new_tuples->assign(mods.size(), kInvalidTuple);
  }
  if (mods.empty()) return Status::OK();
  std::vector<std::vector<Value>> old_values(mods.size());
  std::vector<TupleId> inserted(mods.size(), kInvalidTuple);
  {
    // Same attribution rule as Apply: the physical machinery probes
    // are suppressed and the semantic footprint is emitted below, only
    // for a batch that actually applied.
    analysis::ScopedProbeSuppress suppress;
    size_t done = 0;
    Status st = Status::OK();
    for (; done < mods.size(); ++done) {
      st = ApplyOne(mods[done], &old_values[done], &inserted[done]);
      if (!st.ok()) break;
    }
    if (!st.ok()) {
      // All-or-nothing: revert the applied prefix in reverse order (so
      // a kInsertTuple always reverts the table's last slot). The
      // failing modification itself needs no revert: ApplyOne is
      // all-or-nothing per modification — cell ops and Table::Append
      // both validate types and cell states before writing anything.
      for (size_t i = done; i-- > 0;) {
        const Status undo = Undo(mods[i], old_values[i], inserted[i]);
        if (!undo.ok()) return undo;  // state corrupt; surface loudly
      }
      return st;
    }
    if (new_tuples != nullptr) *new_tuples = inserted;
    const std::vector<ModificationListener*>& targets =
        tls_route != nullptr ? *tls_route : listeners_;
    for (ModificationListener* l : targets) {
      l->OnAppliedBatch(mods, old_values, inserted);
    }
  }
  for (const Modification& mod : mods) ProbeModification(schema_, mod);
  return Status::OK();
}

void ModificationListener::OnAppliedBatch(
    std::span<const Modification> mods,
    std::span<const std::vector<Value>> old_values,
    std::span<const TupleId> new_tuples) {
  for (size_t i = 0; i < mods.size(); ++i) {
    OnApplied(mods[i], old_values[i], new_tuples[i]);
  }
}

Status Database::Undo(const Modification& mod,
                      const std::vector<Value>& old_values,
                      TupleId new_tuple) {
  // Reverting is framework machinery (rollback, batch-failure repair):
  // it must not be attributed to whatever tool's probe is installed.
  analysis::ScopedProbeSuppress suppress;
  Table* t = FindTable(mod.table);
  if (t == nullptr) {
    return Status::KeyError(StrFormat("no table '%s'", mod.table.c_str()));
  }
  switch (mod.kind) {
    case OpKind::kInsertValues:
      // The cells were kEmpty before the insert: erase them again.
      for (const TupleId tid : mod.tuples) {
        for (const int c : mod.cols) {
          t->column(c).Erase(tid);
        }
      }
      return Status::OK();
    case OpKind::kDeleteValues:
    case OpKind::kReplaceValues: {
      // Restore the captured pre-images (row-major tuples x cols). The
      // cells were non-empty before, so a null pre-image means kNull.
      if (old_values.size() != mod.tuples.size() * mod.cols.size()) {
        return Status::Internal(StrFormat(
            "undo %s on '%s': %zu pre-images for %zu cells",
            OpKindToString(mod.kind), mod.table.c_str(), old_values.size(),
            mod.tuples.size() * mod.cols.size()));
      }
      size_t k = 0;
      for (const TupleId tid : mod.tuples) {
        for (const int c : mod.cols) {
          ASPECT_RETURN_NOT_OK(t->column(c).Set(tid, old_values[k]));
          ++k;
        }
      }
      return Status::OK();
    }
    case OpKind::kInsertTuple:
      if (new_tuple != t->NumSlots() - 1) {
        return Status::Internal(StrFormat(
            "undo insertTuple on '%s': tuple %lld is not the last slot "
            "%lld (entries must be undone in reverse order)",
            mod.table.c_str(), static_cast<long long>(new_tuple),
            static_cast<long long>(t->NumSlots() - 1)));
      }
      return t->PopBack();
    case OpKind::kDeleteTuple:
      // Delete only tombstones; the slot's values are still in place.
      return t->Undelete(mod.tuples[0]);
  }
  return Status::Internal("unknown modification kind");
}

std::unique_ptr<Database> Database::Clone() const {
  std::unique_ptr<Database> copy(new Database(schema_));
  for (size_t i = 0; i < tables_.size(); ++i) {
    *copy->tables_[i] = *tables_[i];
  }
  return copy;
}

}  // namespace aspect
