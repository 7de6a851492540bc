#include "relational/database.h"

#include <algorithm>
#include <cassert>
#include <limits>

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
      if (mod.tuples.empty()) break;
      for (const int c : mod.cols) analysis::ProbeWrite(t, c);
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
  const int ti = schema_.TableIndex(mod.table);
  if (ti < 0) {
    return Status::KeyError(StrFormat("no table '%s'", mod.table.c_str()));
  }
  Table* t = tables_[static_cast<size_t>(ti)].get();
  Reindex(ti, mod, kInvalidTuple, /*link=*/false);
  const Status st = [&]() -> Status {
    switch (mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues:
        return ApplyCellOp(mod, t, old_values);
      case OpKind::kInsertTuple: {
        ASPECT_ASSIGN_OR_RETURN(*inserted, t->Append(mod.values));
        return Status::OK();
      }
      case OpKind::kDeleteTuple:
        if (mod.tuples.size() != 1) {
          return Status::Invalid("deleteTuple expects exactly one tuple id");
        }
        if (!t->IsLive(mod.tuples[0])) {
          return Status::KeyError(
              StrFormat("table '%s': tuple %lld not live", mod.table.c_str(),
                        static_cast<long long>(mod.tuples[0])));
        }
        *old_values = t->GetRow(mod.tuples[0]);
        return t->Delete(mod.tuples[0]);
    }
    return Status::Internal("unknown modification kind");
  }();
  Reindex(ti, mod, *inserted, /*link=*/true);
  return st;
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
  const int ti = schema_.TableIndex(mod.table);
  if (ti < 0) {
    return Status::KeyError(StrFormat("no table '%s'", mod.table.c_str()));
  }
  Table* t = tables_[static_cast<size_t>(ti)].get();
  Reindex(ti, mod, new_tuple, /*link=*/false);
  const Status st = [&]() -> Status {
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
  }();
  Reindex(ti, mod, new_tuple, /*link=*/true);
  return st;
}

std::unique_ptr<Database> Database::Clone() const {
  std::unique_ptr<Database> copy(new Database(schema_));
  for (size_t i = 0; i < tables_.size(); ++i) {
    *copy->tables_[i] = *tables_[i];
  }
  return copy;
}

namespace {

constexpr int32_t kUnlinked = -2;  // RefEdge::prev of a row in no list

/// Grows `v` to `n` entries of `fill`; tables grow while tweaking, and
/// 1/8 spare capacity wastes less memory than doubling.
void GrowTo(std::vector<int32_t>& v, size_t n, int32_t fill) {
  if (n > v.capacity()) v.reserve(std::max(n, v.size() + v.size() / 8));
  v.resize(n, fill);
}

/// Lists child row `r` under the parent slot its cell holds, unless it
/// is listed already or is not a live row holding a value.
template <typename Edge>
void Link(Edge& e, const Table& t, int col, TupleId r) {
  const Column& c = t.column(col);
  if (!t.IsLive(r) || !c.IsValue(r)) return;
  const int64_t v = c.GetInt(r);
  if (v < 0 || v >= std::numeric_limits<int32_t>::max()) return;
  const auto slot = static_cast<size_t>(r);
  if (slot >= e.prev.size()) {
    GrowTo(e.next, slot + 1, -1);
    GrowTo(e.prev, slot + 1, kUnlinked);
  }
  if (e.prev[slot] != kUnlinked) return;
  if (static_cast<size_t>(v) >= e.head.size()) GrowTo(e.head, v + 1, -1);
  int32_t& first = e.head[static_cast<size_t>(v)];
  if (first >= 0) e.prev[static_cast<size_t>(first)] = static_cast<int32_t>(r);
  e.next[slot] = first;
  e.prev[slot] = -1;
  first = static_cast<int32_t>(r);
}

/// Takes child row `r` out of its list, if listed. Its cell still holds
/// the slot it was listed under, because every write is bracketed.
template <typename Edge>
void Unlink(Edge& e, const Table& t, int col, TupleId r) {
  const auto slot = static_cast<size_t>(r);
  if (r < 0 || slot >= e.prev.size() || e.prev[slot] == kUnlinked) return;
  const int32_t before = e.prev[slot];
  const int32_t after = e.next[slot];
  if (before >= 0) {
    e.next[static_cast<size_t>(before)] = after;
  } else {
    e.head[static_cast<size_t>(t.column(col).GetInt(r))] = after;
  }
  if (after >= 0) e.prev[static_cast<size_t>(after)] = before;
  e.prev[slot] = kUnlinked;
}

}  // namespace

void Database::BuildReferrerIndex() {
  if (ref_built_) return;
  // Index upkeep is framework machinery, like the rest of Apply.
  analysis::ScopedProbeSuppress suppress;
  ref_col_edge_.resize(tables_.size());
  ref_inbound_.resize(tables_.size());
  int edges = 0;
  for (size_t ti = 0; ti < tables_.size(); ++ti) {
    for (int c = 0; c < tables_[ti]->num_columns(); ++c) {
      const Column& col = tables_[ti]->column(c);
      ref_col_edge_[ti].push_back(col.is_foreign_key() ? edges : -1);
      if (!col.is_foreign_key()) continue;
      const int parent = schema_.TableIndex(col.ref_table());
      ref_inbound_[static_cast<size_t>(parent)].push_back(edges++);
    }
  }
  ref_edges_ = std::vector<RefEdge>(static_cast<size_t>(edges));
  for (size_t ti = 0; ti < tables_.size(); ++ti) {
    const Table& t = *tables_[ti];
    for (int c = 0; c < t.num_columns(); ++c) {
      const int id = ref_col_edge_[ti][static_cast<size_t>(c)];
      if (id < 0) continue;
      RefEdge& e = ref_edges_[static_cast<size_t>(id)];
      e.next.assign(static_cast<size_t>(t.NumSlots()), -1);
      e.prev.assign(static_cast<size_t>(t.NumSlots()), kUnlinked);
      t.ForEachLive([&](TupleId r) { Link(e, t, c, r); });
    }
  }
  ref_built_ = true;
}

void Database::Reindex(int table, const Modification& mod, TupleId row,
                       bool link) {
  if (!ref_built_) return;
  const Table& t = *tables_[static_cast<size_t>(table)];
  const bool tuple_op = mod.kind == OpKind::kInsertTuple ||
                        mod.kind == OpKind::kDeleteTuple;
  const auto rows = mod.kind == OpKind::kInsertTuple
                        ? std::span<const TupleId>(&row, 1)
                        : std::span<const TupleId>(mod.tuples);
  const size_t n = tuple_op ? static_cast<size_t>(t.num_columns())
                            : mod.cols.size();
  for (size_t i = 0; i < n; ++i) {
    const int c = tuple_op ? static_cast<int>(i) : mod.cols[i];
    if (c < 0 || c >= t.num_columns()) continue;
    const int id = ref_col_edge_[static_cast<size_t>(table)]
                                [static_cast<size_t>(c)];
    if (id < 0) continue;
    RefEdge& e = ref_edges_[static_cast<size_t>(id)];
    for (const TupleId r : rows) link ? Link(e, t, c, r) : Unlink(e, t, c, r);
  }
}

bool Database::Unreferenced(int table, TupleId t) const {
  assert(ref_built_);
  for (const int id : ref_inbound_[static_cast<size_t>(table)]) {
    const std::vector<int32_t>& head = ref_edges_[static_cast<size_t>(id)].head;
    if (t >= 0 && t < static_cast<TupleId>(head.size()) &&
        head[static_cast<size_t>(t)] >= 0) {
      return false;
    }
  }
  return true;
}

std::vector<TupleId> Database::Referrers(int child_table, int fk_col,
                                         TupleId parent) const {
  std::vector<TupleId> out;
  ForEachReferrer(child_table, fk_col, parent,
                  [&](TupleId r) { out.push_back(r); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aspect
