#include "relational/refcount.h"

#include <cassert>

namespace aspect {

RefCounter::RefCounter(Database* db) : db_(db) {
  counts_.resize(static_cast<size_t>(db_->num_tables()));
  for (int ti = 0; ti < db_->num_tables(); ++ti) {
    counts_[static_cast<size_t>(ti)].assign(
        static_cast<size_t>(db_->table(ti).NumSlots()), 0);
  }
  for (int ti = 0; ti < db_->num_tables(); ++ti) {
    const Table& t = db_->table(ti);
    for (int ci = 0; ci < t.num_columns(); ++ci) {
      const Column& col = t.column(ci);
      if (!col.is_foreign_key()) continue;
      const int pi = db_->schema().TableIndex(col.ref_table());
      auto& counts = counts_[static_cast<size_t>(pi)];
      t.ForEachLive([&](TupleId tid) {
        if (col.IsValue(tid)) {
          ++counts[static_cast<size_t>(col.GetInt(tid))];
        }
      });
    }
  }
  db_->AddListener(this);
}

RefCounter::~RefCounter() {
  if (db_ != nullptr) db_->RemoveListener(this);
}

int64_t RefCounter::Count(int table, TupleId t) const {
  const auto& counts = counts_[static_cast<size_t>(table)];
  if (t < 0 || t >= static_cast<TupleId>(counts.size())) return 0;
  return counts[static_cast<size_t>(t)];
}

void RefCounter::Adjust(int table, int col, const Value& v, int64_t delta) {
  if (v.is_null()) return;
  const Column& c = db_->table(table).column(col);
  if (!c.is_foreign_key()) return;
  const int pi = db_->schema().TableIndex(c.ref_table());
  auto& counts = counts_[static_cast<size_t>(pi)];
  const size_t slot = static_cast<size_t>(v.int64());
  if (slot >= counts.size()) counts.resize(slot + 1, 0);
  counts[slot] += delta;
  assert(counts[slot] >= 0);
}

void RefCounter::OnApplied(const Modification& mod,
                           const std::vector<Value>& old_values,
                           TupleId new_tuple) {
  const int table = db_->schema().TableIndex(mod.table);
  if (table < 0) return;
  switch (mod.kind) {
    case OpKind::kDeleteValues:
      for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
        for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
          Adjust(table, mod.cols[cj],
                 old_values[tj * mod.cols.size() + cj], -1);
        }
      }
      break;
    case OpKind::kInsertValues:
      for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
        for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
          Adjust(table, mod.cols[cj], mod.values[cj], +1);
        }
      }
      break;
    case OpKind::kReplaceValues:
      for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
        for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
          Adjust(table, mod.cols[cj],
                 old_values[tj * mod.cols.size() + cj], -1);
          Adjust(table, mod.cols[cj], mod.values[cj], +1);
        }
      }
      break;
    case OpKind::kInsertTuple: {
      // Ensure the new slot exists in this table's own counts.
      auto& counts = counts_[static_cast<size_t>(table)];
      if (new_tuple >= static_cast<TupleId>(counts.size())) {
        counts.resize(static_cast<size_t>(new_tuple) + 1, 0);
      }
      for (size_t c = 0; c < mod.values.size(); ++c) {
        Adjust(table, static_cast<int>(c), mod.values[c], +1);
      }
      break;
    }
    case OpKind::kDeleteTuple:
      for (size_t c = 0; c < old_values.size(); ++c) {
        Adjust(table, static_cast<int>(c), old_values[c], -1);
      }
      break;
  }
}

}  // namespace aspect
