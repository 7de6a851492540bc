#include "relational/integrity.h"

#include <algorithm>
#include <vector>

#include "common/sharding.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace aspect {
namespace {

/// Serial check of table `ti`; returns the first violation in
/// (column, tuple) order, then any referrer-index slot whose list
/// differs from the references its FK column's pass counted.
Status CheckTable(const Database& db, int ti,
                  const IntegrityOptions& options) {
  const Table& t = db.table(ti);
  for (int ci = 0; ci < t.num_columns(); ++ci) {
    const Column& col = t.column(ci);
    const Table* parent =
        col.is_foreign_key() ? db.FindTable(col.ref_table()) : nullptr;
    std::vector<int32_t> seen(
        parent != nullptr && db.has_referrer_index()
            ? static_cast<size_t>(parent->NumSlots())
            : 0);
    Status failure = Status::OK();
    t.ForEachLive([&](TupleId tid) {
      if (!failure.ok()) return;
      if (col.IsEmpty(tid)) {
        if (options.forbid_empty_cells) {
          failure = Status::Invalid(
              StrFormat("empty cell at %s[%lld].%s", t.name().c_str(),
                        static_cast<long long>(tid), col.name().c_str()));
        }
        return;
      }
      if (!col.is_foreign_key()) return;
      if (col.IsNull(tid)) {
        if (options.forbid_null_foreign_keys) {
          failure = Status::Invalid(
              StrFormat("NULL foreign key at %s[%lld].%s",
                        t.name().c_str(), static_cast<long long>(tid),
                        col.name().c_str()));
        }
        return;
      }
      const TupleId ref = col.GetInt(tid);
      if (parent == nullptr || !parent->IsLive(ref)) {
        failure = Status::Invalid(StrFormat(
            "dangling foreign key %s[%lld].%s -> %s[%lld]",
            t.name().c_str(), static_cast<long long>(tid),
            col.name().c_str(), col.ref_table().c_str(),
            static_cast<long long>(ref)));
      } else if (!seen.empty()) {
        ++seen[static_cast<size_t>(ref)];
      }
    });
    ASPECT_RETURN_NOT_OK(failure);
    for (size_t p = 0; p < seen.size(); ++p) {
      const auto slot = static_cast<TupleId>(p);
      int64_t listed = 0;
      int64_t held = 0;
      db.ForEachReferrer(ti, ci, slot, [&](TupleId r) {
        ++listed;
        if (t.IsLive(r) && col.IsValue(r) && col.GetInt(r) == slot) ++held;
      });
      if (listed != seen[p] || held != seen[p]) {
        return Status::Invalid(StrFormat(
            "referrer index of %s.%s -> %s[%zu]: lists %lld rows, %lld "
            "holding it, of the %d the column holds",
            t.name().c_str(), col.name().c_str(), col.ref_table().c_str(), p,
            static_cast<long long>(listed), static_cast<long long>(held),
            seen[p]));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckIntegrity(const Database& db, const IntegrityOptions& options) {
  const int num_tables = db.num_tables();
  const int threads =
      std::min(ResolveGenThreads(options.threads), std::max(1, num_tables));
  if (threads <= 1 || num_tables <= 1) {
    for (int ti = 0; ti < num_tables; ++ti) {
      ASPECT_RETURN_NOT_OK(CheckTable(db, ti, options));
    }
    return Status::OK();
  }

  // Table-parallel: the database is read-only here, so each table
  // verifies independently; per-table status slots keep the reported
  // failure the first one in table order, matching the serial path.
  std::vector<Status> statuses(static_cast<size_t>(num_tables),
                               Status::OK());
  ThreadPool* pool = ThreadPool::Shared(threads);
  if (pool == nullptr) {
    // Called from a pool worker (nested phase): run inline.
    for (int ti = 0; ti < num_tables; ++ti) {
      statuses[static_cast<size_t>(ti)] = CheckTable(db, ti, options);
    }
  } else {
    for (int ti = 0; ti < num_tables; ++ti) {
      pool->Submit([&db, &options, &statuses, ti] {
        statuses[static_cast<size_t>(ti)] = CheckTable(db, ti, options);
      });
    }
    pool->Wait();
  }
  for (const Status& s : statuses) ASPECT_RETURN_NOT_OK(s);
  return Status::OK();
}

}  // namespace aspect
