// Test helper: a database's referrer index must list, for every FK
// edge and parent slot, exactly the live referrers a column scan
// finds, and agree with an index built from scratch on a clone.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "relational/database.h"

namespace aspect {

inline void ExpectReferrerIndexMatchesRebuild(const Database& db) {
  ASSERT_TRUE(db.has_referrer_index());
  const std::unique_ptr<Database> fresh = db.Clone();
  ASSERT_FALSE(fresh->has_referrer_index()) << "Clone copied the index";
  fresh->BuildReferrerIndex();
  for (int ti = 0; ti < db.num_tables(); ++ti) {
    const Table& t = db.table(ti);
    for (int c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(c);
      if (!col.is_foreign_key()) continue;
      std::map<TupleId, std::vector<TupleId>> scan;  // ascending lists
      t.ForEachLive([&](TupleId r) {
        if (col.IsValue(r) && col.GetInt(r) >= 0) {
          scan[col.GetInt(r)].push_back(r);
        }
      });
      TupleId slots =
          db.table(db.schema().TableIndex(col.ref_table())).NumSlots();
      if (!scan.empty()) slots = std::max(slots, scan.rbegin()->first + 1);
      for (TupleId p = 0; p < slots; ++p) {
        const auto it = scan.find(p);
        const std::vector<TupleId> want =
            it == scan.end() ? std::vector<TupleId>{} : it->second;
        ASSERT_EQ(db.Referrers(ti, c, p), want)
            << t.name() << "." << col.name() << " -> slot " << p;
        ASSERT_EQ(fresh->Referrers(ti, c, p), want)
            << "rebuild of " << t.name() << "." << col.name() << " -> slot "
            << p;
      }
    }
  }
  for (int ti = 0; ti < db.num_tables(); ++ti) {
    for (TupleId p = 0; p < db.table(ti).NumSlots(); ++p) {
      ASSERT_EQ(db.Unreferenced(ti, p), fresh->Unreferenced(ti, p))
          << db.table(ti).name() << " slot " << p;
    }
  }
}

}  // namespace aspect
