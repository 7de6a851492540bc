// RefCounter: maintains, for every table, the number of inbound live
// foreign-key references per tuple. Tweaking tools use it to pick
// deletion victims that no tuple references, so referential integrity
// survives every tweak.
#pragma once

#include <vector>

#include "relational/database.h"

namespace aspect {

class RefCounter : public ModificationListener {
 public:
  /// Builds counts from `db` and registers as a listener. The counter
  /// must not outlive the database.
  explicit RefCounter(Database* db);
  ~RefCounter() override;

  RefCounter(const RefCounter&) = delete;
  RefCounter& operator=(const RefCounter&) = delete;

  /// Number of live tuples referencing tuple `t` of table `table`.
  int64_t Count(int table, TupleId t) const;

  /// True if no live tuple references tuple `t` of table `table`.
  bool Unreferenced(int table, TupleId t) const {
    return Count(table, t) == 0;
  }

  void OnApplied(const Modification& mod,
                 const std::vector<Value>& old_values,
                 TupleId new_tuple) override;

 private:
  void Adjust(int table, int col, const Value& v, int64_t delta);

  Database* db_;
  std::vector<std::vector<int64_t>> counts_;
};

}  // namespace aspect
