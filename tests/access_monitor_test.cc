// AccessMonitor against a reference model: the set of (table, tuple,
// column) cells each tool wrote, with row inserts and deletes expanded
// to every column of their table. Overlaps, OverlapGraph, CellsTouched
// and ObservedScope must answer exactly as that set does.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "aspect/access_monitor.h"
#include "common/rng.h"

namespace aspect {
namespace {

struct ToolWrite {
  int tool;
  int table;
  Modification mod;
  TupleId inserted = kInvalidTuple;
};

class CellModel {
 public:
  CellModel(int num_tools, std::vector<int> widths)
      : widths_(std::move(widths)),
        cells_(static_cast<size_t>(num_tools)),
        atoms_(static_cast<size_t>(num_tools)) {}

  void Record(const ToolWrite& w) {
    auto& cells = cells_[static_cast<size_t>(w.tool)];
    auto& atoms = atoms_[static_cast<size_t>(w.tool)];
    const auto row = [&](TupleId t) {
      for (int c = 0; c < widths_[static_cast<size_t>(w.table)]; ++c) {
        cells.insert({w.table, t, c});
      }
    };
    switch (w.mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues:
        for (const int c : w.mod.cols) {
          atoms.insert({w.table, c});
          for (const TupleId t : w.mod.tuples) cells.insert({w.table, t, c});
        }
        break;
      case OpKind::kInsertTuple:
        atoms.insert({w.table, AccessScope::kWholeTable});
        row(w.inserted);
        break;
      case OpKind::kDeleteTuple:
        atoms.insert({w.table, AccessScope::kWholeTable});
        for (const TupleId t : w.mod.tuples) row(t);
        break;
    }
  }

  void MergeFrom(const CellModel& other) {
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].insert(other.cells_[i].begin(), other.cells_[i].end());
      atoms_[i].insert(other.atoms_[i].begin(), other.atoms_[i].end());
    }
  }

  bool Overlaps(int a, int b) const {
    for (const auto& cell : cells_[static_cast<size_t>(a)]) {
      if (cells_[static_cast<size_t>(b)].count(cell) > 0) return true;
    }
    return false;
  }

  void ExpectMatches(const AccessMonitor& monitor) const {
    const int n = static_cast<int>(cells_.size());
    const auto graph = monitor.OverlapGraph();
    for (int a = 0; a < n; ++a) {
      const auto& atoms = atoms_[static_cast<size_t>(a)];
      EXPECT_EQ(monitor.CellsTouched(a),
                static_cast<int64_t>(cells_[static_cast<size_t>(a)].size()))
          << "tool " << a;
      const AccessScope scope = monitor.ObservedScope(a);
      EXPECT_EQ(scope.known, !atoms.empty()) << "tool " << a;
      if (scope.known) {
        EXPECT_FALSE(scope.reads_complete);
        EXPECT_EQ(scope.writes, atoms) << "tool " << a;
        EXPECT_EQ(scope.reads, atoms) << "tool " << a;
      }
      for (int b = 0; b < n; ++b) {
        EXPECT_EQ(monitor.Overlaps(a, b), Overlaps(a, b)) << a << "," << b;
        EXPECT_EQ(graph[static_cast<size_t>(a)][static_cast<size_t>(b)],
                  a != b && Overlaps(a, b))
            << a << "," << b;
      }
    }
  }

 private:
  std::vector<int> widths_;
  std::vector<std::set<std::tuple<int, TupleId, int>>> cells_;
  std::vector<std::set<AccessScope::Atom>> atoms_;
};

std::string TableName(int table) { return "t" + std::to_string(table); }

/// A tuple id in [lo, lo + 192): half the draws land within two slots
/// of a 64-bit word boundary.
TupleId PickTuple(Rng* rng, TupleId lo) {
  if (rng->Bernoulli(0.5)) return lo + rng->UniformInt(0, 191);
  return lo + std::max<TupleId>(0, 64 * rng->UniformInt(0, 2) +
                                       rng->UniformInt(-2, 1));
}

/// One random record of any of the five kinds. Cell records name up to
/// three distinct columns and up to three tuples, sometimes none.
ToolWrite RandomWrite(Rng* rng, int tool, int table, int width, TupleId lo) {
  ToolWrite w{tool, table, {}};
  w.mod.table = TableName(table);
  w.mod.kind = static_cast<OpKind>(rng->UniformInt(0, 4));
  switch (w.mod.kind) {
    case OpKind::kInsertTuple:
      w.inserted = PickTuple(rng, lo);
      break;
    case OpKind::kDeleteTuple:
      w.mod.tuples = {PickTuple(rng, lo)};
      break;
    default: {
      std::set<int> cols;
      const int64_t num_cols = rng->UniformInt(1, std::min(3, width));
      while (static_cast<int64_t>(cols.size()) < num_cols) {
        cols.insert(static_cast<int>(rng->UniformInt(0, width - 1)));
      }
      w.mod.cols.assign(cols.begin(), cols.end());
      const int64_t num_tuples = rng->UniformInt(0, 3);
      for (int64_t i = 0; i < num_tuples; ++i) {
        w.mod.tuples.push_back(PickTuple(rng, lo));
      }
      w.mod.values.assign(w.mod.cols.size(), Value(int64_t{1}));
      break;
    }
  }
  return w;
}

/// A schema of int64 tables with the given column counts.
Schema Shape(const std::vector<int>& widths) {
  Schema schema;
  for (size_t t = 0; t < widths.size(); ++t) {
    TableSpec table{TableName(static_cast<int>(t)), {}};
    for (int c = 0; c < widths[t]; ++c) {
      table.columns.push_back(
          {"c" + std::to_string(c), ColumnType::kInt64, ""});
    }
    schema.tables.push_back(table);
  }
  return schema;
}

void RecordBoth(const ToolWrite& w, AccessMonitor* monitor,
                CellModel* model) {
  monitor->Record(w.tool, w.mod, w.inserted);
  model->Record(w);
}

TEST(AccessMonitorTest, MatchesCellSetModel) {
  // Table 3 is never written; tool 3 records nothing and must stay
  // unknown.
  const std::vector<int> widths = {3, 1, 6, 4};
  constexpr int kTools = 4;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto write = [&](int tool) {
      const int table = static_cast<int>(rng.UniformInt(0, 2));
      return RandomWrite(&rng, tool, table, widths[table], 0);
    };
    AccessMonitor monitor(kTools, Shape(widths));
    CellModel model(kTools, widths);
    model.ExpectMatches(monitor);
    const int64_t records = rng.UniformInt(1, 30);
    for (int64_t i = 0; i < records; ++i) {
      RecordBoth(write(static_cast<int>(rng.UniformInt(0, 2))), &monitor,
                 &model);
    }
    model.ExpectMatches(monitor);

    // A parallel task's private monitor merged into the non-empty one.
    AccessMonitor task(kTools, Shape(widths));
    CellModel task_model(kTools, widths);
    const int64_t task_records = rng.UniformInt(0, 15);
    for (int64_t i = 0; i < task_records; ++i) {
      RecordBoth(write(static_cast<int>(rng.UniformInt(0, 2))), &task,
                 &task_model);
    }
    task_model.ExpectMatches(task);
    monitor.MergeFrom(std::move(task));
    model.MergeFrom(task_model);
    model.ExpectMatches(monitor);
    CellModel(kTools, widths).ExpectMatches(task);  // left empty
  }
}

TEST(AccessMonitorTest, RowDeleteOverlapsCellsBeyondColumn64) {
  // A row delete touches every column of its table, however wide.
  AccessMonitor monitor(3, Shape({2, 70}));
  monitor.Record(0, Modification::DeleteTuple("t1", 5));
  monitor.Record(
      1, Modification::ReplaceValues("t1", {5}, {66}, {Value(int64_t{1})}));
  monitor.Record(
      2, Modification::ReplaceValues("t1", {6}, {66}, {Value(int64_t{1})}));
  EXPECT_TRUE(monitor.Overlaps(0, 1));
  EXPECT_FALSE(monitor.Overlaps(0, 2));
  EXPECT_EQ(monitor.CellsTouched(0), 70);
  monitor.Record(0, Modification::DeleteTuple("not_in_schema", 5));
  EXPECT_EQ(monitor.CellsTouched(0), 70);

  monitor.Record(2, Modification::InsertTuple("t1", {}), 9);
  monitor.Record(1, Modification::DeleteValues("t1", {9}, {69}));
  EXPECT_TRUE(monitor.Overlaps(1, 2));
}

TEST(AccessMonitorTest, ConcurrentRecordsMatchModel) {
  // Four threads record disjoint tuple ranges into one shared monitor,
  // for the same two tools; neighbouring ranges share a 64-bit word.
  const std::vector<int> widths = {5, 70};
  constexpr int kThreads = 4;
  std::vector<std::vector<ToolWrite>> writes(kThreads);
  for (int k = 0; k < kThreads; ++k) {
    Rng rng(static_cast<uint64_t>(100 + k));
    for (int i = 0; i < 400; ++i) {
      const int table = static_cast<int>(rng.UniformInt(0, 1));
      writes[k].push_back(
          RandomWrite(&rng, i % 2, table, widths[table], TupleId{k} * 196));
    }
  }
  AccessMonitor monitor(2, Shape(widths));
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&monitor, &writes, k]() {
      for (const ToolWrite& w : writes[k]) {
        monitor.Record(w.tool, w.mod, w.inserted);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CellModel model(2, widths);
  for (const auto& list : writes) {
    for (const ToolWrite& w : list) model.Record(w);
  }
  model.ExpectMatches(monitor);
}

}  // namespace
}  // namespace aspect
