// Tests for the simple property tools, including the Theorem 6-8
// same-column frequency-distribution results.
#include <gtest/gtest.h>

#include "aspect/coordinator.h"
#include "properties/simple.h"
#include "relational/integrity.h"
#include "workload/generator.h"

namespace aspect {
namespace {

Schema OneTableSchema() {
  Schema s;
  s.name = "one";
  s.tables.push_back({"T",
                      {{"v", ColumnType::kInt64, ""},
                       {"w", ColumnType::kInt64, ""}}});
  return s;
}

std::unique_ptr<Database> OneTableDb(const std::vector<int64_t>& vs) {
  auto db = Database::Create(OneTableSchema()).ValueOrAbort();
  for (const int64_t v : vs) {
    db->FindTable("T")->Append({Value(v), Value(v % 2)}).status().Check();
  }
  return db;
}

FrequencyDistribution Dist(std::initializer_list<std::pair<int64_t, int64_t>>
                               entries) {
  FrequencyDistribution d(1);
  for (const auto& [v, c] : entries) d.Add({v}, c);
  return d;
}

TEST(ColumnFreqTest, ExtractAndError) {
  auto db = OneTableDb({1, 1, 2, 3});
  ColumnFreqTool tool(db->schema(), "T", "v");
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  EXPECT_EQ(tool.Current().Count({1}), 2);
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  ASSERT_TRUE(
      tool.SetTargetDistribution(Dist({{1, 1}, {2, 2}, {3, 1}})).ok());
  // L1 = |2-1| + |1-2| = 2, population 4 -> 0.5.
  EXPECT_DOUBLE_EQ(tool.Error(), 0.5);
  tool.Unbind();
}

TEST(ColumnFreqTest, TweakReachesTargetExactly) {
  auto db = OneTableDb({1, 1, 1, 1, 2, 2, 3, 3});
  ColumnFreqTool tool(db->schema(), "T", "v");
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  ASSERT_TRUE(
      tool.SetTargetDistribution(Dist({{1, 2}, {2, 2}, {3, 2}, {9, 2}}))
          .ok());
  ASSERT_TRUE(tool.CheckTargetFeasible().ok());
  Rng rng(1);
  TweakContext ctx(db.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  EXPECT_EQ(tool.Current().Count({9}), 2);
  tool.Unbind();
}

TEST(ColumnFreqTest, RepairRescalesTotals) {
  auto db = OneTableDb({1, 1, 2, 3});  // population 4
  auto truth = OneTableDb({1, 1, 1, 1, 2, 2, 3, 3});  // population 8
  ColumnFreqTool tool(db->schema(), "T", "v");
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  EXPECT_FALSE(tool.CheckTargetFeasible().ok());
  ASSERT_TRUE(tool.RepairTarget().ok());
  EXPECT_TRUE(tool.CheckTargetFeasible().ok());
  EXPECT_EQ(tool.Target().TotalMass(), 4);
  tool.Unbind();
}

TEST(ColumnFreqTest, IncrementalTracking) {
  auto db = OneTableDb({1, 2, 3});
  ColumnFreqTool tool(db->schema(), "T", "v");
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  ASSERT_TRUE(db->Apply(Modification::ReplaceValues("T", {0}, {0},
                                                    {Value(int64_t{7})}))
                  .ok());
  EXPECT_EQ(tool.Current().Count({7}), 1);
  EXPECT_EQ(tool.Current().Count({1}), 0);
  TupleId nt;
  ASSERT_TRUE(db->Apply(Modification::InsertTuple(
                            "T", {Value(int64_t{7}), Value(int64_t{0})}),
                        &nt)
                  .ok());
  EXPECT_EQ(tool.Current().Count({7}), 2);
  ASSERT_TRUE(db->Apply(Modification::DeleteTuple("T", nt)).ok());
  EXPECT_EQ(tool.Current().Count({7}), 1);
  tool.Unbind();
}

// Theorem 6: if pi_1..pi_{n+1} are frequency distributions of the same
// column and T_{n+1} runs last, the total error is
// sum_{i<=n} ||pi_i - pi_{n+1}||.
TEST(TheoremSixTest, SameColumnErrorFormula) {
  auto db = OneTableDb({1, 1, 1, 2, 2, 2});
  const FrequencyDistribution pi1 = Dist({{1, 4}, {2, 2}});
  const FrequencyDistribution pi2 = Dist({{1, 2}, {2, 4}});
  const FrequencyDistribution pi3 = Dist({{1, 3}, {2, 3}});

  Coordinator coordinator;
  auto t1 = std::make_unique<ColumnFreqTool>(db->schema(), "T", "v", "f1");
  auto t2 = std::make_unique<ColumnFreqTool>(db->schema(), "T", "v", "f2");
  auto t3 = std::make_unique<ColumnFreqTool>(db->schema(), "T", "v", "f3");
  t1->SetTargetDistribution(pi1).Check();
  t2->SetTargetDistribution(pi2).Check();
  t3->SetTargetDistribution(pi3).Check();
  ColumnFreqTool* p1 = t1.get();
  ColumnFreqTool* p2 = t2.get();
  ColumnFreqTool* p3 = t3.get();
  coordinator.AddTool(std::move(t1));
  coordinator.AddTool(std::move(t2));
  coordinator.AddTool(std::move(t3));

  CoordinatorOptions opts;
  opts.validate = false;  // raw sequential enforcement
  opts.repair_targets = false;
  auto report = coordinator.Run(db.get(), {0, 1, 2}, opts).ValueOrAbort();

  // The last tool's property holds exactly; the earlier two sit at
  // ||pi_i - pi_3|| / |T|.
  ASSERT_TRUE(p3->Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(p3->Error(), 0.0);
  p3->Unbind();
  ASSERT_TRUE(p1->Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(p1->Error(),
                   static_cast<double>(pi1.L1Distance(pi3)) / 6.0);
  p1->Unbind();
  ASSERT_TRUE(p2->Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(p2->Error(),
                   static_cast<double>(pi2.L1Distance(pi3)) / 6.0);
  p2->Unbind();
  EXPECT_EQ(report.steps.size(), 3u);
}

// Theorem 7: properties over column sets that share a column. pi1 is
// a joint distribution over (v, w), pi2 a distribution over v alone.
// Once pi2 holds exactly, pi1's error is at least the L1 difference of
// the two targets' v-marginals (normalized). No shipped tool enforces
// a joint over two columns, so pi1 is measured here directly.
TEST(TheoremSevenTest, SharedColumnLowerBound) {
  // Rows (v, w = v % 2): (0,0) x4 and (1,1) x2, exactly pi1.
  auto db = OneTableDb({0, 0, 0, 0, 1, 1});
  FrequencyDistribution pi1(2);
  pi1.Add({0, 0}, 4);
  pi1.Add({1, 1}, 2);
  const FrequencyDistribution pi2 = Dist({{0, 1}, {1, 1}, {2, 4}});
  const Table* t = db->FindTable("T");
  auto pi1_error = [&] {
    FrequencyDistribution vw(2);
    t->ForEachLive([&](TupleId tid) {
      vw.Add({t->column(0).GetInt(tid), t->column(1).GetInt(tid)});
    });
    return static_cast<double>(vw.L1Distance(pi1)) / 6.0;
  };
  ASSERT_EQ(pi1_error(), 0.0);

  ColumnFreqTool tool(db->schema(), "T", "v");
  tool.SetTargetDistribution(pi2).Check();
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  Rng rng(5);
  TweakContext ctx(db.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);  // ran last: exact
  tool.Unbind();

  FrequencyDistribution pi1_v(1);
  for (const auto& [key, count] : pi1.counts()) pi1_v.Add({key[0]}, count);
  const double bound = static_cast<double>(pi1_v.L1Distance(pi2)) / 6.0;
  EXPECT_GT(bound, 0.0);
  EXPECT_GE(pi1_error() + 1e-12, bound);
}

// Theorem 8: total error is minimized when the tool whose target has
// the minimum total difference to the others runs last.
TEST(TheoremEightTest, BestOrderPutsMedianLast) {
  const FrequencyDistribution pi1 = Dist({{1, 6}, {2, 0}});
  const FrequencyDistribution pi2 = Dist({{1, 0}, {2, 6}});
  const FrequencyDistribution pi3 = Dist({{1, 3}, {2, 3}});  // the median
  const std::vector<const FrequencyDistribution*> pis = {&pi1, &pi2, &pi3};

  double best_error = 1e18;
  int best_last = -1;
  for (int last = 0; last < 3; ++last) {
    auto db = OneTableDb({1, 1, 1, 2, 2, 2});
    Coordinator coordinator;
    std::vector<ColumnFreqTool*> raw;
    for (int i = 0; i < 3; ++i) {
      auto t = std::make_unique<ColumnFreqTool>(
          db->schema(), "T", "v", "f" + std::to_string(i));
      t->SetTargetDistribution(*pis[static_cast<size_t>(i)]).Check();
      raw.push_back(t.get());
      coordinator.AddTool(std::move(t));
    }
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
      if (i != last) order.push_back(i);
    }
    order.push_back(last);
    CoordinatorOptions opts;
    opts.validate = false;
    opts.repair_targets = false;
    coordinator.Run(db.get(), order, opts).ValueOrAbort();
    double total = 0;
    for (ColumnFreqTool* t : raw) {
      ASSERT_TRUE(t->Bind(db.get()).ok());
      total += t->Error();
      t->Unbind();
    }
    if (total < best_error) {
      best_error = total;
      best_last = last;
    }
  }
  EXPECT_EQ(best_last, 2);  // pi3 has the minimum total difference
}

TEST(TupleCountTest, GrowsAndShrinksToTarget) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 14).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  TupleCountTool tool(db->schema());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  std::vector<int64_t> targets;
  for (int t = 0; t < db->num_tables(); ++t) {
    targets.push_back(db->table(t).NumTuples());
  }
  targets[0] += 5;   // grow User
  // Shrink a leaf activity table (nothing references it).
  const int fan = db->schema().TableIndex("User_Fan");
  targets[static_cast<size_t>(fan)] -= 5;
  ASSERT_TRUE(tool.SetTargetSizes(targets).ok());
  EXPECT_GT(tool.Error(), 0.0);
  Rng rng(4);
  TweakContext ctx(db.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  EXPECT_TRUE(CheckIntegrity(*db).ok());
  tool.Unbind();
}


// Observation O3: conflicting overlapping properties. Two tools demand
// incompatible frequency distributions of the same column; ASPECT
// resolves the conflict in favour of the later tool ("ASPECT modifies
// the properties that are applied earlier").
TEST(ObservationO3Test, LaterToolWinsConflicts) {
  auto db = OneTableDb({1, 1, 1, 2, 2, 2});
  Coordinator coordinator;
  auto majority_ones =
      std::make_unique<ColumnFreqTool>(db->schema(), "T", "v", "men");
  auto majority_twos =
      std::make_unique<ColumnFreqTool>(db->schema(), "T", "v", "women");
  majority_ones->SetTargetDistribution(Dist({{1, 5}, {2, 1}})).Check();
  majority_twos->SetTargetDistribution(Dist({{1, 1}, {2, 5}})).Check();
  ColumnFreqTool* first = majority_ones.get();
  ColumnFreqTool* second = majority_twos.get();
  coordinator.AddTool(std::move(majority_ones));
  coordinator.AddTool(std::move(majority_twos));
  CoordinatorOptions opts;
  opts.repair_targets = false;
  coordinator.Run(db.get(), {0, 1}, opts).ValueOrAbort();
  ASSERT_TRUE(second->Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(second->Error(), 0.0);  // the later property holds
  second->Unbind();
  ASSERT_TRUE(first->Bind(db.get()).ok());
  EXPECT_GT(first->Error(), 0.0);  // the earlier one was sacrificed
  first->Unbind();
}

TEST(CoordinatorConvergenceTest, EpsilonStopsEarly) {
  auto db = OneTableDb({1, 1, 1, 2, 2, 2});
  Coordinator coordinator;
  auto t = std::make_unique<ColumnFreqTool>(db->schema(), "T", "v");
  t->SetTargetDistribution(Dist({{1, 2}, {2, 4}})).Check();
  coordinator.AddTool(std::move(t));
  CoordinatorOptions opts;
  opts.repair_targets = false;
  opts.iterations = 10;
  opts.converge_epsilon = 1e-9;
  auto report = coordinator.Run(db.get(), {0}, opts).ValueOrAbort();
  // One pass reaches zero; the epsilon check stops after pass 2 sees
  // no further improvement instead of running all 10.
  EXPECT_LE(report.steps.size(), 2u);
  EXPECT_DOUBLE_EQ(report.final_errors[0], 0.0);
}

}  // namespace
}  // namespace aspect
