// Tests for the three Target Generator modes of Sec. III-C as exposed
// by the tools: (a) user input, (b) developer generation (extraction
// from a ground-truth dataset), (c) statistical extrapolation across
// snapshots.
#include <gtest/gtest.h>

#include "aspect/target_generator.h"
#include "aspect/tweak_context.h"
#include "properties/simple.h"
#include "workload/generator.h"

namespace aspect {
namespace {

class TargetModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto gen = GenerateDataset(DoubanMusicLike(0.4), 61);
    ASSERT_TRUE(gen.ok());
    set_ = std::make_unique<SnapshotSet>(std::move(gen).ValueOrDie());
    for (int s = 1; s <= 4; ++s) {
      snapshots_.push_back(set_->Materialize(s).ValueOrAbort());
      views_.push_back(snapshots_.back().get());
    }
    future_ = set_->Materialize(6).ValueOrAbort();
  }
  std::unique_ptr<SnapshotSet> set_;
  std::vector<std::unique_ptr<Database>> snapshots_;
  std::vector<const Database*> views_;
  std::unique_ptr<Database> future_;
};

TEST_F(TargetModesTest, ColumnFreqExtrapolationApproximatesFuture) {
  ColumnFreqTool tool(set_->schema(), "User", "gender");
  ASSERT_TRUE(tool.SetTargetByExtrapolation(
                      views_, static_cast<double>(future_->TotalTuples()))
                  .ok());
  // Compare against the actual future distribution.
  ColumnFreqTool oracle(set_->schema(), "User", "gender");
  ASSERT_TRUE(oracle.SetTargetFromDataset(*future_).ok());
  const double rel =
      static_cast<double>(tool.Target().L1Distance(oracle.Target())) /
      static_cast<double>(oracle.Target().TotalMass());
  EXPECT_LT(rel, 0.15);
}

TEST_F(TargetModesTest, ColumnFreqExtrapolationIsUsableAfterRepair) {
  // `ts` is the snapshot a tuple arrived in, so the fitted snapshots
  // D1..D4 know only the values 1..4 while D6 also holds 5 and 6.
  ColumnFreqTool tool(set_->schema(), "Album_Heard", "ts");
  ASSERT_TRUE(tool.SetTargetByExtrapolation(
                      views_, static_cast<double>(future_->TotalTuples()))
                  .ok());
  // Extrapolated targets rarely match the bound table's population;
  // repair must fix them for the bound database, then the tweak runs
  // to zero.
  auto db = set_->Materialize(6).ValueOrAbort();
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  ASSERT_TRUE(tool.RepairTarget().ok());
  ASSERT_TRUE(tool.CheckTargetFeasible().ok()) << tool.CheckTargetFeasible();
  EXPECT_GT(tool.Error(), 0.0);
  Rng rng(2);
  TweakContext ctx(db.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_EQ(tool.Error(), 0.0);
  tool.Unbind();
}

TEST_F(TargetModesTest, ExtrapolationNeedsEnoughSnapshots) {
  ColumnFreqTool tool(set_->schema(), "User", "gender");
  const std::vector<const Database*> one = {views_[0]};
  EXPECT_FALSE(tool.SetTargetByExtrapolation(one, 1e4).ok());
}

TEST_F(TargetModesTest, UserInputModeOverridesExtraction) {
  ColumnFreqTool tool(set_->schema(), "User", "gender");
  ASSERT_TRUE(tool.SetTargetFromDataset(*future_).ok());
  FrequencyDistribution manual(1);
  manual.Add({0}, 7);
  ASSERT_TRUE(tool.SetTargetDistribution(manual).ok());
  EXPECT_EQ(tool.Target().Count({0}), 7);
  EXPECT_EQ(tool.Target().NumKeys(), 1);
}

TEST_F(TargetModesTest, GenericExtrapolatorDropsVanishingKeys) {
  // A key that shrinks across snapshots extrapolates below min_count
  // and is dropped.
  FrequencyDistribution d1(1), d2(1), d3(1);
  d1.Add({1}, 30);
  d2.Add({1}, 20);
  d3.Add({1}, 10);
  // Fake databases are overkill here; exercise the poly-fit direction
  // using the stats API via databases of different size.
  std::vector<const Database*> views = {views_[0], views_[1], views_[2]};
  int call = 0;
  auto extract = [&](const Database&) {
    return call++ == 0 ? d1 : (call == 2 ? d2 : d3);
  };
  const double big = static_cast<double>(views_[2]->TotalTuples()) * 10;
  const auto predicted =
      ExtrapolateDistribution(views, extract, big).ValueOrAbort();
  EXPECT_EQ(predicted.Count({1}), 0);  // extrapolates negative -> dropped
}

}  // namespace
}  // namespace aspect
