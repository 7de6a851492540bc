// Tests for src/scaler: the size-scaler contract (exact sizes for
// Dscaler/Rand, integer factor for ReX; valid FKs for all).
#include <gtest/gtest.h>

#include "relational/integrity.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

class ScalerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto gen = GenerateDataset(DoubanMusicLike(0.5), 21);
    ASSERT_TRUE(gen.ok()) << gen.status();
    set_ = std::make_unique<SnapshotSet>(std::move(gen).ValueOrDie());
    source_ = set_->Materialize(2).ValueOrAbort();
    targets_ = set_->SnapshotSizes(4);
  }
  std::unique_ptr<SnapshotSet> set_;
  std::unique_ptr<Database> source_;
  std::vector<int64_t> targets_;
};

TEST_F(ScalerTest, RandHitsExactSizesWithValidFks) {
  RandScaler scaler;
  auto scaled = scaler.Scale(*source_, targets_, 3).ValueOrAbort();
  for (int t = 0; t < scaled->num_tables(); ++t) {
    EXPECT_EQ(scaled->table(t).NumTuples(),
              targets_[static_cast<size_t>(t)])
        << scaled->table(t).name();
  }
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
}

TEST_F(ScalerTest, DscalerHitsExactSizesWithValidFks) {
  DscalerScaler scaler;
  auto scaled = scaler.Scale(*source_, targets_, 3).ValueOrAbort();
  for (int t = 0; t < scaled->num_tables(); ++t) {
    EXPECT_EQ(scaled->table(t).NumTuples(),
              targets_[static_cast<size_t>(t)]);
  }
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
}

TEST_F(ScalerTest, RexScalesByIntegerFactor) {
  RexScaler scaler;
  const int64_t s = RexScaler::Factor(*source_, targets_);
  EXPECT_GE(s, 2);
  auto scaled = scaler.Scale(*source_, targets_, 3).ValueOrAbort();
  for (int t = 0; t < scaled->num_tables(); ++t) {
    EXPECT_EQ(scaled->table(t).NumTuples(),
              source_->table(t).NumTuples() * s);
  }
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
}

TEST_F(ScalerTest, RexReplicaWiringPreservesDegrees) {
  // Replica r of a child references replica r of its parent, so each
  // parent replica's fan-out equals the source parent's fan-out.
  RexScaler scaler;
  auto scaled = scaler.Scale(*source_, targets_, 3).ValueOrAbort();
  const int64_t s = RexScaler::Factor(*source_, targets_);
  const Table* src_child = source_->FindTable("Album_Comment");
  const Table* dst_child = scaled->FindTable("Album_Comment");
  // Count fan-out of source Album 0 and of its replica 0 (new id 0).
  auto fanout = [](const Table* t, TupleId album) {
    int64_t n = 0;
    t->ForEachLive([&](TupleId tid) {
      if (t->column(0).GetInt(tid) == album) ++n;
    });
    return n;
  };
  EXPECT_EQ(fanout(src_child, 0), fanout(dst_child, 0));
  ASSERT_GE(s, 2);
  EXPECT_EQ(fanout(src_child, 0), fanout(dst_child, 1));
}

TEST_F(ScalerTest, DscalerPreservesJointTemplates) {
  // Synthetic tuple j < |src| reuses source tuple j's template with
  // deterministic proportional remap, so round 0 keeps correlations.
  DscalerScaler scaler;
  auto scaled = scaler.Scale(*source_, targets_, 3).ValueOrAbort();
  const Table* src = source_->FindTable("Review");
  const Table* dst = scaled->FindTable("Review");
  // The "kind" attribute column is copied verbatim from the template.
  const int kind_col = src->ColumnIndex("kind");
  ASSERT_GE(kind_col, 0);
  for (TupleId t = 0; t < std::min<int64_t>(src->NumTuples(), 40); ++t) {
    EXPECT_EQ(src->column(kind_col).GetInt(t),
              dst->column(kind_col).GetInt(t));
  }
}

TEST_F(ScalerTest, ScaleDownWorks) {
  std::vector<int64_t> down = set_->SnapshotSizes(1);
  for (auto& v : down) v = std::max<int64_t>(1, v / 2);
  for (const char* name : {"Dscaler", "Rand"}) {
    std::unique_ptr<SizeScaler> scaler;
    if (std::string(name) == "Dscaler") {
      scaler = std::make_unique<DscalerScaler>();
    } else {
      scaler = std::make_unique<RandScaler>();
    }
    auto scaled = scaler->Scale(*source_, down, 5).ValueOrAbort();
    EXPECT_TRUE(CheckIntegrity(*scaled).ok()) << name;
    for (int t = 0; t < scaled->num_tables(); ++t) {
      EXPECT_EQ(scaled->table(t).NumTuples(), down[static_cast<size_t>(t)]);
    }
  }
}

TEST_F(ScalerTest, BadTargetsRejected) {
  RandScaler scaler;
  EXPECT_FALSE(scaler.Scale(*source_, {1, 2}, 3).ok());
  std::vector<int64_t> zeros(targets_.size(), 0);
  EXPECT_FALSE(scaler.Scale(*source_, zeros, 3).ok());
}

TEST_F(ScalerTest, BuiltinScalersOrdered) {
  const auto scalers = BuiltinScalers();
  ASSERT_EQ(scalers.size(), 3u);
  EXPECT_EQ(scalers[0]->name(), "Dscaler");
  EXPECT_EQ(scalers[1]->name(), "ReX");
  EXPECT_EQ(scalers[2]->name(), "Rand");
}

TEST_F(ScalerTest, DeterministicInSeed) {
  DscalerScaler scaler;
  auto a = scaler.Scale(*source_, targets_, 9).ValueOrAbort();
  auto b = scaler.Scale(*source_, targets_, 9).ValueOrAbort();
  const Table& ta = a->table(4);
  const Table& tb = b->table(4);
  ASSERT_EQ(ta.NumTuples(), tb.NumTuples());
  for (TupleId t = 0; t < std::min<int64_t>(ta.NumTuples(), 50); ++t) {
    EXPECT_EQ(ta.GetRow(t), tb.GetRow(t));
  }
}


TEST_F(ScalerTest, MakeScalerResolvesOnlyThePaperScalers) {
  for (const auto& scaler : BuiltinScalers()) {
    auto made = MakeScaler(scaler->name());
    ASSERT_TRUE(made.ok()) << made.status();
    EXPECT_EQ(made.ValueOrDie()->name(), scaler->name());
  }
  for (const char* removed : {"UpSizeR", "Sampling"}) {
    const Status st = MakeScaler(removed).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << removed;
    EXPECT_NE(st.message().find("unknown scaler"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("Dscaler, ReX, Rand"), std::string::npos)
        << st.message();
  }
}

}  // namespace
}  // namespace aspect
