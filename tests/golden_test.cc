// Golden output of the stage-2 coordinator on four small pipelines. A
// refactor of Coordinator::Run must reproduce the constants exactly:
// the output database bit for bit (ContentHash) and every step's vote
// counters. They were re-captured when tools began to build their
// search index (the lists and buckets only Tweak walks) at the start of
// each of their steps, and to be bound right before their first step:
// a fresh index lists its entries in id order where the one kept since
// Run start listed them in arrival order, so the tools' random draws
// pick other tuples from then on. Configs without routing skip
// nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "aspect/coordinator.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "relational/fingerprint.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

struct GoldenStep {
  int64_t applied;
  int64_t vetoed;
  int64_t forced;
  int64_t votes_total;
  int64_t votes_skipped = 0;
};

struct Outcome {
  uint64_t hash = 0;
  RunReport report;
};

enum class ScalerKind { kRand, kDscaler };

/// generate → scale → tweak, as RunExperiment composes it: snapshot 1
/// is the empirical input, `target` the ground truth, and the three
/// tools are registered linear, coappear, pairwise.
Outcome RunPipeline(DatasetBlueprint blueprint, uint64_t seed, int target,
                    ScalerKind kind, const std::vector<int>& order,
                    const CoordinatorOptions& opts) {
  const SnapshotSet gen = GenerateDataset(blueprint, seed).ValueOrAbort();
  const auto source = gen.Materialize(1).ValueOrAbort();
  const auto truth = gen.Materialize(target).ValueOrAbort();
  RandScaler rand;
  DscalerScaler dscaler;
  SizeScaler* scaler = kind == ScalerKind::kRand
                           ? static_cast<SizeScaler*>(&rand)
                           : static_cast<SizeScaler*>(&dscaler);
  auto db =
      scaler->Scale(*source, gen.SnapshotSizes(target), seed).ValueOrAbort();
  Coordinator coordinator;
  coordinator.AddTool(std::make_unique<LinearPropertyTool>(truth->schema()));
  coordinator.AddTool(
      std::make_unique<CoappearPropertyTool>(truth->schema()));
  coordinator.AddTool(
      std::make_unique<PairwisePropertyTool>(truth->schema()));
  coordinator.SetTargetsFromDataset(*truth).Check();
  Outcome out;
  out.report = coordinator.Run(db.get(), order, opts).ValueOrAbort();
  out.hash = ContentHash(*db);
  return out;
}

void ExpectGolden(const Outcome& got, uint64_t hash,
                  const std::vector<GoldenStep>& steps) {
  EXPECT_EQ(got.hash, hash);
  ASSERT_EQ(got.report.steps.size(), steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    const ToolReport& s = got.report.steps[i];
    EXPECT_EQ(s.applied, steps[i].applied) << "step " << i << " " << s.tool;
    EXPECT_EQ(s.vetoed, steps[i].vetoed) << "step " << i << " " << s.tool;
    EXPECT_EQ(s.forced, steps[i].forced) << "step " << i << " " << s.tool;
    EXPECT_EQ(s.votes_total, steps[i].votes_total)
        << "step " << i << " " << s.tool;
    EXPECT_EQ(s.votes_skipped, steps[i].votes_skipped)
        << "step " << i << " " << s.tool;
  }
}

constexpr int kLinear = 0;
constexpr int kCoappear = 1;
constexpr int kPairwise = 2;
const std::vector<int> kClp = {kCoappear, kLinear, kPairwise};
const std::vector<int> kLpc = {kLinear, kPairwise, kCoappear};

TEST(GoldenTest, XiamiClpSerialPass) {
  CoordinatorOptions opts;
  opts.seed = 8;
  const Outcome got =
      RunPipeline(XiamiLike(0.5), 7, 4, ScalerKind::kRand, kClp, opts);
  ExpectGolden(got, 0x64065ed69ce39829ULL,
               {{3458, 0, 0, 0},
                {8999, 12416, 869, 21415},
                {417, 4311, 243, 9456}});
}

TEST(GoldenTest, XiamiClpBatchedRoutedParallel) {
  CoordinatorOptions opts;
  opts.seed = 8;
  opts.iterations = 3;
  opts.batch_auto = true;
  opts.route_votes = RouteVotes::kOn;
  opts.parallel_pass = true;
  opts.pass_threads = 4;
  const Outcome got =
      RunPipeline(XiamiLike(0.5), 7, 4, ScalerKind::kRand, kClp, opts);
  ExpectGolden(got, 0xc442fd793b25d2c7ULL,
               {{3458, 0, 0, 0, 0},
                {6677, 12972, 778, 19649, 0},
                {344, 3527, 217, 7742, 0},
                {1284, 654, 288, 3798, 944},
                {2389, 4423, 352, 13624, 1644},
                {191, 1724, 109, 3828, 0},
                {498, 343, 127, 1650, 348},
                {1113, 2189, 163, 6604, 721},
                {137, 1393, 84, 3060, 0}});
}

TEST(GoldenTest, DoubanDscalerLpcRollback) {
  CoordinatorOptions opts;
  opts.seed = 12;
  opts.iterations = 2;
  opts.rollback_on_regression = true;
  const Outcome got = RunPipeline(DoubanMovieLike(0.5), 11, 6,
                                  ScalerKind::kDscaler, kLpc, opts);
  ExpectGolden(got, 0x21b0b843c0eb1269ULL,
               {{3477, 0, 0, 0},
                {723, 3506, 188, 4229},
                {3389, 1139, 515, 9056},
                {1810, 1947, 201, 7514},
                {0, 0, 0, 0},
                {3404, 1129, 481, 9066}});
  bool rolled_back = false;
  for (const ToolReport& s : got.report.steps) rolled_back |= s.rolled_back;
  EXPECT_TRUE(rolled_back) << "no step of the scenario rolled back";
}

// The same pipeline with auto-tuned batches instead of rollback: it is
// the config that pins coappear's broadcast reference evacuation (one
// ReplaceValues re-pointing several referrers at once). Its constants
// were captured while evacuation still scanned the child tables.
TEST(GoldenTest, DoubanDscalerLpcBatched) {
  CoordinatorOptions opts;
  opts.seed = 12;
  opts.iterations = 2;
  opts.batch_auto = true;
  const Outcome got = RunPipeline(DoubanMovieLike(0.5), 11, 6,
                                  ScalerKind::kDscaler, kLpc, opts);
  ExpectGolden(got, 0xae9dce8d81649ae6ULL,
               {{886, 0, 0, 0},
                {575, 2273, 127, 2801},
                {3357, 1257, 524, 7920},
                {1621, 3800, 280, 10842},
                {323, 4084, 203, 8798},
                {556, 869, 171, 2818}});
}

}  // namespace
}  // namespace aspect
