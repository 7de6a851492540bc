// Golden output of the stage-2 coordinator on three small pipelines.
// The constants were captured from the coordinator as it stood before
// its parallel-group and rollback paths were restructured; a refactor of
// Coordinator::Run must reproduce them exactly — the output database
// bit for bit (ContentHash) and every step's vote counters.
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
  ExpectGolden(got, 0xfe1f909a8639c776ULL,
               {{3458, 0, 0, 0},
                {9184, 13073, 936, 22257},
                {440, 4612, 255, 10104}});
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
  ExpectGolden(got, 0xc3bd115f5aed4e5aULL,
               {{3458, 0, 0, 0},
                {6949, 13821, 838, 20770},
                {364, 3890, 233, 8506},
                {1336, 770, 309, 4096},
                {2299, 3525, 335, 11648},
                {161, 1792, 101, 3906},
                {510, 338, 97, 1656},
                {946, 1660, 165, 5212},
                {137, 1139, 68, 2552}});
}

TEST(GoldenTest, DoubanDscalerLpcRollback) {
  CoordinatorOptions opts;
  opts.seed = 12;
  opts.iterations = 2;
  opts.rollback_on_regression = true;
  const Outcome got = RunPipeline(DoubanMovieLike(0.5), 11, 6,
                                  ScalerKind::kDscaler, kLpc, opts);
  ExpectGolden(got, 0x632f698b2bd6a108ULL,
               {{3477, 0, 0, 0},
                {727, 3613, 197, 4340},
                {3430, 1012, 508, 8884},
                {2791, 4862, 490, 15306},
                {168, 2077, 99, 4490},
                {106, 401, 65, 1014}});
  bool rolled_back = false;
  for (const ToolReport& s : got.report.steps) rolled_back |= s.rolled_back;
  EXPECT_TRUE(rolled_back) << "no step of the scenario rolled back";
}

}  // namespace
}  // namespace aspect
