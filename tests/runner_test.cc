// Tests for src/measure: the experiment runner (the full paper
// pipeline in one call) and dataset profiling.
#include <gtest/gtest.h>

#include "measure/profile.h"
#include "measure/runner.h"
#include "workload/generator.h"

namespace aspect {
namespace {

TEST(RunnerTest, PermutationLabels) {
  EXPECT_EQ(SixPermutations().size(), 6u);
  const auto order = OrderFromLabel("C-L-P").ValueOrAbort();
  EXPECT_EQ(order,
            (std::vector<std::string>{"coappear", "linear", "pairwise"}));
  EXPECT_FALSE(OrderFromLabel("X-Y-Z").ok());
  EXPECT_FALSE(OrderFromLabel("C-L").ok());
}

TEST(RunnerTest, FullPipelineReducesErrors) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.3);
  config.seed = 5;
  config.scaler = "Rand";
  config.order = OrderFromLabel("C-L-P").ValueOrAbort();
  config.run_queries = true;
  const ExperimentResult r = RunExperiment(config).ValueOrAbort();
  EXPECT_GT(r.before.linear, r.after.linear);
  EXPECT_GT(r.before.coappear, r.after.coappear);
  EXPECT_GT(r.before.pairwise, r.after.pairwise);
  EXPECT_LT(r.after.pairwise, 1e-6);  // last tool is exact
  ASSERT_EQ(r.query_errors_after.size(), 4u);
  double sum_before = 0, sum_after = 0;
  for (const auto& [name, err] : r.query_errors_before) sum_before += err;
  for (const auto& [name, err] : r.query_errors_after) sum_after += err;
  EXPECT_LT(sum_after, sum_before);
  EXPECT_GT(r.tweak_seconds, 0.0);
}

TEST(RunnerTest, NoTweakBaseline) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.3);
  config.seed = 5;
  config.scaler = "Rand";
  config.tweak = false;
  const ExperimentResult r = RunExperiment(config).ValueOrAbort();
  EXPECT_EQ(r.before.linear, r.after.linear);
  EXPECT_GT(r.before.linear, 0.0);
  EXPECT_TRUE(r.report.steps.empty());
}

TEST(RunnerTest, RexTargetsRepairedAutomatically) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.3);
  config.seed = 6;
  config.scaler = "ReX";
  config.order = OrderFromLabel("P-C-L").ValueOrAbort();
  const ExperimentResult r = RunExperiment(config).ValueOrAbort();
  EXPECT_LT(r.after.linear, 0.01);  // linear last: near exact
  EXPECT_LT(r.after.coappear, r.before.coappear + 1e-12);
}

TEST(RunnerTest, UnknownScalerRejected) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.2);
  config.scaler = "Magic";
  EXPECT_FALSE(RunExperiment(config).ok());
}

TEST(RunnerTest, UnknownToolRejected) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.2);
  config.order = {"linear", "magic", "pairwise"};
  EXPECT_FALSE(RunExperiment(config).ok());
}

TEST(RunnerTest, NegativeGenThreadsRejected) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.2);
  config.gen_threads = -1;
  const Result<ExperimentResult> r = RunExperiment(config);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("gen_threads"), std::string::npos);
}

TEST(RunnerTest, NegativePassThreadsRejected) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.2);
  config.pass_threads = -2;
  const Result<ExperimentResult> r = RunExperiment(config);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("pass_threads"), std::string::npos);
}

TEST(RunnerTest, ZeroBatchSizeRejected) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.2);
  config.batch_size = 0;
  const Result<ExperimentResult> r = RunExperiment(config);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("batch_size"), std::string::npos);
}

TEST(RunnerTest, ZeroIterationsRejected) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.2);
  config.iterations = 0;
  const Result<ExperimentResult> r = RunExperiment(config);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("iterations"), std::string::npos);
}

TEST(RunnerTest, DeterministicInSeed) {
  ExperimentConfig config;
  config.blueprint = DoubanMusicLike(0.25);
  config.seed = 9;
  config.scaler = "Dscaler";
  const ExperimentResult a = RunExperiment(config).ValueOrAbort();
  const ExperimentResult b = RunExperiment(config).ValueOrAbort();
  EXPECT_DOUBLE_EQ(a.after.linear, b.after.linear);
  EXPECT_DOUBLE_EQ(a.after.coappear, b.after.coappear);
  EXPECT_DOUBLE_EQ(a.after.pairwise, b.after.pairwise);
}

TEST(ProfileTest, SummarizesStructureAndStatistics) {
  auto gen = GenerateDataset(DoubanMovieLike(0.4), 7).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  const DatasetProfile profile = ProfileDataset(*db).ValueOrAbort();
  EXPECT_EQ(profile.name, "DoubanMovieLike");
  EXPECT_EQ(profile.table_sizes.size(), 17u);
  EXPECT_EQ(profile.total_tuples, db->TotalTuples());
  // One edge per FK column, each over live tuples only.
  size_t fk_columns = 0;
  for (const TableSpec& t : db->schema().tables) {
    for (const ColumnSpec& c : t.columns) {
      fk_columns += c.type == ColumnType::kForeignKey;
    }
  }
  EXPECT_EQ(profile.edges.size(), fk_columns);
  for (const EdgeProfile& e : profile.edges) {
    EXPECT_GE(e.max_fanout, 1) << e.child;
    EXPECT_LE(e.parents_hit, e.parents) << e.child;
    EXPECT_GT(e.children, 0) << e.child;
  }
  // The schema's structural counts (see BlueprintCountTest).
  EXPECT_EQ(profile.chains.size(), 24u);
  EXPECT_EQ(profile.coappear_groups.size(), 6u);
  EXPECT_EQ(profile.response_specs.size(), 2u);
  const std::string text = profile.ToString();
  EXPECT_NE(text.find("Trailer_Comment"), std::string::npos);
  EXPECT_NE(text.find("maximal reference chains"), std::string::npos);
}

TEST(ProfileTest, SocialProfileListsResponses) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 8).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  const DatasetProfile profile = ProfileDataset(*db).ValueOrAbort();
  EXPECT_EQ(profile.response_specs.size(), 1u);
  EXPECT_NE(profile.ToString().find("Review_Comment"), std::string::npos);
}

}  // namespace
}  // namespace aspect
