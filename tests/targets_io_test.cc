// Tests for target persistence: save every tool's targets, reload them
// into fresh tools, and verify the tweak outcome is identical to using
// the ground truth directly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "aspect/targets_io.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "properties/simple.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

std::string TempFile(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Coordinator MakeCoordinator(const Schema& schema) {
  Coordinator c;
  c.AddTool(std::make_unique<LinearPropertyTool>(schema));
  c.AddTool(std::make_unique<CoappearPropertyTool>(schema));
  c.AddTool(std::make_unique<PairwisePropertyTool>(schema));
  return c;
}

TEST(TargetsIoTest, RoundTripPreservesTargets) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 71).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  Coordinator original = MakeCoordinator(truth->schema());
  original.SetTargetsFromDataset(*truth).Check();
  const std::string path = TempFile("aspect_targets_roundtrip.txt");
  ASSERT_TRUE(SaveTargets(original, path).ok());

  Coordinator restored = MakeCoordinator(truth->schema());
  ASSERT_TRUE(LoadTargets(&restored, path).ok());

  // Targets must be byte-identical when re-serialized.
  const std::string again = TempFile("aspect_targets_roundtrip2.txt");
  ASSERT_TRUE(SaveTargets(restored, again).ok());
  std::ifstream a(path), b(again);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_GT(sa.str().size(), 100u);
  std::filesystem::remove(path);
  std::filesystem::remove(again);
}

TEST(TargetsIoTest, LoadedTargetsDriveTweakingLikeGroundTruth) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 73).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto scaled_a = scaler
                      .Scale(*gen.Materialize(2).ValueOrAbort(),
                             gen.SnapshotSizes(4), 73)
                      .ValueOrAbort();
  auto scaled_b = scaled_a->Clone();

  const std::string path = TempFile("aspect_targets_drive.txt");
  Coordinator with_truth = MakeCoordinator(truth->schema());
  with_truth.SetTargetsFromDataset(*truth).Check();
  ASSERT_TRUE(SaveTargets(with_truth, path).ok());

  Coordinator with_file = MakeCoordinator(truth->schema());
  ASSERT_TRUE(LoadTargets(&with_file, path).ok());

  CoordinatorOptions opts;
  opts.seed = 9;
  const auto ra =
      with_truth.Run(scaled_a.get(), {1, 2, 0}, opts).ValueOrAbort();
  const auto rb =
      with_file.Run(scaled_b.get(), {1, 2, 0}, opts).ValueOrAbort();
  ASSERT_EQ(ra.final_errors.size(), rb.final_errors.size());
  for (size_t i = 0; i < ra.final_errors.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.final_errors[i], rb.final_errors[i]) << i;
  }
  std::filesystem::remove(path);
}

TEST(TargetsIoTest, ErrorsDiagnosed) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 3).ValueOrAbort();
  Coordinator c = MakeCoordinator(gen.schema());
  EXPECT_FALSE(LoadTargets(&c, "/no/such/file").ok());
  // Corrupt file.
  const std::string path = TempFile("aspect_targets_bad.txt");
  {
    std::ofstream out(path);
    out << "aspect-targets v1\ntool nonsense\n";
  }
  EXPECT_FALSE(LoadTargets(&c, path).ok());
  {
    std::ofstream out(path);
    out << "wrong header\n";
  }
  EXPECT_FALSE(LoadTargets(&c, path).ok());
  std::filesystem::remove(path);
}

TEST(TargetsIoTest, ToolsWithoutPersistenceAreSkipped) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 4).ValueOrAbort();
  auto truth = gen.Materialize(2).ValueOrAbort();
  Coordinator c;
  c.AddTool(std::make_unique<LinearPropertyTool>(truth->schema()));
  // ColumnFreqTool has no SaveTarget: it must be skipped, not fail.
  c.AddTool(std::make_unique<ColumnFreqTool>(truth->schema(), "User",
                                             "gender"));
  c.SetTargetsFromDataset(*truth).Check();
  const std::string path = TempFile("aspect_targets_skip.txt");
  ASSERT_TRUE(SaveTargets(c, path).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("tool linear"), std::string::npos);
  EXPECT_EQ(ss.str().find("freq:"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(FreqDistIoTest, WriteReadRoundTrip) {
  FrequencyDistribution d(3);
  d.Add({1, 2, 3}, 4);
  d.Add({0, 0, 9}, -2);
  std::stringstream ss;
  d.Write(&ss);
  const auto back = FrequencyDistribution::Read(&ss, 3).ValueOrAbort();
  EXPECT_EQ(back, d);
  // Corrupt input.
  std::stringstream bad("dist x");
  EXPECT_FALSE(FrequencyDistribution::Read(&bad, 2).ok());
  std::stringstream truncated("dist 2 3\n1 2 5\n");
  EXPECT_FALSE(FrequencyDistribution::Read(&truncated, 2).ok());
}

// A header whose dimension is not the caller's is rejected before any
// key is read, so a target file cannot size the reader's allocations.
TEST(TargetsIoTest, WrongDimensionIsAnIoError) {
  std::stringstream wide("dist 3 1\n1 2 3 4\n");
  EXPECT_EQ(FrequencyDistribution::Read(&wide, 2).status().code(),
            StatusCode::kIoError);

  auto gen = GenerateDataset(DoubanMusicLike(0.2), 5).ValueOrAbort();
  PairwisePropertyTool pairwise(gen.schema());
  ASSERT_GT(pairwise.num_specs(), 0);
  std::stringstream rho("pairwise " + std::to_string(pairwise.num_specs()) +
                        "\nspec 10\ndist 3 0\ndist 1 0\n");
  EXPECT_EQ(pairwise.LoadTarget(&rho).code(), StatusCode::kIoError);
  std::stringstream self("pairwise " +
                         std::to_string(pairwise.num_specs()) +
                         "\nspec 10\ndist 2 0\ndist 2 0\n");
  EXPECT_EQ(pairwise.LoadTarget(&self).code(), StatusCode::kIoError);
}

// Coappear's group header must name the group's own parent and member
// counts, and its distribution the member count as dimension.
TEST(TargetsIoTest, WrongParentOrMemberCountIsAnIoError) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 5).ValueOrAbort();
  CoappearPropertyTool tool(gen.schema());
  ASSERT_FALSE(tool.groups().empty());
  const size_t parents = tool.groups()[0].parent_tables.size();
  const size_t members = tool.groups()[0].member_tables.size();
  // "<n> 4 4 ... 4": a count and n sizes.
  auto sizes = [](size_t n) {
    std::string out = std::to_string(n);
    for (size_t i = 0; i < n; ++i) out += " 4";
    return out + " ";
  };
  const std::string head =
      "coappear " + std::to_string(tool.groups().size()) + "\ngroup ";
  std::stringstream more_parents(head + sizes(parents + 1) + sizes(members));
  EXPECT_EQ(tool.LoadTarget(&more_parents).code(), StatusCode::kIoError);
  std::stringstream more_members(head + sizes(parents) + sizes(members + 1));
  EXPECT_EQ(tool.LoadTarget(&more_members).code(), StatusCode::kIoError);
  std::stringstream wider(head + sizes(parents) + sizes(members) + "\ndist " +
                          std::to_string(members + 1) + " 0\n");
  EXPECT_EQ(tool.LoadTarget(&wider).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace aspect
