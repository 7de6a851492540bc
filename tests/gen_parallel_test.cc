// Determinism contract of the parallel stage-1 pipeline (DESIGN.md
// §12): generating, materializing, size-scaling, sampling, and
// verifying a dataset must be BITWISE identical at every --gen-threads
// setting. Each case runs the same pipeline at 1, 2, and 8 shard
// workers and compares full-database content hashes; a mismatch means
// a shard stream leaked state across the worker count and would
// silently destroy reproducibility of every experiment.
#include <gtest/gtest.h>

#include <vector>

#include "measure/runner.h"
#include "relational/fingerprint.h"
#include "relational/integrity.h"
#include "scaler/size_scaler.h"
#include "stats/sampler.h"
#include "workload/blueprint.h"
#include "workload/generator.h"

namespace aspect {
namespace {

constexpr int kThreadGrid[] = {1, 2, 8};

/// Runs generate -> materialize(1,3) -> scale -> verify at the given
/// worker count and returns the content hashes of every database the
/// pipeline touched.
std::vector<uint64_t> PipelineHashes(const DatasetBlueprint& blueprint,
                                     const SizeScaler& scaler,
                                     uint64_t seed, int threads) {
  const GenOptions gen{threads};
  auto snapshots = GenerateDataset(blueprint, seed, gen).ValueOrAbort();
  auto source = snapshots.Materialize(1, gen).ValueOrAbort();
  auto truth = snapshots.Materialize(3, gen).ValueOrAbort();
  auto scaled =
      scaler.Scale(*source, snapshots.SnapshotSizes(3), seed, gen)
          .ValueOrAbort();
  IntegrityOptions verify;
  verify.threads = threads;
  CheckIntegrity(*scaled, verify).Check();
  return {ContentHash(*source), ContentHash(*truth),
          ContentHash(*scaled)};
}

void ExpectThreadCountInvariant(const DatasetBlueprint& blueprint,
                                const SizeScaler& scaler, uint64_t seed) {
  const std::vector<uint64_t> golden =
      PipelineHashes(blueprint, scaler, seed, kThreadGrid[0]);
  for (size_t i = 1; i < std::size(kThreadGrid); ++i) {
    EXPECT_EQ(PipelineHashes(blueprint, scaler, seed, kThreadGrid[i]),
              golden)
        << "stage-1 output depends on gen_threads=" << kThreadGrid[i];
  }
}

TEST(GenParallelTest, XiamiRandPipelineIsThreadCountInvariant) {
  ExpectThreadCountInvariant(XiamiLike(1.0), RandScaler(), 41);
}

TEST(GenParallelTest, XiamiDscalerPipelineIsThreadCountInvariant) {
  ExpectThreadCountInvariant(XiamiLike(0.5), DscalerScaler(), 42);
}

TEST(GenParallelTest, DoubanMusicDscalerPipelineIsThreadCountInvariant) {
  ExpectThreadCountInvariant(DoubanMusicLike(0.5), DscalerScaler(), 43);
}

TEST(GenParallelTest, DoubanRexPipelineIsThreadCountInvariant) {
  ExpectThreadCountInvariant(DoubanMovieLike(0.5), RexScaler(), 44);
}

TEST(GenParallelTest, XiamiDownScalingIsThreadCountInvariant) {
  // Scaling D3 down to D1's sizes: every table shrinks, so Dscaler
  // uses only a prefix of the source templates and squeezes FK ids
  // into smaller parent domains, and Rand draws from those domains.
  const GenOptions serial{1};
  auto snapshots =
      GenerateDataset(XiamiLike(0.5), 45, serial).ValueOrAbort();
  auto source = snapshots.Materialize(3, serial).ValueOrAbort();
  const std::vector<int64_t> down = snapshots.SnapshotSizes(1);
  const DscalerScaler dscaler;
  const RandScaler rand;
  for (const SizeScaler* scaler :
       std::initializer_list<const SizeScaler*>{&dscaler, &rand}) {
    auto small = scaler->Scale(*source, down, 45, serial).ValueOrAbort();
    CheckIntegrity(*small).Check();
    for (int t = 0; t < small->num_tables(); ++t) {
      EXPECT_EQ(small->table(t).NumTuples(), down[static_cast<size_t>(t)])
          << scaler->name() << " " << small->table(t).name();
    }
    const uint64_t golden = ContentHash(*small);
    for (const int threads : {2, 8}) {
      const GenOptions gen{threads};
      EXPECT_EQ(
          ContentHash(*scaler->Scale(*source, down, 45, gen).ValueOrAbort()),
          golden)
          << scaler->name() << " at gen_threads=" << threads;
    }
  }
}

TEST(GenParallelTest, NestedSamplesAreThreadCountInvariant) {
  const GenOptions serial{1};
  auto snapshots =
      GenerateDataset(XiamiLike(0.5), 46, serial).ValueOrAbort();
  auto db = snapshots.Materialize(3, serial).ValueOrAbort();
  const std::vector<double> fractions = {0.25, 0.5, 0.75};
  auto golden = NestedSamples(*db, fractions, 7, serial).ValueOrAbort();
  for (const int threads : {2, 8}) {
    const GenOptions gen{threads};
    auto got = NestedSamples(*db, fractions, 7, gen).ValueOrAbort();
    ASSERT_EQ(got.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(ContentHash(*got[i]), ContentHash(*golden[i]));
    }
  }
}

TEST(GenParallelTest, RunnerReportsPhaseSeconds) {
  ExperimentConfig config;
  config.blueprint = XiamiLike(0.5);
  config.seed = 9;
  config.target_snapshot = 3;
  config.scaler = "Rand";
  config.gen_threads = 8;
  config.iterations = 1;
  const ExperimentResult result =
      RunExperiment(config).ValueOrAbort();
  EXPECT_GT(result.generate_seconds, 0.0);
  EXPECT_GT(result.scale_seconds, 0.0);
  EXPECT_GT(result.verify_seconds, 0.0);
}

}  // namespace
}  // namespace aspect
