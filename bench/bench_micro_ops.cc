// Google-benchmark microbenches of the substrate hot paths: uniform
// API modifications, incremental ChainStats maintenance, frequency-
// distribution updates, and the three size-scalers.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "properties/chain_stats.h"
#include "relational/refgraph.h"
#include "scaler/size_scaler.h"
#include "stats/freq_dist.h"
#include "workload/generator.h"

namespace aspect {
namespace {

const SnapshotSet& SharedDataset() {
  static SnapshotSet* set = [] {
    auto gen = GenerateDataset(DoubanMusicLike(0.5), 7).ValueOrAbort();
    return new SnapshotSet(std::move(gen));
  }();
  return *set;
}

void BM_ReplaceValues(benchmark::State& state) {
  auto db = SharedDataset().Materialize(3).ValueOrAbort();
  Table* t = db->FindTable("Album_Heard");
  const int64_t albums = db->FindTable("Album")->NumTuples();
  Rng rng(1);
  for (auto _ : state) {
    const TupleId tid = rng.UniformInt(0, t->NumTuples() - 1);
    const Modification mod = Modification::ReplaceValues(
        "Album_Heard", {tid}, {0}, {Value(rng.UniformInt(0, albums - 1))});
    benchmark::DoNotOptimize(db->Apply(mod));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplaceValues);

void BM_InsertDeleteTuple(benchmark::State& state) {
  auto db = SharedDataset().Materialize(3).ValueOrAbort();
  Rng rng(2);
  const int64_t albums = db->FindTable("Album")->NumTuples();
  const int64_t users = db->FindTable("User")->NumTuples();
  for (auto _ : state) {
    TupleId nt = kInvalidTuple;
    db->Apply(Modification::InsertTuple(
                  "Album_Heard",
                  {Value(rng.UniformInt(0, albums - 1)),
                   Value(rng.UniformInt(0, users - 1)), Value(int64_t{1})}),
              &nt)
        .Check();
    db->Apply(Modification::DeleteTuple("Album_Heard", nt)).Check();
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_InsertDeleteTuple);

void BM_ChainStatsMove(benchmark::State& state) {
  auto db = SharedDataset().Materialize(3).ValueOrAbort();
  ReferenceGraph graph(db->schema());
  const auto chains = graph.MaximalChains();
  const ReferenceChain* chain = &chains[0];
  for (const auto& c : chains) {
    if (c.length() > chain->length()) chain = &c;
  }
  LinearStats stats({*chain});
  stats.Build(*db);
  const int level = chain->length() - 1;
  const int edge = stats.EdgeAt(0, level);
  const Table& top =
      db->table(chain->tables[static_cast<size_t>(level)]);
  const Table& parent =
      db->table(chain->tables[static_cast<size_t>(level - 1)]);
  Rng rng(3);
  for (auto _ : state) {
    const TupleId child = rng.UniformInt(0, top.NumTuples() - 1);
    const TupleId new_parent = rng.UniformInt(0, parent.NumTuples() - 1);
    stats.Detach(edge, child);
    stats.Attach(edge, child, new_parent);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainStatsMove);

void BM_JoinMatrixFromScratch(benchmark::State& state) {
  auto db = SharedDataset().Materialize(3).ValueOrAbort();
  ReferenceGraph graph(db->schema());
  const auto chains = graph.MaximalChains();
  for (auto _ : state) {
    for (const auto& chain : chains) {
      benchmark::DoNotOptimize(ComputeJoinMatrix(*db, chain));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(chains.size()) *
                          state.iterations());
}
BENCHMARK(BM_JoinMatrixFromScratch);

void BM_FreqDistAdd(benchmark::State& state) {
  FrequencyDistribution dist(3);
  Rng rng(4);
  for (auto _ : state) {
    dist.Add({rng.UniformInt(0, 9), rng.UniformInt(0, 9),
              rng.UniformInt(0, 9)},
             1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreqDistAdd);

void BM_Scaler(benchmark::State& state) {
  const auto& set = SharedDataset();
  auto source = set.Materialize(2).ValueOrAbort();
  const auto targets = set.SnapshotSizes(4);
  const auto scalers = BuiltinScalers();
  const SizeScaler& scaler = *scalers[static_cast<size_t>(state.range(0))];
  int64_t tuples = 0;
  for (auto _ : state) {
    auto scaled = scaler.Scale(*source, targets, 5).ValueOrAbort();
    tuples += scaled->TotalTuples();
    benchmark::DoNotOptimize(scaled);
  }
  state.SetItemsProcessed(tuples);
  state.SetLabel(scaler.name());
}
BENCHMARK(BM_Scaler)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace aspect

// Expanded BENCHMARK_MAIN so the run is wrapped in a BenchReport like
// every other bench binary.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  aspect::bench::BenchReport report("micro_ops");
  report.Phase("benchmarks");
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
