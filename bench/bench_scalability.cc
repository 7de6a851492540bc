// Ablation: scalability of the full pipeline. Fig. 17/35 show
// execution time growing linearly with dataset size across snapshots;
// this bench extends the claim across generator scales 1-16 (2x more
// data per step) on two workloads - Rand-XiamiLike D1->D4 C-L-P and
// Dscaler-DoubanMovieLike D1->D6 L-P-C - and reports tweaking
// throughput per scale. Each scale runs kRuns times and reports the
// median tweak time, since one run per scale scatters too widely to fit
// a growth exponent. BENCH_scalability.json carries each scale's
// tuples, tweak_s and tuples_per_s as metrics "<prefix>scale_<s>_
// <field>", prefix "" for XiamiLike and "douban_" for DoubanMovieLike,
// the median run's ToolReport::seconds summed per tool as "<prefix>scale_
// <s>_<tool>_s", and the least-squares exponent of tweak_s against
// tuples as "<prefix>tweak_exponent".
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "aspect/coordinator.h"
#include "bench_util.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

using namespace aspect;
using namespace aspect::bench;

namespace {

struct Sweep {
  const char* banner;
  const char* prefix;
  DatasetBlueprint (*blueprint)(double);
  int target_snapshot;
  const char* scaler;
  const char* order;
};

const Sweep kSweeps[] = {
    {"Ablation: pipeline scalability (Rand-XiamiLike, C-L-P, D4)", "",
     XiamiLike, 4, "Rand", "C-L-P"},
    {"Ablation: pipeline scalability (Dscaler-DoubanMovieLike, L-P-C, D6)",
     "douban_", DoubanMovieLike, 6, "Dscaler", "L-P-C"},
};

constexpr int kRuns = 3;
const char* const kTools[] = {"linear", "coappear", "pairwise"};

/// Slope of log(y) against log(x) by least squares.
double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = 0, my = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx += std::log(x[i]) / static_cast<double>(x.size());
    my += std::log(y[i]) / static_cast<double>(y.size());
  }
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (std::log(x[i]) - mx) * (std::log(y[i]) - my);
    sxx += (std::log(x[i]) - mx) * (std::log(x[i]) - mx);
  }
  return sxy / sxx;
}

}  // namespace

int main() {
  BenchReport report("scalability");
  for (const Sweep& sweep : kSweeps) {
    Banner(sweep.banner);
    Header({"scale", "tuples", "tweak-s", "tuples/s", "L-s", "C-s", "P-s",
            "err-L", "err-C", "err-P"});
    std::vector<double> sizes;
    std::vector<double> times;
    for (const int scale : {1, 2, 4, 8, 16}) {
      ExperimentConfig c;
      c.blueprint = sweep.blueprint(scale);
      c.seed = kSeed;
      c.source_snapshot = 1;
      c.target_snapshot = sweep.target_snapshot;
      c.scaler = sweep.scaler;
      c.order = OrderFromLabel(sweep.order).ValueOrAbort();
      std::vector<ExperimentResult> runs;
      while (static_cast<int>(runs.size()) < kRuns) {
        runs.push_back(RunExperiment(c).ValueOrAbort());
      }
      std::ranges::sort(runs, {}, &ExperimentResult::tweak_seconds);
      const ExperimentResult& r = runs[runs.size() / 2];
      const double tweak_s = r.tweak_seconds;
      // Tuple count of the tweaked dataset.
      auto gen = GenerateDataset(c.blueprint, c.seed).ValueOrAbort();
      int64_t tuples = 0;
      for (const int64_t s : gen.SnapshotSizes(c.target_snapshot)) {
        tuples += s;
      }
      const double tuples_per_s =
          static_cast<double>(tuples) / std::max(1e-9, tweak_s);
      sizes.push_back(static_cast<double>(tuples));
      times.push_back(std::max(1e-9, tweak_s));
      report.AddTuples(tuples * kRuns);
      const std::string key =
          sweep.prefix + std::string("scale_") + std::to_string(scale) + "_";
      report.Metric(key + "tuples", static_cast<double>(tuples));
      report.Metric(key + "tweak_s", tweak_s);
      report.Metric(key + "tuples_per_s", tuples_per_s);
      Cell(std::to_string(scale));
      Cell(std::to_string(tuples));
      Cell(tweak_s);
      Cell(tuples_per_s);
      for (const char* tool : kTools) {
        double seconds = 0;
        for (const ToolReport& step : r.report.steps) {
          if (step.tool == tool) seconds += step.seconds;
        }
        report.Metric(key + tool + "_s", seconds);
        Cell(seconds);
      }
      Cell(r.after.linear);
      Cell(r.after.coappear);
      Cell(r.after.pairwise);
      EndRow();
    }
    const double exponent = LogLogSlope(sizes, times);
    report.Metric(sweep.prefix + std::string("tweak_exponent"), exponent);
    std::printf("least-squares exponent of median tweak time: %.3f\n",
                exponent);
  }

  // How the order search scales with workers: the six candidate
  // permutations probed serially and with one worker per core.
  Banner("Order-search scalability (CompareOrders, Rand-XiamiLike D4)");
  Header({"scale", "threads", "seconds", "speedup"});
  for (const double scale : {0.25, 0.5}) {
    auto gen = GenerateDataset(XiamiLike(scale), kSeed).ValueOrAbort();
    auto truth = gen.Materialize(4).ValueOrAbort();
    RandScaler rand;
    auto base = rand.Scale(*gen.Materialize(1).ValueOrAbort(),
                           gen.SnapshotSizes(4), kSeed)
                    .ValueOrAbort();
    Coordinator coordinator;
    coordinator.AddTool(
        std::make_unique<LinearPropertyTool>(truth->schema()));
    coordinator.AddTool(
        std::make_unique<CoappearPropertyTool>(truth->schema()));
    coordinator.AddTool(
        std::make_unique<PairwisePropertyTool>(truth->schema()));
    coordinator.SetTargetsFromDataset(*truth).Check();
    std::vector<std::vector<int>> orders;
    for (const auto& [label, order] :
         AllPermutations(coordinator, {0, 1, 2})) {
      orders.push_back(order);
    }
    double serial_seconds = 0;
    for (const int threads : {1, 0}) {
      CoordinatorOptions opts;
      opts.seed = kSeed;
      opts.order_search_threads = threads;
      const auto t0 = std::chrono::steady_clock::now();
      coordinator.CompareOrders(*base, orders, opts).ValueOrAbort();
      const double seconds =
          std::chrono::duration<double>(
              std::chrono::steady_clock::now() - t0)
              .count();
      if (threads == 1) serial_seconds = seconds;
      Cell(scale);
      Cell(std::to_string(threads));
      Cell(seconds);
      Cell(serial_seconds / std::max(1e-9, seconds));
      EndRow();
    }
  }
  return 0;
}
