// Ablation: the rollback-on-regression safety net (an extension beyond
// the paper's O4 accepted-error policy). Compares each permutation's
// final errors and rollback overhead on Rand-Xiami with the safety net
// off and on. A regressed step is restored by reverting its
// modification log, O(modifications) rather than O(database); rb_s
// shows what the safety net itself costs and `undone` how many
// modifications it reverted.
#include "aspect/coordinator.h"
#include "bench_util.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

using namespace aspect;
using namespace aspect::bench;

int main() {
  BenchReport report("ablation_rollback");
  auto gen = GenerateDataset(XiamiLike(0.4), kSeed).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler rand;
  auto base = rand.Scale(*gen.Materialize(1).ValueOrAbort(),
                         gen.SnapshotSizes(4), kSeed)
                  .ValueOrAbort();

  Banner("Ablation: rollback-on-regression (Rand-XiamiLike, D4)");
  Header({"order", "tot(off)", "tot(undo)", "rb_s(undo)", "undone"});
  for (const std::string& label : SixPermutations()) {
    double totals[2] = {0, 0};
    double rollback_seconds = 0;
    int64_t undone_mods = 0;
    for (const bool rollback : {false, true}) {
      auto scaled = base->Clone();
      Coordinator coordinator;
      coordinator.AddTool(
          std::make_unique<LinearPropertyTool>(truth->schema()));
      coordinator.AddTool(
          std::make_unique<CoappearPropertyTool>(truth->schema()));
      coordinator.AddTool(
          std::make_unique<PairwisePropertyTool>(truth->schema()));
      coordinator.SetTargetsFromDataset(*truth).Check();
      std::vector<int> order;
      for (const std::string& tool :
           OrderFromLabel(label).ValueOrAbort()) {
        order.push_back(coordinator.FindTool(tool));
      }
      CoordinatorOptions opts;
      opts.seed = kSeed;
      opts.rollback_on_regression = rollback;
      const RunReport report =
          coordinator.Run(scaled.get(), order, opts).ValueOrAbort();
      for (const double e : report.final_errors) totals[rollback] += e;
      for (const ToolReport& s : report.steps) {
        rollback_seconds += s.rollback_seconds;
        if (s.rolled_back) undone_mods += s.rollback_mods;
      }
    }
    Cell(label);
    Cell(totals[0]);
    Cell(totals[1]);
    Cell(rollback_seconds);
    Cell(std::to_string(undone_mods));
    EndRow();
  }
  return 0;
}
