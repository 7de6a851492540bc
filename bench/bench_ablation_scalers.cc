// Ablation: size-scaler comparison. Stage 1 of ASPECT is pluggable
// (Sec. III-A: "S0 could be any tool"); this bench compares the
// paper's three scalers (Dscaler, ReX, Rand) by the property errors
// they leave *before* tweaking and by where C-P-L tweaking lands
// afterwards.
//
// Expected shape: Rand leaves the largest initial error on every
// property. Dscaler leaves the smallest linear and pairwise errors,
// and ReX's coappear error is about Dscaler's. After tweaking, linear
// (run last) is exact for all three and every residual falls, but the
// ranking of the start largely survives: Dscaler ends lowest on
// coappear and pairwise, and ReX ends with the largest pairwise
// residual.
#include "bench_util.h"

using namespace aspect;
using namespace aspect::bench;

int main() {
  BenchReport report("ablation_scalers");
  Banner("Ablation: size-scalers before/after tweaking "
         "(DoubanMusicLike, D4, C-P-L)");
  Header({"scaler", "L-before", "L-after", "C-before", "C-after",
          "P-before", "P-after", "tweak-s"});
  for (const char* scaler :
       {"Dscaler", "ReX", "Rand"}) {
    ExperimentConfig c;
    c.blueprint = DoubanMusicLike(0.5);
    c.seed = kSeed;
    c.source_snapshot = 1;
    c.target_snapshot = 4;
    c.scaler = scaler;
    c.order = OrderFromLabel("C-P-L").ValueOrAbort();
    const ExperimentResult r = RunExperiment(c).ValueOrAbort();
    Cell(scaler);
    Cell(r.before.linear);
    Cell(r.after.linear);
    Cell(r.before.coappear);
    Cell(r.after.coappear);
    Cell(r.before.pairwise);
    Cell(r.after.pairwise);
    Cell(r.tweak_seconds);
    EndRow();
  }
  return 0;
}
