// Experiment runner: the shared harness behind every bench binary.
// One experiment = the paper's full pipeline (Sec. VI):
//
//   D_source --size-scaler--> D~0 --T_a, T_b, T_c (a permutation)--> D~
//
// with targets extracted from the ground-truth snapshot D_target,
// repaired onto the feasible set when the scaler missed the sizes
// (ReX), and errors measured with the paper's per-property measures
// plus the Q1-Q4 query errors.
#pragma once

#include <string>
#include <vector>

#include "aspect/coordinator.h"
#include "common/result.h"
#include "workload/blueprint.h"

namespace aspect {

struct ExperimentConfig {
  DatasetBlueprint blueprint;
  uint64_t seed = 1;
  /// Snapshot used as ASPECT's empirical input D.
  int source_snapshot = 1;
  /// Ground-truth snapshot D_i defining sizes and targets.
  int target_snapshot = 4;
  /// "Dscaler", "ReX" or "Rand".
  std::string scaler = "Dscaler";
  /// Tool order, e.g. {"coappear", "linear", "pairwise"}.
  std::vector<std::string> order = {"coappear", "linear", "pairwise"};
  int iterations = 1;
  bool validate = true;
  /// false = the No-Tweak baseline (size scaling only).
  bool tweak = true;
  /// Also evaluate the dataset's Q1-Q4 query errors.
  bool run_queries = false;
  /// Run access-disjoint tools of each pass concurrently (observation
  /// O1); deterministic for a fixed seed regardless of thread count.
  bool parallel_pass = false;
  /// Worker threads for the parallel pass (0 = hardware concurrency).
  int pass_threads = 0;
  /// Preferred modifications per batched proposal (1 = no batching).
  int batch_size = 1;
  /// Autotune the batch size from the veto rate (--batch=auto).
  bool batch_auto = false;
  /// Worker threads for stage 1 — dataset generation, snapshot
  /// materialization, size scaling, and integrity verification
  /// (0 = hardware concurrency, 1 = inline). Results are bitwise
  /// identical at every setting (DESIGN.md §12).
  int gen_threads = 1;
  /// Scope-routed validator voting for the tweak vote loops
  /// (bitwise identical to full voting; DESIGN.md §14).
  RouteVotes route_votes = RouteVotes::kOff;
};

/// The three property errors of Sec. VI-C1.
struct PropertyErrors {
  double linear = 0;
  double coappear = 0;
  double pairwise = 0;
};

struct ExperimentResult {
  PropertyErrors before;  // after size scaling, before tweaking
  PropertyErrors after;   // after the tweaking permutation
  /// Wall-clock seconds spent inside the tweaking algorithms.
  double tweak_seconds = 0;
  /// Stage-1 phase timings (seconds): growing + materializing the
  /// blueprint dataset, size-scaling it, and the post-scale/post-tweak
  /// referential-integrity checks.
  double generate_seconds = 0;
  double scale_seconds = 0;
  double verify_seconds = 0;
  /// Query name -> relative error, before and after tweaking
  /// (only filled when run_queries is set).
  std::vector<std::pair<std::string, double>> query_errors_before;
  std::vector<std::pair<std::string, double>> query_errors_after;
  RunReport report;
};

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config);

/// The paper's six permutation labels over {linear, coappear,
/// pairwise}: "L-C-P", "L-P-C", "C-L-P", "C-P-L", "P-L-C", "P-C-L".
std::vector<std::string> SixPermutations();

/// Expands a label like "C-L-P" to tool names.
Result<std::vector<std::string>> OrderFromLabel(const std::string& label);

}  // namespace aspect
