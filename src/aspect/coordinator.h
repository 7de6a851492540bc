// Coordinator: ASPECT's stage-2 driver (Fig. 2 / Sec. III-B). Applies
// the registered tweaking tools to a scaled database in a chosen order,
// routing every proposed modification through the validators of the
// tools applied earlier, and optionally iterating the whole permutation
// several times (Sec. VII-C).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/scope_checker.h"
#include "aspect/access_monitor.h"
#include "aspect/property_tool.h"
#include "aspect/vote_index.h"
#include "common/result.h"
#include "common/rng.h"

namespace aspect {

struct CoordinatorOptions {
  /// Number of full passes over the tool order (Sec. VII-C shows 2-3
  /// passes drive residual errors to ~0.02).
  int iterations = 1;
  /// When positive, stop iterating early once a full pass improves the
  /// summed error by less than this absolute amount ("the room for
  /// improvement becomes limited", Sec. VII-C).
  double converge_epsilon = 0.0;
  /// If false, validators never vote (ablation: raw sequential tweak).
  bool validate = true;
  /// Safety net beyond the paper: guard each tool step and roll it
  /// back if it left the summed error of the already-enforced
  /// properties plus its own *higher* than before (O4's accepted-error
  /// policy, but bounded). The step's modifications are recorded in an
  /// undo log and reverted in reverse on regression, so the cost is
  /// linear in the step's modifications, not in the database size.
  bool rollback_on_regression = false;
  /// Worker threads for CompareOrders (one candidate order per task):
  /// 0 = one per hardware thread, 1 = serial. Rankings and errors are
  /// identical for every thread count: each candidate runs on its own
  /// database snapshot with its own cloned tools, seeded only by
  /// `seed`.
  int order_search_threads = 0;
  /// Repair each tool's target onto its feasible set before tweaking
  /// (needed for ReX-scaled data, Sec. VI-B).
  bool repair_targets = true;
  /// RNG seed for all tweaking randomness.
  uint64_t seed = 1;
  /// Run each pass O1-parallel: consecutive order positions whose
  /// declared access scopes provably cannot disturb each other — and
  /// whose enforced validators' votes are provably zero — are tweaked
  /// concurrently on the shared database, each inside a write lease
  /// over its certified write scope, with per-thread listener routing
  /// keeping each tool's statistics private (DESIGN.md Sec. 10). Falls
  /// back to serial steps when scopes are undeclared (the
  /// AccessMonitor's observed scope covers writes only, which cannot
  /// prove the tool's reads safe), scopes overlap, or
  /// rollback_on_regression is on. For a fixed seed the results are
  /// bitwise identical to the serial pass at every thread count; see
  /// DESIGN.md for the determinism argument.
  bool parallel_pass = false;
  /// Worker threads for parallel_pass groups: 0 = one per hardware
  /// thread, 1 = run the same grouped schedule on the calling thread.
  int pass_threads = 0;
  /// Batch-size hint handed to tools via TweakContext::batch_hint():
  /// how many modifications to group per proposal. 1 (the default)
  /// keeps the historical one-modification-at-a-time pipeline
  /// bit-identical.
  int batch_size = 1;
  /// Veto-rate-driven batch-size autotuning (the CLI's --batch=auto):
  /// each step starts from batch_size and TweakContext grows the hint
  /// on sustained accepted proposals and shrinks it on vetoes. The
  /// size a step settled on is reported in ToolReport::batch_final.
  /// Deterministic across serial and parallel execution: parallel
  /// group members provably receive zero vetoes, so their hint follows
  /// the same trajectory either way.
  bool batch_auto = false;
  /// Scope-conformance checking (src/analysis): kWarn / kStrict
  /// install access probes around every Tweak and diff each tool's
  /// observed read+write footprint — including per-tuple row intervals
  /// — against its DeclaredScope(); a caught tool's declaration is
  /// distrusted for the rest of the run (it falls back to the observed
  /// scope, i.e. the serial path). kStrict additionally fails the run
  /// if any violation was recorded. kSampled runs only the cheap
  /// sampled lease canary on parallel tasks (the release-build default
  /// behaviour, selectable explicitly for CI). kOff (the default)
  /// installs no footprint probes; release builds still arm the
  /// sampled canary.
  analysis::ScopeCheckMode check_scopes = analysis::ScopeCheckMode::kOff;
  /// Scope-indexed validator routing (the CLI's --route-votes): serial
  /// steps consult a VoteIndex over the enforced validators' certified
  /// scopes — the same certification the lease partitioner trusts —
  /// and proposals consult only the validators their write footprint
  /// could disturb. Every skipped vote is provably zero, so
  /// results are bitwise identical to full voting; the sampled pruning
  /// audit (kOn: debug always / release 1-in-64; kAudit: always)
  /// enforces that claim at runtime and a caught validator is
  /// distrusted — full voting and the serial path — for the rest of
  /// the run. kOff (the default) keeps the legacy everyone-votes loop.
  /// The index is maintained *incrementally* across the run: built
  /// once, grown by one validator when a tool is first enforced, and
  /// degraded in place when a distrust event latches — per-step setup
  /// is O(change), not O(fleet) (debug builds cross-check against a
  /// from-scratch rebuild every step).
  RouteVotes route_votes = RouteVotes::kOff;
};

/// Per-tool outcome of one coordinator run.
struct ToolReport {
  std::string tool;
  double error_before = 0;
  double error_after = 0;
  int64_t applied = 0;
  int64_t vetoed = 0;
  int64_t forced = 0;
  double seconds = 0;
  /// Rollback safety-net cost of this step (rollback_on_regression):
  /// seconds spent resetting the undo log and, if the step regressed,
  /// restoring.
  double rollback_seconds = 0;
  /// Modifications recorded in the step's undo log — the rollback
  /// cost is linear in this, not in the database size.
  int64_t rollback_mods = 0;
  /// True if the step regressed and was rolled back.
  bool rolled_back = false;
  /// True if the step ran inside an O1-parallel group (parallel_pass).
  bool parallel = false;
  /// The batch-size hint the step ended on: options.batch_size, or the
  /// autotuned size when options.batch_auto chose a different one.
  int batch_final = 1;
  /// Validator votes a full-voting run would have cast during this
  /// step (validators per proposal, summed over proposals).
  int64_t votes_total = 0;
  /// The subset of votes_total proven zero by the routing index and
  /// skipped (options.route_votes != kOff; always 0 otherwise).
  int64_t votes_skipped = 0;
  /// Pruned votes the sampled audit invoked anyway and found nonzero —
  /// validators whose declared read scope lied. Each one was distrusted
  /// for the rest of the run.
  int64_t route_audit_violations = 0;
  /// Proposals this step routed conservatively (everyone voted)
  /// because a modification named a table the schema does not know.
  /// Without the counter such proposals are indistinguishable from
  /// legitimately routed ones; audit mode also warns once.
  int64_t route_fallbacks = 0;
};

struct RunReport {
  /// Why the iteration loop stopped (meaningful with converge_epsilon).
  enum class StopReason : int {
    kIterationsExhausted = 0,
    /// A full pass improved the total error by less than epsilon.
    kConverged = 1,
    /// A full pass made the total error strictly worse. Previously
    /// this was silently reported as convergence.
    kRegressed = 2,
  };

  /// One entry per (iteration, tool-in-order) step, in execution order.
  std::vector<ToolReport> steps;
  /// Final error per registered tool (tool registration order).
  std::vector<double> final_errors;
  /// Scope violations recorded by the conformance checker
  /// (options.check_scopes != kOff). In strict mode a non-empty list
  /// means the run itself returned an error; in warn mode the run
  /// completes and this is the diagnosis.
  std::vector<analysis::ScopeViolation> scope_violations;
  double total_seconds = 0;
  StopReason stop_reason = StopReason::kIterationsExhausted;

  /// O1-parallel groups that ran (parallel_pass only).
  int64_t parallel_groups = 0;
  /// The subset of parallel_groups that exist only thanks to row-range
  /// declarations: some member pair overlaps on a (table, column) atom
  /// under the interval-blind rules and was admitted because its
  /// declared row intervals are disjoint.
  int64_t row_range_groups = 0;
  /// Out-of-lease writes latched by the per-task lease probes — the
  /// full probes (debug / checker-on) or the sampled release canary.
  /// Each one discarded its group, distrusted the offender, and fell
  /// back to the deterministic serial redo.
  int64_t lease_violations = 0;
  /// Vote-routing totals over all steps (options.route_votes): votes a
  /// full-voting run would have cast, the subset routing proved zero
  /// and skipped, and the audit catches (see ToolReport).
  int64_t votes_total = 0;
  int64_t votes_skipped = 0;
  int64_t route_audit_violations = 0;
  /// Unknown-table conservative routing fallbacks over all steps.
  int64_t route_fallbacks = 0;
  /// Seconds spent maintaining the routing index
  /// (options.route_votes != kOff): one append per newly enforced
  /// validator and one degrade per distrust event.
  double route_index_build_seconds = 0;
  /// Phase breakdown of the parallel groups. Setup: lease partition,
  /// recorders and listener routes. Merge: splicing the members'
  /// recorded notifications into the database's other listeners (the
  /// modification log). Rebase: rebinding the bound non-members whose
  /// statistics the group's writes may have disturbed.
  double group_setup_seconds = 0;
  double group_merge_seconds = 0;
  double group_rebase_seconds = 0;

  std::string ToString() const;
};

const char* StopReasonToString(RunReport::StopReason reason);

class Coordinator {
 public:
  /// Registers a tool; returns its id (registration order).
  int AddTool(std::unique_ptr<PropertyTool> tool);

  int num_tools() const { return static_cast<int>(tools_.size()); }
  PropertyTool* tool(int id) { return tools_[static_cast<size_t>(id)].get(); }
  const PropertyTool* tool(int id) const {
    return tools_[static_cast<size_t>(id)].get();
  }

  /// Finds a tool id by name (-1 if absent).
  int FindTool(const std::string& name) const;

  /// Sets every tool's target from the ground-truth dataset.
  Status SetTargetsFromDataset(const Database& ground_truth);

  /// Runs the tools over `db` in the given order (a permutation of a
  /// subset of tool ids). Tools are bound to `db` for the duration and
  /// unbound afterwards.
  Result<RunReport> Run(Database* db, const std::vector<int>& order,
                        const CoordinatorOptions& options);

  /// The access monitor of the last Run (overlap analysis, O2).
  const AccessMonitor* last_monitor() const { return monitor_.get(); }

  /// The scope checker of the last Run (null unless that run had
  /// options.check_scopes != kOff). Exposes per-tool conformance and
  /// the recorded violations.
  const analysis::ScopeChecker* last_checker() const {
    return checker_.get();
  }

  /// Outcome of trying one tool order on a scratch copy.
  struct OrderOutcome {
    std::vector<int> order;
    double total_error = 0;  // summed final error over the order's tools
    double seconds = 0;      // wall-clock of this candidate's run
    RunReport report;
  };

  /// The pragmatic answer to the Property Tweaking Order Problem
  /// (Sec. VIII-A): runs every candidate order on a clone of `db`
  /// (leaving `db` untouched) and reports the outcomes sorted by total
  /// final error, best first.
  ///
  /// Candidates are independent, so when every tool supports Clone()
  /// they run concurrently on options.order_search_threads workers,
  /// each on its own snapshot with its own tool set. Rankings and
  /// errors are byte-identical for every thread count. If any tool
  /// cannot be cloned, candidates run serially on the shared tools.
  Result<std::vector<OrderOutcome>> CompareOrders(
      const Database& db, const std::vector<std::vector<int>>& orders,
      const CoordinatorOptions& options);

 private:
  std::vector<std::unique_ptr<PropertyTool>> tools_;
  std::unique_ptr<AccessMonitor> monitor_;
  std::unique_ptr<analysis::ScopeChecker> checker_;
};

/// All orderings of the given tool ids, in the paper's naming scheme
/// (e.g. "C-L-P" = coappear, then linear, then pairwise). Each tool is
/// labelled by the shortest upper-cased prefix of its name that is
/// unique among the given tools ("coappear"/"chain" become CO/CH);
/// duplicate names fall back to the full name plus "#<id>".
std::vector<std::pair<std::string, std::vector<int>>> AllPermutations(
    const Coordinator& coordinator, const std::vector<int>& tool_ids);

}  // namespace aspect
