// PropertyTool: the uniform interface every tweaking tool implements
// (Sec. III-C). A tool bundles the paper's five components:
//
//   Target Generator     - SetTarget* methods (user input / developer
//                          generation / statistical extrapolation)
//   Tweaking Algorithm   - Tweak(), proposing modifications through a
//                          TweakContext
//   Property Evaluator   - Error(), the property distance to target
//   Property Validator   - ValidationPenalty(), voting on proposals
//   Statistics Updater   - OnApplied() (from ModificationListener),
//                          incremental statistics maintenance
//
// Tools are independently developed; ASPECT coordinates them through
// this interface, which is what makes the repository collaborative.
#pragma once

#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "aspect/access_scope.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "relational/database.h"

namespace aspect {

class TweakContext;

class PropertyTool : public ModificationListener {
 public:
  ~PropertyTool() override = default;

  /// Stable tool name ("linear", "coappear", ...).
  virtual std::string name() const = 0;

  /// Deep-copies this tool's configuration and targets so several
  /// copies can run on different databases concurrently (the parallel
  /// order search of Coordinator::CompareOrders). Only meaningful for
  /// an unbound tool; bound state is rebuilt by Bind. Tools that do
  /// not support cloning return nullptr, and the order search falls
  /// back to running candidates serially on the shared tool set.
  virtual std::unique_ptr<PropertyTool> Clone() const { return nullptr; }

  // --- Target Generator ------------------------------------------------
  /// Extracts the target property statistics from a ground-truth
  /// dataset (the default Target Generator mode used in Sec. VI).
  virtual Status SetTargetFromDataset(const Database& ground_truth) = 0;

  /// Projects the current target onto the feasible set for the bound
  /// database's table sizes (the necessary conditions of Sec. V). Used
  /// when the size-scaler could not hit the ground-truth sizes, as the
  /// paper does for ReX (Sec. VI-B). Requires a bound database.
  virtual Status RepairTarget() = 0;

  /// Verifies the target satisfies this property's necessary
  /// conditions for the bound database; Infeasible otherwise.
  virtual Status CheckTargetFeasible() const = 0;

  /// Serializes / restores the target statistics (so a target
  /// extracted once can be reused without the ground-truth dataset;
  /// see aspect/targets_io.h). Optional: the default declines.
  virtual Status SaveTarget(std::ostream* out) const {
    (void)out;
    return Status::NotImplemented(name() + ": SaveTarget");
  }
  virtual Status LoadTarget(std::istream* in) {
    (void)in;
    return Status::NotImplemented(name() + ": LoadTarget");
  }

  // --- Binding ----------------------------------------------------------
  /// Attaches to `db`: scans it to build the property statistics and
  /// registers as a modification listener. A tool is bound to at most
  /// one database at a time.
  virtual Status Bind(Database* db) = 0;
  virtual void Unbind() = 0;
  virtual bool bound() const = 0;

  /// Moves a bound tool onto `db`, assuming `db`'s content is
  /// identical, tuple id for tuple id, to the currently bound database
  /// for every table in the tool's access set. The default rebuilds
  /// from scratch (Unbind + Bind); a wrapping tool forwards it to the
  /// tool it wraps.
  virtual Status Rebase(Database* db) {
    Unbind();
    return Bind(db);
  }

  /// Appends every ModificationListener a bound tool has registered on
  /// its database: the tool itself plus any auxiliary listeners its
  /// Bind installed (e.g. coappear's RefCounter). The parallel pass
  /// routes exactly this set (plus the task's write recorder) to the
  /// task's thread, and excludes it from the post-group notification
  /// replay, so a tool's statistics see each of its own writes exactly
  /// once. Only meaningful while bound.
  virtual void AppendListeners(std::vector<ModificationListener*>* out) {
    out->push_back(this);
  }

  // --- Property Evaluator -----------------------------------------------
  /// Error of the bound database's property against the target, using
  /// the paper's measure for this property (Sec. VI-C). Requires bound.
  virtual double Error() const = 0;

  // --- Property Validator -----------------------------------------------
  /// How much this (already enforced) property would be hurt by `mod`:
  /// > 0 means the tool votes against. The default coordinator policy
  /// rejects any positive penalty (Sec. III-C voting). Contract: a
  /// penalty is a would-be-error minus current-error difference and
  /// errors are nonnegative, so a single-modification penalty is never
  /// below -Error(); the capped batch vote below relies on this bound.
  virtual double ValidationPenalty(const Modification& mod) const = 0;

  /// "No early exit" cap for ValidationPenaltyBatch (the uncapped
  /// overload passes it).
  static constexpr double kNoPenaltyCap =
      std::numeric_limits<double>::infinity();

  /// Safety margin for composite early-exit bounds: an implementation
  /// should stop only when its provable lower bound on the final
  /// penalty clears `veto_cap` by more than this (scaled by the
  /// bound's magnitude), so the tiny floating-point rounding the bound
  /// arithmetic itself carries can never flip a boundary veto decision
  /// relative to uncapped pricing. The built-in composite tools keep
  /// their delta bookkeeping in exact integers, which makes this
  /// margin comfortably conservative.
  static constexpr double kPenaltyCapSlack = 1e-9;

  /// Vote on a whole batch as one composite proposal: the penalty the
  /// property incurs if ALL of `mods` are applied. The default sums
  /// the single-modification penalties, which matches the composite
  /// semantics whenever the modifications touch disjoint statistics;
  /// tools whose penalty is non-additive override this with an exact
  /// cumulative simulation. Used by TweakContext::TryApplyBatch.
  ///
  /// `veto_cap` is an early-exit license, not a semantic change: the
  /// caller only distinguishes results above the cap from results at
  /// or below it, so an implementation may stop as soon as the final
  /// penalty is *provably* above the cap and return any partial value
  /// that is itself above the cap. The default loop uses the
  /// ValidationPenalty lower bound of -Error(): once the running sum
  /// can no longer fall back to the cap on the members still ahead,
  /// the tail is skipped. The veto decision is exactly the uncapped
  /// one — a vetoed batch merely stops pricing its remaining members.
  virtual double ValidationPenaltyBatch(std::span<const Modification> mods,
                                        double veto_cap) const {
    double total = 0;
    size_t remaining = mods.size();
    double floor_per_mod = 0;  // computed lazily, only past the cap
    bool have_floor = false;
    for (const Modification& m : mods) {
      total += ValidationPenalty(m);
      --remaining;
      if (total > veto_cap) {
        if (remaining == 0) break;
        if (!have_floor) {
          floor_per_mod = -Error();
          have_floor = true;
        }
        if (total + static_cast<double>(remaining) * floor_per_mod >
            veto_cap) {
          break;
        }
      }
    }
    return total;
  }

  /// Uncapped convenience overload. Not virtual: override the capped
  /// form (and re-expose this one with a using-declaration).
  double ValidationPenaltyBatch(std::span<const Modification> mods) const {
    return ValidationPenaltyBatch(mods, kNoPenaltyCap);
  }

  /// The (table, column) atoms this tool's Tweak may read and write,
  /// derived from its configured schema. Used by the O1-parallel pass
  /// to prove two tools independent before running them concurrently;
  /// a declared scope is a completeness contract for BOTH sets (reads
  /// and writes). The default is an unknown scope, which keeps the
  /// tool on the serial path: the AccessMonitor's observed scope (O2)
  /// covers writes only, which is not enough to join a parallel group.
  virtual AccessScope DeclaredScope() const { return AccessScope(); }

  // --- Tweaking Algorithm -----------------------------------------------
  /// Tweaks the bound database toward the target, proposing every
  /// modification through `ctx` so other tools' validators can vote.
  virtual Status Tweak(TweakContext* ctx) = 0;
};

}  // namespace aspect
