// LinearPropertyTool: enforces the linear join property (Sec. V-A).
//
// The property is the set of linear join matrices H, one per maximal
// reference chain of the schema. The tweaking algorithm follows
// Algorithm 1 / Appendix X-A: matrices are fixed row by row, each row
// leading-entry first, by plucking tuples from one parent and
// attaching them to another. Every candidate move is evaluated
// exactly against the incrementally maintained ChainStats (including
// chains that share the moved edge), so moves that would damage
// already-fixed entries or already-tweaked chains are rejected and
// alternatives tried - the in-tool analogue of the framework-level
// validator voting.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "aspect/property_tool.h"
#include "aspect/tweak_context.h"
#include "properties/chain_stats.h"
#include "relational/refgraph.h"

namespace aspect {

class LinearPropertyTool : public PropertyTool {
 public:
  explicit LinearPropertyTool(const Schema& schema);

  std::string name() const override { return "linear"; }

  std::unique_ptr<PropertyTool> Clone() const override {
    return bound() ? nullptr : std::make_unique<LinearPropertyTool>(*this);
  }

  // Target Generator.
  Status SetTargetFromDataset(const Database& ground_truth) override;
  /// User-input mode: sets all targets explicitly (chain order as in
  /// `chains()`).
  Status SetTargetMatrices(std::vector<JoinMatrix> targets);
  Status RepairTarget() override;
  Status CheckTargetFeasible() const override;
  Status SaveTarget(std::ostream* out) const override;
  Status LoadTarget(std::istream* in) override;

  Status Bind(Database* db) override;
  void Unbind() override;
  bool bound() const override { return db_ != nullptr; }
  double Error() const override;
  double ValidationPenalty(const Modification& mod) const override;
  /// Exact composite vote: all edge changes of the batch are applied to
  /// the chain stats together before measuring, so moves that only
  /// cancel out jointly are priced as a unit (the default per-mod sum
  /// would veto them). Assumes the batch's tuples are disjoint (the
  /// ApplyBatch caller contract), so pre-apply old parents are current.
  /// `veto_cap` licenses an early exit: one edge change moves any join
  /// matrix entry by at most 2 (only the single ancestor above the
  /// re-parented child at a level can flip its reach, once per detach
  /// and once per attach), giving a per-chain per-change bound on the
  /// error movement. The capped path applies changes in chunks,
  /// re-measures the affected chains between chunks, and once the
  /// measured error minus the remaining movement budget provably
  /// clears the cap it reverts the applied prefix and returns that
  /// lower bound. A batch priced to completion reaches the same
  /// statistics state and final measurement as the uncapped path, bit
  /// for bit.
  double ValidationPenaltyBatch(std::span<const Modification> mods,
                                double veto_cap) const override;
  using PropertyTool::ValidationPenaltyBatch;
  /// Writes the FK columns of every chain edge; reads the same columns
  /// plus the root tables' row structure (reach counts depend on which
  /// root tuples exist).
  AccessScope DeclaredScope() const override;
  Status Tweak(TweakContext* ctx) override;

  // Statistics Updater.
  void OnApplied(const Modification& mod,
                 const std::vector<Value>& old_values,
                 TupleId new_tuple) override;

  const std::vector<ReferenceChain>& chains() const { return chains_; }
  const std::vector<JoinMatrix>& targets() const { return targets_; }
  /// Current matrix of chain `c` (requires bound).
  const JoinMatrix& CurrentMatrix(int c) const {
    return stats_[static_cast<size_t>(c)].matrix();
  }

  /// Projects `m` onto the feasible set of Theorem 1 for the given
  /// chain table sizes (L1-L4 plus h >= 1). Exposed for tests.
  static void RepairMatrix(JoinMatrix* m, const std::vector<int64_t>& sizes);

  /// Checks Theorem 1's conditions (L1-L4) for target `m`.
  static Status CheckMatrixFeasible(const JoinMatrix& m,
                                    const std::vector<int64_t>& sizes);

 private:
  struct EdgeChange {
    int chain = -1;
    int level = -1;
    TupleId child = kInvalidTuple;
    TupleId old_parent = kInvalidTuple;
    TupleId new_parent = kInvalidTuple;
  };

  /// Expands a modification into per-chain edge changes. Old parents
  /// are taken from `old_values` when given (post-apply notification)
  /// or read from the live database (pre-apply simulation).
  std::vector<EdgeChange> CollectEdgeChanges(
      const Modification& mod, const std::vector<Value>* old_values,
      TupleId new_tuple) const;

  /// Span-based so the capped batch vote can apply changes in chunks
  /// and revert just the applied prefix on an early exit.
  void ApplyEdgeChanges(std::span<const EdgeChange> changes);
  void RevertEdgeChanges(std::span<const EdgeChange> changes);

  /// Per-chain entry deltas caused by re-parenting one edge
  /// (simulated: stats are restored before returning).
  struct ChainDelta {
    int chain;
    std::vector<std::tuple<int, int, int64_t>> entries;  // (j, i, delta)
  };
  std::vector<ChainDelta> EvaluateEdgeMove(int table, int col,
                                           TupleId child,
                                           TupleId new_parent) const;

  /// Combined per-chain deltas of re-parenting every child in
  /// `children` (distinct tuples) to the same `new_parent` - the exact
  /// evaluation behind grouped leaf attaching (batch_hint > 1).
  std::vector<ChainDelta> EvaluateGroupMove(
      int table, int col, const std::vector<TupleId>& children,
      TupleId new_parent) const;

  /// True if the move damages any chain in `protected_upto` (chain
  /// index < protected_upto), or touches rows < row_limit / entries
  /// <= entry_limit of chain `current`.
  bool MoveDamagesProtected(const std::vector<ChainDelta>& deltas,
                            int current, int protected_upto, int row_limit,
                            int entry_limit) const;

  // One-unit adjustments for entry (J, i) of chain `ci` (0-based
  // levels). Return true if a unit of progress was made.
  bool ReduceOnce(TweakContext* ctx, int ci, int J, int i,
                  int protected_upto);
  bool IncreaseOnce(TweakContext* ctx, int ci, int J, int i,
                    int protected_upto);

  /// Proposes the FK re-parenting of `child` in chain `ci` at level
  /// `level` to `new_parent`, first through validators, forcing after
  /// `max_attempts_` consecutive vetoes of this logical step.
  Status ProposeMove(TweakContext* ctx, int ci, int level, TupleId child,
                     TupleId new_parent, int* veto_budget);

  /// Samples a live tuple of the chain's level-L table satisfying
  /// `pred`; falls back to a full scan. Returns kInvalidTuple if none.
  template <typename Pred>
  TupleId FindTuple(TweakContext* ctx, int ci, int level, Pred pred) const;

  Schema schema_;
  std::vector<ReferenceChain> chains_;
  mutable std::vector<ChainStats> stats_;
  std::vector<JoinMatrix> targets_;
  Database* db_ = nullptr;
  // (table, col) -> [(chain, level)] for every chain edge.
  std::map<std::pair<int, int>, std::vector<std::pair<int, int>>> edges_;
  int max_attempts_ = 24;
};

}  // namespace aspect
