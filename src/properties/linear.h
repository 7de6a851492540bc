// LinearPropertyTool: enforces the linear join property (Sec. V-A).
//
// The property is the set of linear join matrices H, one per maximal
// reference chain of the schema. The tweaking algorithm follows
// Algorithm 1 / Appendix X-A: matrices are fixed row by row, each row
// leading-entry first, by plucking tuples from one parent and
// attaching them to another. Every candidate move is evaluated
// exactly against the incrementally maintained LinearStats (including
// chains that share the moved edge), so moves that would damage
// already-fixed entries or already-tweaked chains are rejected and
// alternatives tried - the in-tool analogue of the framework-level
// validator voting.
#pragma once

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
    return stats_.chain(c).matrix();
  }
  /// The bound statistics. Exposed for tests.
  const LinearStats& stats() const { return stats_; }
  /// The search index only Tweak reads: every edge's children lists.
  /// Tweak builds it on entry and releases it on exit, and while it
  /// exists OnApplied keeps it current. Public so tests can check that
  /// upkeep; requires bound.
  void BuildSearchIndex() { stats_.BuildLists(); }
  void ReleaseSearchIndex() { stats_.ReleaseLists(); }

  /// Projects `m` onto the feasible set of Theorem 1 for the given
  /// chain table sizes (L1-L4 plus h >= 1). Exposed for tests.
  static void RepairMatrix(JoinMatrix* m, const std::vector<int64_t>& sizes);

  /// Checks Theorem 1's conditions (L1-L4) for target `m`.
  static Status CheckMatrixFeasible(const JoinMatrix& m,
                                    const std::vector<int64_t>& sizes);

 private:
  /// One chain's share of one FK cell change. The first share of a
  /// change relinks the edge's lists; every share updates its chain's
  /// counters.
  struct EdgeChange {
    int edge = -1;
    int chain = -1;
    int level = -1;
    bool first = false;
    TupleId child = kInvalidTuple;
    TupleId old_parent = kInvalidTuple;
    TupleId new_parent = kInvalidTuple;
  };

  /// Buffers that pricing and move evaluation reuse from call to call.
  /// They are per thread, as coappear's and pairwise's are, so const
  /// pricing needs no mutable member and tools priced on different
  /// threads never share one.
  struct Scratch;
  static Scratch& ThreadScratch();

  /// Appends the edge changes of a modification to `out`. Old parents
  /// are taken from `old_values` when given (post-apply notification)
  /// or read from the live database (pre-apply simulation).
  void CollectEdgeChanges(const Modification& mod,
                          const std::vector<Value>* old_values,
                          TupleId new_tuple,
                          std::vector<EdgeChange>* out) const;

  /// Span-based so the capped batch vote can apply changes in chunks
  /// and revert just the applied prefix on an early exit.
  void ApplyEdgeChanges(std::span<const EdgeChange> changes);
  void RevertEdgeChanges(std::span<const EdgeChange> changes);

  /// Penalty of the changes in `s->changes` (ValidationPenaltyBatch's
  /// contract): apply, measure the affected chains, revert.
  double PenaltyOfChanges(Scratch* s, double veto_cap) const;

  /// Net matrix change, per chain through `edge`, of re-parenting
  /// every child in `children` (distinct tuples) to `new_parent`;
  /// simulated, counters and matrices are restored before returning
  /// (lists as LinearStats::EvaluateMove says). Grouped
  /// leaf attaching (batch_hint > 1) evaluates several children at
  /// once. The result lives in this thread's scratch until the next
  /// call.
  const MoveDelta& EvaluateMove(int edge, std::span<const TupleId> children,
                                TupleId new_parent) const;

  /// True if the move damages any chain in `protected_upto` (chain
  /// index < protected_upto), or touches rows < row_limit / entries
  /// <= entry_limit of chain `current`.
  bool MoveDamagesProtected(const MoveDelta& delta, int edge, int current,
                            int protected_upto, int row_limit,
                            int entry_limit) const;

  /// The single-cell (or, for a group, single-column) re-parenting
  /// proposal, built in a reused Modification.
  const Modification& Proposal(int ci, int level,
                               std::span<const TupleId> children,
                               TupleId new_parent);

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
  mutable LinearStats stats_;
  std::vector<JoinMatrix> targets_;
  Database* db_ = nullptr;
  int max_attempts_ = 24;
  // Tweak's reused buffers: leaf plucking's DFS stack and leaves, the
  // grouped leaves, and the proposal.
  std::vector<std::pair<int, TupleId>> dfs_;
  std::vector<TupleId> leaves_;
  std::vector<TupleId> group_;
  Modification proposal_;
};

}  // namespace aspect
