// TweakContext: the coordinator-provided channel through which a
// tweaking algorithm modifies the dataset.
//
// Every proposal is first put to the vote of the validators of the
// already-applied tools (Sec. III-C): if any votes against, the
// proposal is rejected and the tool must find an alternative. After
// enough failed alternatives a tool may ForceApply, accepting the
// error increase, exactly as the paper allows ("If no such alternative
// is possible, ASPECT can allow a modification to proceed").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/access_scope.h"
#include "common/rng.h"
#include "common/status.h"
#include "relational/database.h"

namespace aspect {

class PropertyTool;

/// Validator-routing mode (CoordinatorOptions.route_votes and the
/// CLI's --route-votes).
enum class RouteVotes : int {
  /// Full voting: every enforced validator votes on every proposal.
  kOff = 0,
  /// Scope-routed voting with the sampled pruning audit (debug builds
  /// audit every pruned vote, release builds the first then 1/64).
  kOn = 1,
  /// Scope-routed voting with every pruned vote audited, in every
  /// build configuration. The CI conformance mode.
  kAudit = 2,
};

/// True when applying `mods` could change what a validator whose
/// certified scope is `validator` reads through its stats_reads — so
/// its vote on the proposal may be nonzero and must be cast.
/// `tables[i]` is the schema index of mods[i].table, or -1 when the
/// schema does not know the table. The write side is exact per
/// modification: a tuple insert or delete is a row-structure write and
/// a cell write writes its (table, column) atoms, tested against each
/// read atom with WriteAtomDisturbsRead. An unknown scope, an
/// observed one (reads_complete = false) and an unknown table disturb
/// everything.
bool ProposalDisturbsStats(std::span<const Modification> mods,
                           std::span<const int> tables,
                           const AccessScope& validator);

/// Records which cells each tool wrote, for overlap detection (O2).
class AccessMonitor;

class TweakContext {
 public:
  TweakContext(Database* db, std::vector<PropertyTool*> validators,
               Rng* rng, AccessMonitor* monitor = nullptr,
               int tool_id = -1);

  Database* db() { return db_; }
  const Database& db() const { return *db_; }
  Rng* rng() { return rng_; }
  /// A row to insert into `table`: a copy of a random live tuple (up to
  /// 32 draws, none when no tuple is live), else per-type defaults.
  std::vector<Value> TemplateRow(const Table& table);

  /// Applies `mod` if every validator accepts it; returns
  /// ValidationFailed (without applying) otherwise.
  Status TryApply(const Modification& mod, TupleId* new_tuple = nullptr);

  /// Applies `mod` regardless of votes (accepted error increase).
  Status ForceApply(const Modification& mod, TupleId* new_tuple = nullptr);

  /// TryApply, then ForceApply if the validators vetoed `mod`.
  Status TryOrForce(const Modification& mod, TupleId* new_tuple = nullptr);

  /// Puts the whole batch to the vote as ONE composite proposal
  /// (PropertyTool::ValidationPenaltyBatch; a batch of one is priced
  /// with ValidationPenalty, as TryApply does): if any validator's batch
  /// penalty is positive, nothing is applied, vetoed() grows by one,
  /// and ValidationFailed is returned. Otherwise all modifications are
  /// applied atomically (Database::ApplyBatch) with a single listener
  /// notification. Caller contract: no two modifications in the batch
  /// may touch the same tuple (see DESIGN.md). `new_tuples`, when
  /// non-null, receives one id per modification (kInvalidTuple for
  /// non-inserts).
  Status TryApplyBatch(std::span<const Modification> mods,
                       std::vector<TupleId>* new_tuples = nullptr);

  /// Applies the batch regardless of votes (counts forced() once if
  /// any validator objected).
  Status ForceApplyBatch(std::span<const Modification> mods,
                         std::vector<TupleId>* new_tuples = nullptr);

  /// Batch-size hint from CoordinatorOptions.batch_size: how many
  /// modifications a tool should try to group per proposal. 1 (the
  /// default) means the tool should use the single-modification path,
  /// keeping pre-batching behaviour bit-identical.
  int batch_hint() const { return batch_hint_; }
  void set_batch_hint(int hint) { batch_hint_ = hint < 1 ? 1 : hint; }

  /// Veto-rate-driven autotuning (CoordinatorOptions.batch_auto): when
  /// on, batch_hint() halves whenever validators object to a proposal
  /// (vetoed, or forced through over an objection) and doubles — up to
  /// kMaxAutoBatch — after kGrowStreak consecutive objection-free
  /// proposals. A tool that re-reads batch_hint() each round thus
  /// adapts its proposal size to the current veto pressure: large
  /// batches while everything is accepted, back to fine-grained
  /// proposals as soon as vetoes appear (a vetoed batch rejects all
  /// its modifications at once, so high veto rates make big batches
  /// wasteful). Deterministic: the hint trajectory depends only on the
  /// proposal/vote sequence, which is identical in serial and parallel
  /// execution.
  bool batch_auto() const { return batch_auto_; }
  void set_batch_auto(bool on) { batch_auto_ = on; }

  static constexpr int kGrowStreak = 8;
  static constexpr int kMaxAutoBatch = 256;

  /// Number of proposals rejected by validators so far.
  int64_t vetoed() const { return vetoed_; }
  /// Number of modifications applied bypassing a veto.
  int64_t forced() const { return forced_; }
  /// Number of modifications applied (accepted + forced).
  int64_t applied() const { return applied_; }

  /// Enables scope-routed voting: a proposal consults validator i only
  /// when ProposalDisturbsStats holds for `scopes[i]`, the certified
  /// scope of this context's i-th validator (one entry per validator,
  /// in validator order; each must outlive the context). Every skipped
  /// vote is provably zero, and the routed loop walks the validators in
  /// their original order, so veto decisions, veto attribution and the
  /// autotuning trajectory are bitwise identical to full voting.
  void set_vote_routing(RouteVotes mode,
                        std::vector<const AccessScope*> scopes);

  /// One audit catch: a routed-away validator that, when invoked
  /// anyway by the sampled pruning audit, returned a nonzero penalty —
  /// its declared read scope lied. The vote still counts (the actual
  /// penalty decides), the validator is consulted on every later
  /// proposal of this context, and the coordinator distrusts its
  /// certification for the rest of the run.
  struct RouteViolation {
    int validator;  // index into the constructor's validator list
    std::string name;
    double penalty;
  };

  /// Validator votes a full-voting run would have cast so far (the
  /// per-proposal validator count, routed or not).
  int64_t votes_total() const { return votes_total_; }
  /// The subset of votes_total() proven zero and skipped by routing.
  int64_t votes_skipped() const { return votes_skipped_; }
  /// Proposals routed conservatively because a modification named a
  /// table the schema does not know (everyone voted; nothing was
  /// pruned). Surfaced as RunReport::route_fallbacks; audit mode also
  /// latches a one-time warning naming the table.
  int64_t route_fallbacks() const { return route_fallbacks_; }
  const std::vector<RouteViolation>& route_violations() const {
    return route_violations_;
  }

  /// Release-build sampling stride of the pruning audit (RouteVotes::
  /// kOn): pruned vote #0 is always audited, then every 64th — the
  /// same cadence as the lease canary, and deterministic, so a lying
  /// declaration is caught on its first pruned vote in every build.
  static constexpr int64_t kRouteAuditStride = 64;

 private:
  Status Apply(const Modification& mod, TupleId* new_tuple);
  Status ApplyBatch(std::span<const Modification> mods,
                    std::vector<TupleId>* new_tuples);
  /// True when vote routing is active for this context: a proposal
  /// with no validator to route is neither routed nor a fallback.
  bool Routed() const {
    return route_mode_ != RouteVotes::kOff && !validators_.empty();
  }
  /// Fills route_tables_ with the schema index of each modification's
  /// table, and counts `mods` in route_fallbacks() when one names a
  /// table the schema does not know (ProposalDisturbsStats then holds
  /// for every validator).
  void ResolveRouteTables(std::span<const Modification> mods);
  /// Sampling decision for one pruned vote; advances the counter.
  bool ShouldAuditPrune();
  /// Validator `i`'s ValidationPenalty of one modification, else its
  /// ValidationPenaltyBatch under `veto_cap`.
  double Price(size_t i, std::span<const Modification> mods,
               double veto_cap) const;
  /// Casts the votes in validator-list order, testing each validator's
  /// certified scope first: a disturbed validator is priced, any other
  /// is skipped (provably zero) and counted, and a sampled skip is
  /// audited — a nonzero audited penalty latches a violation and counts
  /// as the vote. Returns the index of the first objecting validator
  /// (-1 when none); veto attribution matches full voting.
  int RoutedObjector(std::span<const Modification> mods);
  /// Puts `mods` to the vote as one proposal, routed or to every
  /// validator, counts votes_total() and feeds the batch autotuning.
  /// Returns the first objecting validator, or -1; callers veto or force.
  int Objector(std::span<const Modification> mods);
  /// Autotuning hooks (no-ops unless batch_auto): an objection shrinks
  /// the hint and resets the streak; an objection-free proposal grows
  /// it after a sustained streak.
  void OnObjection();
  void OnClean();

  Database* db_;
  std::vector<PropertyTool*> validators_;
  Rng* rng_;
  AccessMonitor* monitor_;
  int tool_id_;
  int batch_hint_ = 1;
  bool batch_auto_ = false;
  int accept_streak_ = 0;
  int64_t vetoed_ = 0;
  int64_t forced_ = 0;
  int64_t applied_ = 0;
  RouteVotes route_mode_ = RouteVotes::kOff;
  /// Certified scope per validator; null once the audit caught the
  /// validator, which then votes on every later proposal.
  std::vector<const AccessScope*> route_scopes_;
  /// The current proposal's table indices, reused across proposals.
  std::vector<int> route_tables_;
  int64_t route_fallbacks_ = 0;
  /// One-time latch for the audit-mode unknown-table warning.
  bool route_fallback_warned_ = false;
  int64_t votes_total_ = 0;
  int64_t votes_skipped_ = 0;
  int64_t pruned_seen_ = 0;
  std::vector<RouteViolation> route_violations_;
};

}  // namespace aspect
