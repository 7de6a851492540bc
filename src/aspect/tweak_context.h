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

#include "aspect/vote_index.h"
#include "common/rng.h"
#include "common/status.h"
#include "relational/database.h"

namespace aspect {

class PropertyTool;

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

  /// Applies `mod` if every validator accepts it; returns
  /// ValidationFailed (without applying) otherwise.
  Status TryApply(const Modification& mod, TupleId* new_tuple = nullptr);

  /// Applies `mod` regardless of votes (accepted error increase).
  Status ForceApply(const Modification& mod, TupleId* new_tuple = nullptr);

  /// Puts the whole batch to the vote as ONE composite proposal
  /// (PropertyTool::ValidationPenaltyBatch): if any validator's batch
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

  /// Slot sentinel for set_vote_routing: the stepping tool is not in
  /// the index's validator list.
  static constexpr size_t kNoSelfSlot = static_cast<size_t>(-1);

  /// Enables scope-routed voting: proposals consult only the
  /// validators `index` maps to their write footprint (plus the
  /// always-vote fallback set); every skipped vote is provably zero.
  /// `index` must outlive the context and describe the coordinator's
  /// *enforced* list — this context's validator list with the stepping
  /// tool itself spliced in at `self_slot` (kNoSelfSlot when the tool
  /// is not yet enforced, i.e. the lists coincide). Indexing the
  /// enforced list is what lets the coordinator maintain ONE index
  /// incrementally across steps instead of rebuilding a per-step
  /// permutation; the context maps validator i to index slot
  /// i + (i >= self_slot). Routed loops walk the validators in their
  /// original order, so veto decisions, veto attribution and the
  /// autotuning trajectory are bitwise identical to full voting.
  void set_vote_routing(const VoteIndex* index, RouteVotes mode,
                        size_t self_slot = kNoSelfSlot);

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
  int64_t route_fallbacks() const { return route_metrics_.fallbacks; }
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
  /// True when vote routing is active for this context.
  bool Routed() const {
    return vote_index_ != nullptr && route_mode_ != RouteVotes::kOff;
  }
  /// The index slot of validator `i`: identical until self_slot_,
  /// shifted past the stepping tool's own slot after it.
  size_t SlotOf(size_t i) const {
    return self_slot_ != kNoSelfSlot && i >= self_slot_ ? i + 1 : i;
  }
  /// True when the routed consult mask says validator `i` must vote.
  bool Consulted(size_t i) const { return consult_.Test(SlotOf(i)); }
  /// Fills consult_ for `mods` (index routing plus the local distrust
  /// overlay from earlier audit catches) and returns the number of
  /// validators the mask prunes.
  int64_t RouteConsult(std::span<const Modification> mods);
  /// Sampling decision for one pruned vote; advances the counter.
  bool ShouldAuditPrune();
  /// The vote of validator `i` on `mods` under routing: skipped when
  /// pruned (0 unless a sampled audit catches a lie, in which case the
  /// actual penalty is returned and the violation latched).
  double RoutedBatchVote(size_t i, std::span<const Modification> mods,
                        double veto_cap);
  double RoutedSingleVote(size_t i, const Modification& mod);
  /// True when one of the next `pruned` pruned-vote ordinals is an
  /// audit sample. The vote loops use it to pick between the fast
  /// path — skip every pruned validator with one batched counter
  /// update — and the per-vote path that performs the sampled audits.
  bool AuditDueWithin(int64_t pruned) const;
  /// Routes `mods`, casts the consulted votes in validator-list order,
  /// and returns the index of the first objecting validator (-1 when
  /// none). Handles skipped-vote accounting and sampled audits; veto
  /// attribution matches full voting because pruned votes are provably
  /// (and, when audited, verifiably) zero.
  int RoutedObjector(std::span<const Modification> mods, double veto_cap);
  void LatchRouteViolation(size_t i, double penalty);
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
  const VoteIndex* vote_index_ = nullptr;
  RouteVotes route_mode_ = RouteVotes::kOff;
  /// Position of the stepping tool itself in the index's enforced
  /// list, or kNoSelfSlot when absent (first pass of the tool).
  size_t self_slot_ = kNoSelfSlot;
  /// Scratch consult mask for the current proposal, indexed by
  /// *enforced-list slot* (set = must vote). Reused across proposals.
  ConsultMask consult_;
  /// Fallback / aggregation counters from every Route call.
  RouteMetrics route_metrics_;
  /// One-time latch for the audit-mode unknown-table warning.
  bool route_fallback_warned_ = false;
  /// Validators caught by the audit: consulted on every later
  /// proposal regardless of what the index says. The flag saves the
  /// per-proposal overlay scan on the (overwhelming) clean path.
  std::vector<uint8_t> route_local_distrust_;
  bool route_any_distrust_ = false;
  int64_t votes_total_ = 0;
  int64_t votes_skipped_ = 0;
  int64_t pruned_seen_ = 0;
  std::vector<RouteViolation> route_violations_;
};

}  // namespace aspect
