#include "aspect/tweak_context.h"

#include <algorithm>
#include <cassert>

#include "analysis/probe.h"
#include "aspect/access_monitor.h"
#include "aspect/property_tool.h"
#include "common/logging.h"

namespace aspect {
namespace {

// The coordinator vetoes on any penalty > 0 (Sec. III-C), so batch
// votes may stop pricing once the sum provably stays above zero — the
// early-exit cap handed to ValidationPenaltyBatch. Exact for every
// implementation honoring the cap contract (property_tool.h), so the
// veto decisions are bitwise identical to uncapped voting.
constexpr double kVetoCap = 0.0;

}  // namespace

TweakContext::TweakContext(Database* db,
                           std::vector<PropertyTool*> validators, Rng* rng,
                           AccessMonitor* monitor, int tool_id)
    : db_(db),
      validators_(std::move(validators)),
      rng_(rng),
      monitor_(monitor),
      tool_id_(tool_id) {}

Status TweakContext::TryOrForce(const Modification& mod,
                                TupleId* new_tuple) {
  const Status st = TryApply(mod, new_tuple);
  return st.IsValidationFailed() ? ForceApply(mod, new_tuple) : st;
}

std::vector<Value> TweakContext::TemplateRow(const Table& table) {
  TupleId tmpl = kInvalidTuple;
  for (int tries = 0; table.NumTuples() > 0 && tries < 32 &&
                      tmpl == kInvalidTuple;
       ++tries) {
    const TupleId cand = rng_->UniformInt(0, table.NumSlots() - 1);
    if (table.IsLive(cand)) tmpl = cand;
  }
  std::vector<Value> row;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (tmpl != kInvalidTuple) {
      row.push_back(table.column(c).Get(tmpl));
    } else if (table.column(c).type() == ColumnType::kString) {
      row.push_back(Value(std::string()));
    } else if (table.column(c).type() == ColumnType::kDouble) {
      row.push_back(Value(0.0));
    } else {
      row.push_back(Value(int64_t{0}));
    }
  }
  return row;
}

void TweakContext::set_vote_routing(const VoteIndex* index, RouteVotes mode,
                                    size_t self_slot) {
  // Precondition: `index` describes the coordinator's enforced list —
  // this context's validator list with the stepping tool spliced in at
  // `self_slot` (kNoSelfSlot when absent).
  vote_index_ = mode == RouteVotes::kOff ? nullptr : index;
  route_mode_ = mode;
  self_slot_ = self_slot;
  assert(vote_index_ == nullptr ||
         vote_index_->num_validators() ==
             validators_.size() + (self_slot_ != kNoSelfSlot ? 1 : 0));
  route_local_distrust_.assign(validators_.size(), 0);
  route_any_distrust_ = false;
}

int64_t TweakContext::RouteConsult(std::span<const Modification> mods) {
  const int64_t fallbacks_before = route_metrics_.fallbacks;
  vote_index_->Route(mods, &consult_, &route_metrics_);
  if (route_mode_ == RouteVotes::kAudit && !route_fallback_warned_ &&
      route_metrics_.fallbacks != fallbacks_before) {
    // Rare conservative bail: without this latch the proposal would be
    // indistinguishable from a legitimately routed one.
    route_fallback_warned_ = true;
    const std::string* unknown = nullptr;
    for (const Modification& mod : mods) {
      if (db_->schema().TableIndex(mod.table) < 0) {
        unknown = &mod.table;
        break;
      }
    }
    ASPECT_LOG(Warning)
        << "vote routing fell back to consulting every validator: "
        << "proposal names unknown table '"
        << (unknown != nullptr ? *unknown : std::string("?")) << "'";
  }
  if (route_any_distrust_) {
    for (size_t i = 0; i < validators_.size(); ++i) {
      if (route_local_distrust_[i]) consult_.SetBit(SlotOf(i));
    }
  }
  // Pruned validators = the validator list minus the set bits at
  // validator slots (the stepping tool's own slot, when present, is
  // not a validator and is excluded from the count).
  size_t consulted = consult_.CountSet();
  if (self_slot_ != kNoSelfSlot && consult_.Test(self_slot_)) --consulted;
  return static_cast<int64_t>(validators_.size()) -
         static_cast<int64_t>(consulted);
}

bool TweakContext::ShouldAuditPrune() {
  const int64_t n = pruned_seen_++;
  if (route_mode_ == RouteVotes::kAudit) return true;
#ifndef NDEBUG
  (void)n;
  return true;  // debug builds audit every pruned vote
#else
  // Pruned vote #0 is always audited (the lease-canary cadence), so a
  // lying declaration is caught deterministically in release too.
  return n % kRouteAuditStride == 0;
#endif
}

void TweakContext::LatchRouteViolation(size_t i, double penalty) {
  route_local_distrust_[i] = 1;
  route_any_distrust_ = true;
  route_violations_.push_back(
      {static_cast<int>(i), validators_[i]->name(), penalty});
}

double TweakContext::Price(size_t i, std::span<const Modification> mods,
                           double veto_cap) const {
  return mods.size() == 1
             ? validators_[i]->ValidationPenalty(mods[0])
             : validators_[i]->ValidationPenaltyBatch(mods, veto_cap);
}

double TweakContext::RoutedVote(size_t i,
                                std::span<const Modification> mods) {
  if (Consulted(i)) return Price(i, mods, kVetoCap);
  ++votes_skipped_;
  if (!ShouldAuditPrune()) return 0.0;
  // The audit must see the exact composite penalty: uncapped.
  const double p = Price(i, mods, PropertyTool::kNoPenaltyCap);
  if (p != 0.0) {
    // The routing index proved this vote zero; a nonzero return means
    // the validator reads outside its certified scope. Latch, keep the
    // validator on the full-voting path, and let the real penalty
    // decide the proposal.
    LatchRouteViolation(i, p);
    return p;
  }
  return 0.0;
}

bool TweakContext::AuditDueWithin(int64_t pruned) const {
  if (pruned <= 0) return false;
  if (route_mode_ == RouteVotes::kAudit) return true;
#ifndef NDEBUG
  return true;  // debug builds audit every pruned vote
#else
  // First audit ordinal at or after pruned_seen_ — due iff it falls
  // before the window ends. A veto may cut the window short, but a
  // shorter window can only make a due audit undue, and the per-vote
  // path re-checks each ordinal, so the cadence stays exact.
  const int64_t next = (pruned_seen_ + kRouteAuditStride - 1) /
                       kRouteAuditStride * kRouteAuditStride;
  return next < pruned_seen_ + pruned;
#endif
}

int TweakContext::RoutedObjector(std::span<const Modification> mods) {
  const int64_t pruned_expected = RouteConsult(mods);
  if (!AuditDueWithin(pruned_expected)) {
    // Fast path: no pruned vote of this proposal is an audit sample,
    // so skipping costs one counter update — the vote loop is
    // O(consulted validators), not O(all validators' penalty calls).
    int64_t pruned = 0;
    int bad = -1;
    for (size_t i = 0; i < validators_.size() && bad < 0; ++i) {
      if (!Consulted(i)) {
        ++pruned;
      } else if (Price(i, mods, kVetoCap) > 0) {
        bad = static_cast<int>(i);
      }
    }
    votes_skipped_ += pruned;
    pruned_seen_ += pruned;
    return bad;
  }
  for (size_t i = 0; i < validators_.size(); ++i) {
    if (RoutedVote(i, mods) > 0) return static_cast<int>(i);
  }
  return -1;
}

int TweakContext::Objector(std::span<const Modification> mods) {
  // Validator voting reads the *validators'* statistics, not the
  // proposing tool's cells; keep it out of the tool's observed
  // footprint (scope-conformance probes, analysis/probe.h).
  analysis::ScopedProbeSuppress suppress;
  votes_total_ += static_cast<int64_t>(validators_.size());
  int bad = -1;
  if (Routed()) {
    bad = RoutedObjector(mods);
  } else {
    for (size_t i = 0; i < validators_.size() && bad < 0; ++i) {
      if (Price(i, mods, kVetoCap) > 0) bad = static_cast<int>(i);
    }
  }
  if (bad >= 0) {
    OnObjection();
  } else {
    OnClean();
  }
  return bad;
}

void TweakContext::OnObjection() {
  if (!batch_auto_) return;
  if (batch_hint_ > 1) batch_hint_ /= 2;
  accept_streak_ = 0;
}

void TweakContext::OnClean() {
  if (!batch_auto_) return;
  if (++accept_streak_ < kGrowStreak) return;
  accept_streak_ = 0;
  batch_hint_ = batch_hint_ < kMaxAutoBatch / 2 ? batch_hint_ * 2
                                                : kMaxAutoBatch;
}

Status TweakContext::Apply(const Modification& mod, TupleId* new_tuple) {
  TupleId inserted = kInvalidTuple;
  ASPECT_RETURN_NOT_OK(db_->Apply(mod, &inserted));
  ++applied_;
  if (new_tuple != nullptr) *new_tuple = inserted;
  if (monitor_ != nullptr) monitor_->Record(tool_id_, mod, inserted);
  return Status::OK();
}

Status TweakContext::TryApply(const Modification& mod, TupleId* new_tuple) {
  const int bad = Objector({&mod, 1});
  if (bad >= 0) {
    ++vetoed_;
    return Status::ValidationFailed("vetoed by " + validators_[bad]->name());
  }
  return Apply(mod, new_tuple);
}

Status TweakContext::ForceApply(const Modification& mod,
                                TupleId* new_tuple) {
  if (Objector({&mod, 1}) >= 0) ++forced_;
  return Apply(mod, new_tuple);
}

Status TweakContext::ApplyBatch(std::span<const Modification> mods,
                                std::vector<TupleId>* new_tuples) {
  std::vector<TupleId> inserted;
  ASPECT_RETURN_NOT_OK(db_->ApplyBatch(mods, &inserted));
  applied_ += static_cast<int64_t>(mods.size());
  for (size_t i = 0; monitor_ != nullptr && i < mods.size(); ++i) {
    monitor_->Record(tool_id_, mods[i], inserted[i]);
  }
  if (new_tuples != nullptr) *new_tuples = std::move(inserted);
  return Status::OK();
}

Status TweakContext::TryApplyBatch(std::span<const Modification> mods,
                                   std::vector<TupleId>* new_tuples) {
  if (mods.empty()) {
    if (new_tuples != nullptr) new_tuples->clear();
    return Status::OK();
  }
  const int bad = Objector(mods);
  if (bad >= 0) {
    ++vetoed_;
    return Status::ValidationFailed("batch vetoed by " +
                                    validators_[bad]->name());
  }
  return ApplyBatch(mods, new_tuples);
}

Status TweakContext::ForceApplyBatch(std::span<const Modification> mods,
                                     std::vector<TupleId>* new_tuples) {
  if (mods.empty()) {
    if (new_tuples != nullptr) new_tuples->clear();
    return Status::OK();
  }
  if (Objector(mods) >= 0) ++forced_;
  return ApplyBatch(mods, new_tuples);
}

}  // namespace aspect
