#include "aspect/tweak_context.h"

#include <algorithm>
#include <cassert>
#include <limits>

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

bool ProposalDisturbsStats(std::span<const Modification> mods,
                           std::span<const int> tables,
                           const AccessScope& validator) {
  assert(tables.size() == mods.size());
  if (!validator.known || !validator.reads_complete) return true;
  for (size_t i = 0; i < mods.size(); ++i) {
    const Modification& mod = mods[i];
    const int t = tables[i];
    if (t < 0) return true;
    const bool row_write = mod.kind == OpKind::kInsertTuple ||
                           mod.kind == OpKind::kDeleteTuple;
    // Atoms order by table first, and no write reaches another table's
    // reads: visit table t's atoms only.
    for (auto it = validator.stats_reads.lower_bound(
             {t, std::numeric_limits<int>::min()});
         it != validator.stats_reads.end() && it->first == t; ++it) {
      const AccessScope::Atom& r = *it;
      if (row_write) {
        if (WriteAtomDisturbsRead({t, AccessScope::kRowStructure}, r)) {
          return true;
        }
        continue;
      }
      for (const int c : mod.cols) {
        if (WriteAtomDisturbsRead({t, c}, r)) return true;
      }
    }
  }
  return false;
}

void TweakContext::set_vote_routing(RouteVotes mode,
                                    std::vector<const AccessScope*> scopes) {
  assert(mode == RouteVotes::kOff || scopes.size() == validators_.size());
  route_mode_ = mode;
  route_scopes_ = std::move(scopes);
}

void TweakContext::ResolveRouteTables(std::span<const Modification> mods) {
  route_tables_.clear();
  // Batches overwhelmingly target one table; cache the last name
  // lookup so routing does not redo the string search per mod.
  const std::string* last_name = nullptr;
  const std::string* unknown = nullptr;
  int t = -1;
  for (const Modification& mod : mods) {
    if (last_name == nullptr || mod.table != *last_name) {
      last_name = &mod.table;
      t = db_->schema().TableIndex(mod.table);
      if (t < 0 && unknown == nullptr) unknown = &mod.table;
    }
    route_tables_.push_back(t);
  }
  if (unknown == nullptr) return;
  ++route_fallbacks_;
  if (route_mode_ == RouteVotes::kAudit && !route_fallback_warned_) {
    // Rare conservative bail: without this latch the proposal would be
    // indistinguishable from a legitimately routed one.
    route_fallback_warned_ = true;
    ASPECT_LOG(Warning)
        << "vote routing fell back to consulting every validator: "
        << "proposal names unknown table '" << *unknown << "'";
  }
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

double TweakContext::Price(size_t i, std::span<const Modification> mods,
                           double veto_cap) const {
  return mods.size() == 1
             ? validators_[i]->ValidationPenalty(mods[0])
             : validators_[i]->ValidationPenaltyBatch(mods, veto_cap);
}

int TweakContext::RoutedObjector(std::span<const Modification> mods) {
  ResolveRouteTables(mods);
  for (size_t i = 0; i < validators_.size(); ++i) {
    const AccessScope* scope = route_scopes_[i];
    if (scope == nullptr ||
        ProposalDisturbsStats(mods, route_tables_, *scope)) {
      if (Price(i, mods, kVetoCap) > 0) return static_cast<int>(i);
      continue;
    }
    ++votes_skipped_;
    if (!ShouldAuditPrune()) continue;
    // The audit must see the exact composite penalty: uncapped.
    const double p = Price(i, mods, PropertyTool::kNoPenaltyCap);
    if (p == 0.0) continue;
    // The scope test proved this vote zero; a nonzero return means the
    // validator reads outside its certified scope. Latch, keep the
    // validator on the full-voting path, and let the real penalty
    // decide the proposal.
    route_scopes_[i] = nullptr;
    route_violations_.push_back(
        {static_cast<int>(i), validators_[i]->name(), p});
    if (p > 0) return static_cast<int>(i);
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
