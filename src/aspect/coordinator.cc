#include "aspect/coordinator.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <chrono>
#include <map>
#include <set>
#include <sstream>

#include "analysis/probe.h"
#include "aspect/lease.h"
#include "aspect/overlap.h"
#include "aspect/tweak_context.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "relational/modlog.h"

namespace aspect {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Listener on a parallel task's private notification route. Records
/// every modification the task applies to the shared database (with
/// pre-images and delivery shape) so the coordinator can splice the
/// notifications into the database's remaining listeners after the
/// barrier or undo a discarded group, and the coarse (table, column)
/// atoms actually written so the task's assumed scope can be verified.
class WriteRecorder : public ModificationListener {
 public:
  explicit WriteRecorder(const Schema* schema) : schema_(schema) {}

  /// One notification to replay: `count` entries starting at `begin`,
  /// delivered as OnAppliedBatch when `batch`, else as a single
  /// OnApplied call.
  struct Delivery {
    size_t begin = 0;
    size_t count = 0;
    bool batch = false;
  };

  void OnApplied(const Modification& mod, const std::vector<Value>& old_values,
                 TupleId new_tuple) override {
    AddAtoms(mod);
    deliveries_.push_back({mods_.size(), 1, false});
    mods_.push_back(mod);
    old_values_.push_back(old_values);
    new_tuples_.push_back(new_tuple);
  }

  void OnAppliedBatch(std::span<const Modification> mods,
                      std::span<const std::vector<Value>> old_values,
                      std::span<const TupleId> new_tuples) override {
    deliveries_.push_back({mods_.size(), mods.size(), true});
    for (size_t i = 0; i < mods.size(); ++i) {
      AddAtoms(mods[i]);
      mods_.push_back(mods[i]);
      old_values_.push_back(old_values[i]);
      new_tuples_.push_back(new_tuples[i]);
    }
  }

  /// Replays every recorded notification, in order and with the
  /// original delivery shape, to `listener`.
  void ReplayTo(ModificationListener* listener) const {
    for (const Delivery& d : deliveries_) {
      if (d.batch) {
        listener->OnAppliedBatch(
            std::span<const Modification>(&mods_[d.begin], d.count),
            std::span<const std::vector<Value>>(&old_values_[d.begin],
                                                d.count),
            std::span<const TupleId>(&new_tuples_[d.begin], d.count));
      } else {
        listener->OnApplied(mods_[d.begin], old_values_[d.begin],
                            new_tuples_[d.begin]);
      }
    }
  }

  /// Reverts every recorded modification on `db`, newest first, using
  /// the captured pre-images (Database::Undo). A discarded group's
  /// writes already landed in the shared database, so this is how they
  /// are taken back. Listeners are not notified; callers rebuild
  /// listener-held state.
  Status UndoOnto(Database* db) const {
    for (size_t i = mods_.size(); i-- > 0;) {
      ASPECT_RETURN_NOT_OK(
          db->Undo(mods_[i], old_values_[i], new_tuples_[i]));
    }
    return Status::OK();
  }

  /// Equivalent to ReplayTo for a modification log, but moves the
  /// recorded entries instead of copying them through the listener
  /// interface (the recorder is discarded after the splice, so the
  /// copies would be pure waste). Valid once; leaves the recorder's
  /// written-atom set intact.
  void MoveInto(ModificationLog* log) {
    for (const Delivery& d : deliveries_) {
      if (d.batch) log->CountAdoptedBatch();
      for (size_t i = d.begin; i < d.begin + d.count; ++i) {
        ModificationLog::Entry e;
        e.mod = std::move(mods_[i]);
        e.old_values = std::move(old_values_[i]);
        e.new_tuple = new_tuples_[i];
        log->Adopt(std::move(e));
      }
    }
    deliveries_.clear();
    mods_.clear();
    old_values_.clear();
    new_tuples_.clear();
  }

  /// The atoms written, in declaration terms: tuple ops are
  /// (table, kRowStructure), matching what DeclaredScope() promises
  /// and what Database::Apply probes. The scope guard diffs this set
  /// against the task's declared writes.
  const std::set<AccessScope::Atom>& written() const { return written_; }

 private:
  void AddAtoms(const Modification& mod) {
    const int t = schema_->TableIndex(mod.table);
    switch (mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues:
        for (const int c : mod.cols) written_.insert({t, c});
        break;
      case OpKind::kInsertTuple:
      case OpKind::kDeleteTuple:
        written_.insert({t, AccessScope::kRowStructure});
        break;
    }
  }

  const Schema* schema_;
  std::set<AccessScope::Atom> written_;
  std::vector<Modification> mods_;
  std::vector<std::vector<Value>> old_values_;
  std::vector<TupleId> new_tuples_;
  std::vector<Delivery> deliveries_;
};

using ToolList = std::vector<std::unique_ptr<PropertyTool>>;

/// The run's validators and its one record of distrust. Validators
/// accumulate: a tool that has completed at least one Tweak vetoes
/// later tools' damaging proposals (Sec. III-C). A tool caught
/// violating its declared scope — by the conformance checker, a lease
/// probe, the barrier's scope guard or the vote-routing audit — is
/// distrusted for the rest of the run: its declaration is ignored, so
/// it plans with its observed (write-only) scope, runs serially and
/// votes on every proposal.
///
/// With vote routing on, the ledger keeps the VoteIndex over the
/// enforced validators (slot j <-> enforced()[j]; the list only grows
/// and never reorders) in step with exactly the two events that change
/// what a from-scratch Build over Scope() would produce: a validator
/// joining appends its slot, a distrust event degrades its slot. An
/// observed scope evolves as the monitor records writes, but every
/// unknown or observed scope indexes identically (always votes, no
/// buckets), and declarations are stable for the duration of a run, so
/// maintenance is O(change) per event (debug builds cross-check it
/// against a rebuild on every routed step).
class ValidatorLedger {
 public:
  ValidatorLedger(const ToolList& tools, const AccessMonitor* monitor,
                  const Schema* schema, bool routing)
      : tools_(tools), monitor_(monitor), schema_(schema), routing_(routing) {
    index_.Reset(schema_);
  }

  /// The scope the planner assumes for tool `id`: declared if the tool
  /// knows it and is trusted, else what the AccessMonitor has observed
  /// so far (O2), else unknown — which keeps the tool serial.
  AccessScope Scope(int id) const {
    if (distrusted_.count(id) == 0) {
      AccessScope s = tools_[static_cast<size_t>(id)]->DeclaredScope();
      if (s.known) return s;
    }
    return monitor_->ObservedScope(id);
  }

  /// Adds `id` to the validators unless it already is one.
  void Enforce(int id) {
    if (SlotOf(id) != TweakContext::kNoSelfSlot) return;
    enforced_.push_back(id);
    if (!routing_) return;
    const double t0 = Now();
    index_.AddValidator(Scope(id));
    index_seconds_ += Now() - t0;
  }

  void Distrust(int id) {
    if (!distrusted_.insert(id).second || !routing_) return;
    const size_t slot = SlotOf(id);
    if (slot == TweakContext::kNoSelfSlot) return;
    const double t0 = Now();
    index_.Distrust(static_cast<int>(slot));
    index_seconds_ += Now() - t0;
  }

  /// The position of `id` in enforced(), or kNoSelfSlot.
  size_t SlotOf(int id) const {
    const auto it = std::find(enforced_.begin(), enforced_.end(), id);
    return it == enforced_.end()
               ? TweakContext::kNoSelfSlot
               : static_cast<size_t>(it - enforced_.begin());
  }

  const std::vector<int>& enforced() const { return enforced_; }

  /// The routing index (meaningful with routing on). Debug builds
  /// assert it equals a from-scratch rebuild over the resolved scopes.
  const VoteIndex& index() const {
#ifndef NDEBUG
    std::vector<AccessScope> scopes;
    scopes.reserve(enforced_.size());
    for (const int e : enforced_) scopes.push_back(Scope(e));
    VoteIndex fresh;
    fresh.Build(schema_, scopes);
    assert(index_.DebugEquals(fresh));
#endif
    return index_;
  }

  /// Seconds spent maintaining the routing index.
  double index_seconds() const { return index_seconds_; }

 private:
  const ToolList& tools_;
  const AccessMonitor* monitor_;
  const Schema* schema_;
  const bool routing_;
  std::set<int> distrusted_;
  std::vector<int> enforced_;
  VoteIndex index_;
  double index_seconds_ = 0;
};

/// One member of a parallel group. The tool tweaks the shared main
/// database directly inside its write lease; `route` — the tool's own
/// listeners plus the recorder — is the only notification target on
/// the task's thread, so its statistics update privately and siblings
/// see nothing.
struct GroupTask {
  size_t pos = 0;
  int id = -1;
  AccessScope scope;
  const WriteLease* lease = nullptr;
  /// A copy of the position's preforked RNG: a discarded group is
  /// redone serially with the pristine children.
  Rng rng;
  double error_before = 0;
  std::unique_ptr<WriteRecorder> recorder;
  std::unique_ptr<AccessMonitor> monitor;
  /// Observed read+write footprint of the Tweak (conformance checking
  /// only; null when no checker is installed).
  std::unique_ptr<analysis::FootprintRecorder> footprint;
  std::vector<ModificationListener*> route;
  /// The first write observed outside the lease, latched by the
  /// task's LeaseProbeSink.
  bool lease_violated = false;
  AccessScope::Atom lease_violation{-1, -1};
  int64_t lease_violation_row = analysis::kProbeAllRows;
  Status status = Status::OK();
  double seconds = 0;
  int64_t applied = 0;
  int64_t vetoed = 0;
  int64_t forced = 0;
  int batch_final = 1;
};

/// The state of one Coordinator::Run between steps: the validators,
/// the pass's preforked RNGs, the autotuned batch hints, the rollback
/// undo log and the worker pool. Each Step is one box of Fig. 2 —
/// tweak one tool under its validators' votes — or a parallel group of
/// such boxes that provably commute (O1).
class TweakLoop {
 public:
  TweakLoop(const ToolList& tools, AccessMonitor* monitor,
            analysis::ScopeChecker* checker, Database* db,
            const std::vector<int>& order, const CoordinatorOptions& options,
            RunReport* report)
      : tools_(tools),
        monitor_(monitor),
        checker_(checker),
        db_(db),
        order_(order),
        options_(options),
        report_(report),
        ledger_(tools, monitor, &db->schema(),
                options.route_votes != RouteVotes::kOff),
        batch_hint_(tools.size(), options.batch_size),
        try_parallel_(options.parallel_pass &&
                      !options.rollback_on_regression && order.size() > 1) {
    // Footprint recorders are dense bitmaps shaped by the schema.
    for (int i = 0; i < db->num_tables(); ++i) {
      columns_per_table_.push_back(db->table(i).num_columns());
    }
    // Undo-log rollback records every step's modifications with
    // pre-images; a regressed step is reverted in reverse at a cost
    // linear in the step's modifications, not the database size.
    if (options.rollback_on_regression) {
      undo_log_ = std::make_unique<ModificationLog>(db);
    }
  }

  /// Begins pass `pass` (0-based): one RNG child per order position,
  /// forked up front. The fork sequence is identical to forking right
  /// before each step, so serial results are unchanged, and each
  /// parallel task's randomness is fixed before any scheduling.
  void StartPass(int pass, Rng* rng) {
    pass_ = pass;
    children_.clear();
    for (size_t i = 0; i < order_.size(); ++i) children_.push_back(rng->Fork());
  }

  /// Runs the step at order position `pos` — a parallel group when one
  /// forms there, else one serial tool step — and returns the position
  /// after it.
  Result<size_t> Step(size_t pos) {
    std::vector<AccessScope> scopes;
    const std::vector<size_t> members =
        try_parallel_ ? PlanGroup(pos, &scopes) : std::vector<size_t>();
    if (members.size() < 2) {
      ASPECT_RETURN_NOT_OK(SerialStep(pos));
      return pos + 1;
    }
    ASPECT_RETURN_NOT_OK(GroupStep(members, scopes));
    return members.back() + 1;
  }

  /// Closes the run: final errors, unbinding, report totals and the
  /// strict scope-check verdict.
  Status Finish();

 private:
  PropertyTool* tool(int id) const {
    return tools_[static_cast<size_t>(id)].get();
  }

  /// The batch-size hint a step of `id` starts from. With batch_auto a
  /// step starts where the tool's previous committed step settled, so
  /// the tuning survives across passes; a discarded group commits no
  /// hint, so its serial redo starts from the same hint the group did
  /// and the trajectory is identical in serial and parallel execution.
  int BatchHint(int id) const {
    return options_.batch_auto ? batch_hint_[static_cast<size_t>(id)]
                               : options_.batch_size;
  }

  /// Summed error of `id` and every other validator: what the rollback
  /// guard must not see grow.
  double GuardedError(int id) const {
    double sum = tool(id)->Error();
    for (const int e : ledger_.enforced()) {
      if (e != id) sum += tool(e)->Error();
    }
    return sum;
  }

  /// Feeds the checker's distrust verdict on `id` into the ledger.
  void SyncCheckerDistrust(int id) {
    if (checker_ != nullptr && checker_->IsDistrusted(id)) {
      ledger_.Distrust(id);
    }
  }

  void UnbindAll() {
    for (const int id : order_) tool(id)->Unbind();
  }

  /// Restores the pre-step state from the undo log and rebuilds every
  /// bound tool's statistics.
  Status RollBack() {
    UnbindAll();
    ASPECT_RETURN_NOT_OK(undo_log_->UndoOnto(db_));
    undo_log_->Clear();
    for (const int id : order_) ASPECT_RETURN_NOT_OK(tool(id)->Bind(db_));
    return Status::OK();
  }

  Status SerialStep(size_t pos);
  std::vector<size_t> PlanGroup(size_t pos,
                                std::vector<AccessScope>* scopes) const;
  bool Eligible(size_t pos, AccessScope* out) const;
  Status GroupStep(const std::vector<size_t>& members,
                   const std::vector<AccessScope>& scopes);
  std::vector<GroupTask> SetUpGroup(const std::vector<size_t>& members,
                                    const std::vector<AccessScope>& scopes,
                                    const std::vector<WriteLease>& leases);
  void RunTasks(std::vector<GroupTask>* tasks);
  void RunTask(GroupTask* task);
  bool VerifyGroup(std::vector<GroupTask>* tasks);
  Status DiscardAndRedo(std::vector<GroupTask>* tasks);
  Status CommitGroup(std::vector<GroupTask>* tasks,
                     const std::vector<ModificationListener*>& replay_to);

  const ToolList& tools_;
  AccessMonitor* monitor_;
  analysis::ScopeChecker* checker_;
  Database* db_;
  const std::vector<int>& order_;
  const CoordinatorOptions& options_;
  RunReport* report_;
  ValidatorLedger ledger_;
  std::vector<int> batch_hint_;
  const bool try_parallel_;
  std::vector<int> columns_per_table_;
  std::unique_ptr<ModificationLog> undo_log_;
  std::vector<Rng> children_;
  /// 0-based pass index, for violation diagnostics.
  int pass_ = 0;
  /// Fetched from the process-wide shared pool by the first group that
  /// needs it (thread spawns are too expensive to pay per group). Stays
  /// null when this Run itself executes on a pool worker (the parallel
  /// order search), in which case groups run inline.
  ThreadPool* pool_ = nullptr;
};

/// One serial tool step: Tweak under the votes of every other
/// validator, guarded by the rollback safety net when enabled.
Status TweakLoop::SerialStep(size_t pos) {
  const int id = order_[pos];
  PropertyTool* t = tool(id);
  std::vector<PropertyTool*> validators;
  std::vector<int> validator_ids;
  if (options_.validate) {
    for (const int e : ledger_.enforced()) {
      if (e != id) {
        validators.push_back(tool(e));
        validator_ids.push_back(e);
      }
    }
  }
  TweakContext ctx(db_, std::move(validators), &children_[pos], monitor_, id);
  ctx.set_batch_hint(BatchHint(id));
  ctx.set_batch_auto(options_.batch_auto);
  if (options_.route_votes != RouteVotes::kOff && !validator_ids.empty()) {
    // The stepping tool's own slot (when already enforced) is handed to
    // the context so its vote loops skip it.
    ctx.set_vote_routing(&ledger_.index(), options_.route_votes,
                         ledger_.SlotOf(id));
  }
  ToolReport step;
  step.tool = t->name();
  step.error_before = t->Error();
  double guarded_before = 0;
  if (undo_log_ != nullptr) {
    const double clear0 = Now();
    undo_log_->Clear();
    step.rollback_seconds += Now() - clear0;
    guarded_before = GuardedError(id);
  }
  const double t0 = Now();
  Status st;
  if (checker_ != nullptr) {
    analysis::FootprintRecorder footprint(columns_per_table_);
    {
      analysis::ScopedAccessProbe probe(&footprint);
      st = t->Tweak(&ctx);
    }
    checker_->CheckStep(id, t->name(), t->DeclaredScope(), footprint, pass_);
    SyncCheckerDistrust(id);
  } else {
    st = t->Tweak(&ctx);
  }
  step.seconds = Now() - t0;
  if (!st.ok()) {
    UnbindAll();
    return st;
  }
  if (undo_log_ != nullptr) {
    step.rollback_mods = undo_log_->size();
    const double guarded_after = GuardedError(id);
    if (guarded_after > guarded_before + 1e-12) {
      const double undo0 = Now();
      ASPECT_RETURN_NOT_OK(RollBack());
      step.rolled_back = true;
      step.rollback_seconds += Now() - undo0;
      ASPECT_LOG(Info) << "rolled back " << t->name() << " (regression "
                       << guarded_before << " -> " << guarded_after << ")";
    }
  }
  step.error_after = t->Error();
  step.applied = ctx.applied();
  step.vetoed = ctx.vetoed();
  step.forced = ctx.forced();
  step.batch_final = ctx.batch_hint();
  step.votes_total = ctx.votes_total();
  step.votes_skipped = ctx.votes_skipped();
  step.route_audit_violations =
      static_cast<int64_t>(ctx.route_violations().size());
  step.route_fallbacks = ctx.route_fallbacks();
  for (const TweakContext::RouteViolation& v : ctx.route_violations()) {
    ledger_.Distrust(validator_ids[static_cast<size_t>(v.validator)]);
    ASPECT_LOG(Info) << "vote-routing audit: pruned validator " << v.name
                     << " returned penalty " << v.penalty << " during "
                     << t->name()
                     << "; declaration distrusted, full voting restored";
  }
  batch_hint_[static_cast<size_t>(id)] = ctx.batch_hint();
  ASPECT_LOG(Info) << "tweak " << step.tool << ": " << step.error_before
                   << " -> " << step.error_after;
  report_->steps.push_back(std::move(step));
  ledger_.Enforce(id);
  return Status::OK();
}

// A position may run inside a parallel group only if its scope is
// known with a complete read set — an observed (write-only) scope
// cannot prove the tool's reads are undisturbed by co-members, so such
// tools stay on the serial path — and every enforced validator's vote
// on its proposals is provably zero. A vote depends on the validator's
// *statistics* (its Error/ValidationPenalty inputs), so the test is
// against stats_reads (ValidationDisturb), not the full Tweak read set:
// a validator's Tweak-only reads (e.g. TupleCountTool's whole template
// rows) cannot change its votes. Votes of group co-members are covered
// by the group's pairwise non-conflict.
bool TweakLoop::Eligible(size_t pos, AccessScope* out) const {
  const AccessScope s = ledger_.Scope(order_[pos]);
  if (!s.known || !s.reads_complete) return false;
  // A known-but-empty scope means the tool touches no data at all;
  // grouping it buys nothing.
  if (s.reads.empty() && s.writes.empty()) return false;
  if (options_.validate) {
    for (const int e : ledger_.enforced()) {
      if (e == order_[pos]) continue;
      if (ValidationDisturb(s, ledger_.Scope(e))) return false;
    }
  }
  *out = s;
  return true;
}

/// The parallel group starting at `pos`, if any: the maximal run of
/// consecutive eligible positions, partitioned by scope conflicts (O1)
/// into independence classes; the group is the maximal consecutive
/// prefix sharing the first position's class. Consecutiveness means no
/// conflicting tool was scheduled between the members, so running them
/// concurrently is exactly the commutation O1 licenses.
std::vector<size_t> TweakLoop::PlanGroup(
    size_t pos, std::vector<AccessScope>* scopes) const {
  std::vector<AccessScope> window;
  for (size_t end = pos; end < order_.size(); ++end) {
    AccessScope s;
    if (!Eligible(end, &s)) break;
    window.push_back(std::move(s));
  }
  const size_t wn = window.size();
  if (wn < 2) return {};
  std::vector<std::vector<bool>> adj(wn, std::vector<bool>(wn, false));
  for (size_t a = 0; a < wn; ++a) {
    for (size_t b = a + 1; b < wn; ++b) {
      const bool c = ScopesConflict(window[a], window[b]);
      adj[a][b] = c;
      adj[b][a] = c;
    }
  }
  const std::vector<std::vector<int>> classes = IndependentClasses(adj);
  std::vector<int> class_of(wn, 0);
  for (size_t k = 0; k < classes.size(); ++k) {
    for (const int v : classes[k]) {
      class_of[static_cast<size_t>(v)] = static_cast<int>(k);
    }
  }
  std::vector<size_t> members = {pos};
  scopes->push_back(window[0]);
  for (size_t j = 1; j < wn; ++j) {
    if (class_of[j] != class_of[0]) break;
    // The same tool twice in one group would race with itself.
    bool duplicate = false;
    for (const size_t m : members) duplicate |= order_[m] == order_[pos + j];
    if (duplicate) break;
    members.push_back(pos + j);
    scopes->push_back(window[j]);
  }
  return members;
}

/// Runs consecutive, pairwise non-conflicting order positions
/// concurrently on the shared database, then verifies every task
/// stayed inside its scope: set up, tweak, verify, and either commit
/// or discard and redo the whole group serially.
Status TweakLoop::GroupStep(const std::vector<size_t>& members,
                           const std::vector<AccessScope>& scopes) {
  const double setup0 = Now();
  // The write leases partition the members' certified writes on the
  // shared database. The partition cannot fail for a correctly formed
  // group (every write atom is also a read atom, so overlapping writers
  // always conflict at grouping time, and row-ranged leases reuse the
  // grouping's interval exemption); if it ever does, the positions run
  // serially.
  std::vector<int> ids;
  for (const size_t m : members) ids.push_back(order_[m]);
  std::vector<WriteLease> leases;
  if (!PartitionWriteLeases(ids, scopes, &leases)) {
    ASPECT_LOG(Warning)
        << "write-lease partition found overlapping write scopes in a "
           "supposedly non-conflicting group; running it serially";
    for (const size_t m : members) ASPECT_RETURN_NOT_OK(SerialStep(m));
    return Status::OK();
  }
  std::vector<GroupTask> tasks = SetUpGroup(members, scopes, leases);
  // The listeners that need the group's notifications spliced in after
  // the barrier: modification logs and other observers that are
  // neither tools (bound tools are handled by the rebind rules) nor a
  // member's own listeners, which saw its writes live.
  std::set<const ModificationListener*> excluded;
  for (const auto& t : tools_) excluded.insert(t.get());
  for (const GroupTask& task : tasks) {
    excluded.insert(task.route.begin(), task.route.end());
  }
  std::vector<ModificationListener*> replay_to;
  for (ModificationListener* l : db_->listeners()) {
    if (excluded.count(l) == 0) replay_to.push_back(l);
  }
  report_->group_setup_seconds += Now() - setup0;
  ++report_->parallel_groups;
  // A group that only exists thanks to row-range declarations: some
  // member pair overlaps on an atom under the interval-blind rules and
  // was admitted because the declared intervals are disjoint.
  bool range_only = false;
  for (size_t a = 0; a < scopes.size(); ++a) {
    for (size_t b = a + 1; b < scopes.size(); ++b) {
      range_only |= WritesDisturbAtoms(scopes[a].writes, scopes[b].reads) ||
                    WritesDisturbAtoms(scopes[b].writes, scopes[a].reads);
    }
  }
  if (range_only) ++report_->row_range_groups;
  RunTasks(&tasks);
  if (!VerifyGroup(&tasks)) return DiscardAndRedo(&tasks);
  return CommitGroup(&tasks, replay_to);
}

std::vector<GroupTask> TweakLoop::SetUpGroup(
    const std::vector<size_t>& members, const std::vector<AccessScope>& scopes,
    const std::vector<WriteLease>& leases) {
  std::vector<GroupTask> tasks(members.size());
  for (size_t k = 0; k < members.size(); ++k) {
    GroupTask& task = tasks[k];
    task.pos = members[k];
    task.id = order_[task.pos];
    task.scope = scopes[k];
    task.lease = &leases[k];
    task.rng = children_[task.pos];
    // Measured at group start, this equals the serial value: the
    // co-members scheduled before this position cannot disturb the
    // tool's reads.
    task.error_before = tool(task.id)->Error();
    // Recorders keep full notification copies even with no listener to
    // splice into: a discarded group must undo writes that already
    // landed in the shared database.
    task.recorder = std::make_unique<WriteRecorder>(&db_->schema());
    task.monitor = std::make_unique<AccessMonitor>(
        static_cast<int>(tools_.size()));
    if (checker_ != nullptr) {
      task.footprint =
          std::make_unique<analysis::FootprintRecorder>(columns_per_table_);
    }
    // The member's own listener set — the tool plus its auxiliary
    // listeners (e.g. coappear's RefCounter), via AppendListeners.
    tool(task.id)->AppendListeners(&task.route);
    task.route.push_back(task.recorder.get());
  }
  return tasks;
}

void TweakLoop::RunTasks(std::vector<GroupTask>* tasks) {
  int threads = options_.pass_threads;
  if (threads <= 0) threads = ThreadPool::HardwareThreads();
  if (threads > 1 && pool_ == nullptr) pool_ = ThreadPool::Shared(threads);
  if (threads > 1 && pool_ != nullptr) {
    for (GroupTask& task : *tasks) {
      pool_->Submit([this, &task]() { RunTask(&task); });
    }
    pool_->Wait();
  } else {
    for (GroupTask& task : *tasks) RunTask(&task);
  }
}

void TweakLoop::RunTask(GroupTask* task) {
  PropertyTool* t = tool(task->id);
  // No validators: eligibility proved every enforced vote is zero, and
  // co-member votes are zero by the group's non-conflict.
  TweakContext ctx(db_, {}, &task->rng, task->monitor.get(), task->id);
  ctx.set_batch_hint(BatchHint(task->id));
  ctx.set_batch_auto(options_.batch_auto);
  // Divert this thread's Apply notifications to the task's private
  // route for the duration of the Tweak.
  Database::ScopedListenerRoute route(&task->route);
  // Lease enforcement at Apply time: debug builds and checker-on runs
  // observe every semantic write through the access probes and pinpoint
  // the first out-of-lease write at the violating modification.
  // Everything else — release builds at kOff, and kSampled anywhere —
  // runs the sampled canary: one write in LeaseProbeSink::kSampleStride
  // (the first one always) pays the containment check, so a lying
  // declaration is still caught without --check-scopes, alongside the
  // atom-level recorder diff at the barrier.
#ifdef NDEBUG
  const bool probe_full = task->footprint != nullptr;
#else
  const bool probe_full =
      options_.check_scopes != analysis::ScopeCheckMode::kSampled;
#endif
  const double t0 = Now();
  LeaseProbeSink sink(task->lease, task->footprint.get(), !probe_full);
  {
    // The probe sink is thread-local, so each worker records into its
    // own task's sink without any sharing.
    analysis::ScopedAccessProbe probe(&sink);
    task->status = t->Tweak(&ctx);
  }
  task->lease_violated = sink.violated();
  task->lease_violation = sink.violation();
  task->lease_violation_row = sink.violation_row();
  task->seconds = Now() - t0;
  task->applied = ctx.applied();
  task->vetoed = ctx.vetoed();
  task->forced = ctx.forced();
  task->batch_final = ctx.batch_hint();
}

/// True when every task succeeded inside the scope the grouping
/// assumed; an offender is distrusted before the serial redo re-plans.
bool TweakLoop::VerifyGroup(std::vector<GroupTask>* tasks) {
  bool ok = true;
  for (GroupTask& task : *tasks) {
    const std::string name = tool(task.id)->name();
    if (!task.status.ok()) {
      ASPECT_LOG(Warning) << "parallel group discarded: " << name
                          << " failed (" << task.status.ToString()
                          << "); redoing serially";
      ok = false;
      continue;
    }
    if (task.lease_violated) {
      std::ostringstream row_info;
      if (task.lease_violation_row != analysis::kProbeAllRows) {
        row_info << ", row " << task.lease_violation_row;
      }
      ASPECT_LOG(Warning)
          << "parallel group discarded: " << name << " wrote (table "
          << task.lease_violation.first << ", col "
          << task.lease_violation.second << row_info.str()
          << ") outside its write lease; redoing serially and "
             "distrusting its declaration";
      ++report_->lease_violations;
      ledger_.Distrust(task.id);
      ok = false;
      continue;
    }
    for (const AccessScope::Atom& a : task.recorder->written()) {
      if (!AtomCoveredBy(a, task.scope.writes)) {
        ASPECT_LOG(Warning)
            << "parallel group discarded: " << name << " wrote (table "
            << a.first << ", col " << a.second
            << ") outside its assumed scope; redoing serially and "
               "distrusting its declaration";
        ledger_.Distrust(task.id);
        ok = false;
        break;
      }
    }
  }
  // Conformance: diff each task's observed footprint against its
  // declaration, and cross-check that the members' observed footprints
  // really were pairwise non-disturbing — the grouping was proved on
  // declarations, this verifies it held in fact. Run even when the
  // group is about to be discarded: the violation that caused the
  // discard is exactly what should be reported.
  if (checker_ == nullptr) return ok;
  std::vector<int> group_tools;
  std::vector<std::string> group_names;
  std::vector<const analysis::FootprintRecorder*> group_prints;
  for (GroupTask& task : *tasks) {
    if (!task.status.ok()) continue;
    PropertyTool* t = tool(task.id);
    checker_->CheckStep(task.id, t->name(), t->DeclaredScope(),
                        *task.footprint, pass_);
    group_tools.push_back(task.id);
    group_names.push_back(t->name());
    group_prints.push_back(task.footprint.get());
  }
  if (group_prints.size() > 1) {
    checker_->CheckGroupDisjoint(group_tools, group_names, group_prints,
                                 pass_);
  }
  for (const int id : group_tools) SyncCheckerDistrust(id);
  return ok;
}

/// Restores the pre-group database and replays the group serially with
/// the pristine preforked RNGs — exact serial semantics, bit for bit.
/// Each recorder's writes are reverted from the captured pre-images,
/// newest task first: per table only the row-structure lease holder
/// inserted, so the last-slot invariant of Database::Undo holds, and
/// Undo is listener-silent while the routes kept the main listeners
/// blind during the group — so after the undo only the members' own
/// statistics are stale, and rebinding them rebuilds exactly those.
Status TweakLoop::DiscardAndRedo(std::vector<GroupTask>* tasks) {
  for (GroupTask& task : *tasks) {
    if (tool(task.id)->bound()) tool(task.id)->Unbind();
  }
  for (size_t k = tasks->size(); k-- > 0;) {
    ASPECT_RETURN_NOT_OK((*tasks)[k].recorder->UndoOnto(db_));
  }
  for (GroupTask& task : *tasks) {
    ASPECT_RETURN_NOT_OK(tool(task.id)->Bind(db_));
  }
  for (GroupTask& task : *tasks) ASPECT_RETURN_NOT_OK(SerialStep(task.pos));
  return Status::OK();
}

Status TweakLoop::CommitGroup(
    std::vector<GroupTask>* tasks,
    const std::vector<ModificationListener*>& replay_to) {
  // Splice the recorded notifications (original order and delivery
  // shape) into the remaining listeners, one member segment after
  // another in order-position order — exactly the serial per-position
  // segment order, so the spliced log is bitwise identical to the
  // serial one. A lone modification log — the common case — adopts the
  // entries by move.
  const double merge0 = Now();
  for (GroupTask& task : *tasks) {
    auto* log = replay_to.size() == 1
                    ? dynamic_cast<ModificationLog*>(replay_to[0])
                    : nullptr;
    if (log != nullptr) {
      task.recorder->MoveInto(log);
      continue;
    }
    for (ModificationListener* l : replay_to) task.recorder->ReplayTo(l);
  }
  report_->group_merge_seconds += Now() - merge0;

  // Any other bound tool whose statistics the group may have touched
  // (or whose scope is unknown or write-only observed) gets them
  // rebuilt. The test is directional and against stats_reads: Bind
  // only rebuilds statistics, so a tool whose statistics inputs no
  // group write can disturb — e.g. a pure row-structure reader when the
  // group wrote only cells — is provably unchanged (O1) and keeps its
  // state.
  const double rebind0 = Now();
  std::set<AccessScope::Atom> group_written;
  std::set<int> considered;
  for (const GroupTask& task : *tasks) {
    considered.insert(task.id);
    group_written.insert(task.recorder->written().begin(),
                         task.recorder->written().end());
  }
  for (const int v : order_) {
    if (!considered.insert(v).second || !tool(v)->bound()) continue;
    const AccessScope vs = ledger_.Scope(v);
    if (!vs.known || !vs.reads_complete ||
        WritesDisturbAtoms(group_written, vs.stats_reads)) {
      tool(v)->Unbind();
      ASPECT_RETURN_NOT_OK(tool(v)->Bind(db_));
    }
  }
  report_->group_rebase_seconds += Now() - rebind0;

  // Adopt the tasks' access records and file the reports in order.
  for (GroupTask& task : *tasks) monitor_->MergeFrom(std::move(*task.monitor));
  for (GroupTask& task : *tasks) {
    ToolReport step;
    step.tool = tool(task.id)->name();
    step.error_before = task.error_before;
    step.error_after = tool(task.id)->Error();
    step.applied = task.applied;
    step.vetoed = task.vetoed;
    step.forced = task.forced;
    step.seconds = task.seconds;
    step.parallel = true;
    step.batch_final = task.batch_final;
    batch_hint_[static_cast<size_t>(task.id)] = task.batch_final;
    ASPECT_LOG(Info) << "tweak " << step.tool << " (parallel): "
                     << step.error_before << " -> " << step.error_after;
    report_->steps.push_back(std::move(step));
    ledger_.Enforce(task.id);
  }
  return Status::OK();
}

Status TweakLoop::Finish() {
  report_->final_errors.resize(tools_.size(), 0.0);
  for (size_t i = 0; i < tools_.size(); ++i) {
    if (tools_[i]->bound()) report_->final_errors[i] = tools_[i]->Error();
  }
  UnbindAll();
  for (const ToolReport& s : report_->steps) {
    report_->votes_total += s.votes_total;
    report_->votes_skipped += s.votes_skipped;
    report_->route_audit_violations += s.route_audit_violations;
    report_->route_fallbacks += s.route_fallbacks;
  }
  report_->route_index_build_seconds = ledger_.index_seconds();
  if (checker_ == nullptr) return Status::OK();
  report_->scope_violations = checker_->violations();
  if (options_.check_scopes == analysis::ScopeCheckMode::kStrict &&
      !checker_->ok()) {
    return Status::ValidationFailed(StrFormat(
        "scope check (strict): %zu violation(s), first: %s",
        report_->scope_violations.size(),
        report_->scope_violations.front().ToString().c_str()));
  }
  return Status::OK();
}

}  // namespace

const char* StopReasonToString(RunReport::StopReason reason) {
  switch (reason) {
    case RunReport::StopReason::kIterationsExhausted:
      return "iterations exhausted";
    case RunReport::StopReason::kConverged:
      return "converged";
    case RunReport::StopReason::kRegressed:
      return "regressed";
  }
  return "?";
}

std::string RunReport::ToString() const {
  std::ostringstream os;
  for (const ToolReport& s : steps) {
    os << StrFormat("%-10s error %.6f -> %.6f (applied %lld, vetoed %lld, "
                    "forced %lld, %.2fs)",
                    s.tool.c_str(), s.error_before, s.error_after,
                    static_cast<long long>(s.applied),
                    static_cast<long long>(s.vetoed),
                    static_cast<long long>(s.forced), s.seconds);
    if (s.rolled_back) {
      os << StrFormat(" [rolled back %lld mods in %.3fs]",
                      static_cast<long long>(s.rollback_mods),
                      s.rollback_seconds);
    } else if (s.rollback_seconds > 0) {
      os << StrFormat(" [rollback net %.3fs]", s.rollback_seconds);
    }
    if (s.parallel) os << " [parallel]";
    if (s.batch_final > 1) {
      os << StrFormat(" [batch %d]", s.batch_final);
    }
    if (s.votes_skipped > 0) {
      os << StrFormat(" [votes %lld/%lld skipped]",
                      static_cast<long long>(s.votes_skipped),
                      static_cast<long long>(s.votes_total));
    }
    if (s.route_audit_violations > 0) {
      os << StrFormat(" [route audit: %lld violation(s)]",
                      static_cast<long long>(s.route_audit_violations));
    }
    if (s.route_fallbacks > 0) {
      os << StrFormat(" [route fallbacks %lld]",
                      static_cast<long long>(s.route_fallbacks));
    }
    os << "\n";
  }
  if (votes_skipped > 0 || route_audit_violations > 0 ||
      route_fallbacks > 0) {
    os << StrFormat("vote routing: %lld/%lld votes skipped",
                    static_cast<long long>(votes_skipped),
                    static_cast<long long>(votes_total));
    if (route_audit_violations > 0) {
      os << StrFormat(", %lld audit violation(s)",
                      static_cast<long long>(route_audit_violations));
    }
    if (route_fallbacks > 0) {
      os << StrFormat(", %lld unknown-table fallback(s)",
                      static_cast<long long>(route_fallbacks));
    }
    os << "\n";
  }
  os << StrFormat("total %.2fs", total_seconds);
  if (stop_reason != StopReason::kIterationsExhausted) {
    os << " (" << StopReasonToString(stop_reason) << ")";
  }
  return os.str();
}

int Coordinator::AddTool(std::unique_ptr<PropertyTool> tool) {
  tools_.push_back(std::move(tool));
  return static_cast<int>(tools_.size()) - 1;
}

int Coordinator::FindTool(const std::string& name) const {
  for (size_t i = 0; i < tools_.size(); ++i) {
    if (tools_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

Status Coordinator::SetTargetsFromDataset(const Database& ground_truth) {
  for (const auto& t : tools_) {
    ASPECT_RETURN_NOT_OK(t->SetTargetFromDataset(ground_truth));
  }
  return Status::OK();
}


// Stage 2 of Fig. 2: every pass tweaks the tools in order, each under
// the votes of the tools enforced before it, until the iterations run
// out or a pass stops improving the summed error (Sec. VII-C).
Result<RunReport> Coordinator::Run(Database* db,
                                   const std::vector<int>& order,
                                   const CoordinatorOptions& options) {
  for (const int id : order) {
    if (id < 0 || id >= num_tools()) {
      return Status::OutOfRange(StrFormat("tool id %d", id));
    }
  }
  RunReport report;
  const double run_start = Now();
  monitor_ = std::make_unique<AccessMonitor>(num_tools());
  checker_.reset();
  // kSampled deliberately creates no checker: it selects the lease-
  // canary-only path (what release builds do at kOff), with no
  // footprint recording or conformance diffing.
  if (options.check_scopes == analysis::ScopeCheckMode::kWarn ||
      options.check_scopes == analysis::ScopeCheckMode::kStrict) {
    checker_ = std::make_unique<analysis::ScopeChecker>(options.check_scopes,
                                                        num_tools());
  }
  // Bind all tools in the order so each maintains statistics (and can
  // validate) from the start of the run.
  for (const int id : order) {
    ASPECT_RETURN_NOT_OK(tool(id)->Bind(db));
    if (options.repair_targets) ASPECT_RETURN_NOT_OK(tool(id)->RepairTarget());
  }
  TweakLoop loop(tools_, monitor_.get(), checker_.get(), db, order, options,
                 &report);
  Rng rng(options.seed);
  double prev_total = -1;
  for (int pass = 0; pass < options.iterations; ++pass) {
    loop.StartPass(pass, &rng);
    for (size_t pos = 0; pos < order.size();) {
      ASPECT_ASSIGN_OR_RETURN(pos, loop.Step(pos));
    }
    if (options.converge_epsilon <= 0) continue;
    double total = 0;
    for (const int id : order) total += tool(id)->Error();
    const double improvement = prev_total - total;
    if (prev_total >= 0 && improvement < options.converge_epsilon) {
      // A pass that made things worse is not convergence.
      if (improvement < 0) {
        report.stop_reason = RunReport::StopReason::kRegressed;
        ASPECT_LOG(Warning) << "pass " << pass + 1
                            << " regressed: total error " << prev_total
                            << " -> " << total;
      } else {
        report.stop_reason = RunReport::StopReason::kConverged;
      }
      break;
    }
    prev_total = total;
  }
  ASPECT_RETURN_NOT_OK(loop.Finish());
  report.total_seconds = Now() - run_start;
  return report;
}

Result<std::vector<Coordinator::OrderOutcome>> Coordinator::CompareOrders(
    const Database& db, const std::vector<std::vector<int>>& orders,
    const CoordinatorOptions& options) {
  const size_t n = orders.size();
  std::vector<OrderOutcome> outcomes(n);

  // Candidates are independent given their own tool set: Run seeds its
  // RNG from options.seed, so a worker Coordinator with cloned tools
  // and a database snapshot produces exactly the serial result.
  const auto clone_tools = [this]() {
    std::vector<std::unique_ptr<PropertyTool>> clones;
    clones.reserve(tools_.size());
    for (const auto& t : tools_) {
      std::unique_ptr<PropertyTool> c = t->Clone();
      if (c == nullptr) return std::vector<std::unique_ptr<PropertyTool>>();
      clones.push_back(std::move(c));
    }
    return clones;
  };
  bool cloneable = !tools_.empty();
  if (cloneable) {
    cloneable = clone_tools().size() == tools_.size();
  }

  if (!cloneable) {
    // Legacy path for tools without Clone(): candidates share this
    // coordinator's tools and must run one at a time.
    for (size_t i = 0; i < n; ++i) {
      std::unique_ptr<Database> scratch = db.Clone();
      OrderOutcome& outcome = outcomes[i];
      outcome.order = orders[i];
      const double t0 = Now();
      ASPECT_ASSIGN_OR_RETURN(outcome.report,
                              Run(scratch.get(), orders[i], options));
      outcome.seconds = Now() - t0;
      for (const int id : orders[i]) {
        outcome.total_error +=
            outcome.report.final_errors[static_cast<size_t>(id)];
      }
    }
  } else {
    std::vector<Status> statuses(n, Status::OK());
    std::vector<std::unique_ptr<AccessMonitor>> monitors(n);
    const auto run_one = [&](size_t i) {
      Coordinator worker;
      for (auto& c : clone_tools()) worker.AddTool(std::move(c));
      std::unique_ptr<Database> scratch = db.Clone();
      OrderOutcome& outcome = outcomes[i];
      outcome.order = orders[i];
      const double t0 = Now();
      Result<RunReport> r = worker.Run(scratch.get(), orders[i], options);
      outcome.seconds = Now() - t0;
      if (!r.ok()) {
        statuses[i] = r.status();
        return;
      }
      outcome.report = std::move(r).ValueOrDie();
      for (const int id : orders[i]) {
        outcome.total_error +=
            outcome.report.final_errors[static_cast<size_t>(id)];
      }
      monitors[i] = std::move(worker.monitor_);
    };
    int threads = options.order_search_threads;
    if (threads <= 0) threads = ThreadPool::HardwareThreads();
    threads = std::min<int>(threads, static_cast<int>(n));
    ThreadPool* pool = threads > 1 ? ThreadPool::Shared(threads) : nullptr;
    if (pool != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        pool->Submit([&run_one, i]() { run_one(i); });
      }
      pool->Wait();
    } else {
      for (size_t i = 0; i < n; ++i) run_one(i);
    }
    for (const Status& st : statuses) {
      if (!st.ok()) return st;
    }
    // Keep last_monitor() meaningful: adopt the final candidate's
    // monitor, matching what a serial sequence of Runs would leave.
    for (size_t i = n; i-- > 0;) {
      if (monitors[i] != nullptr) {
        monitor_ = std::move(monitors[i]);
        break;
      }
    }
  }

  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const OrderOutcome& a, const OrderOutcome& b) {
                     return a.total_error < b.total_error;
                   });
  return outcomes;
}

std::vector<std::pair<std::string, std::vector<int>>> AllPermutations(
    const Coordinator& coordinator, const std::vector<int>& tool_ids) {
  std::vector<int> ids = tool_ids;
  std::sort(ids.begin(), ids.end());

  // Label each tool with the shortest prefix of its name that no other
  // participating tool's name shares; first initials alone collide for
  // names like "coappear" and "chain".
  std::map<int, std::string> prefix;
  for (const int id : ids) {
    const std::string& name = coordinator.tool(id)->name();
    std::string label;
    for (size_t len = 1; len <= name.size(); ++len) {
      bool unique = true;
      for (const int other : ids) {
        if (other == id) continue;
        const std::string& o = coordinator.tool(other)->name();
        if (o.compare(0, len, name, 0, len) == 0) {
          unique = false;
          break;
        }
      }
      if (unique) {
        label = name.substr(0, len);
        break;
      }
    }
    if (label.empty()) {
      // No distinguishing prefix: another tool's name is a duplicate
      // (or an extension) of this one. Use the full name, plus the id
      // for exact duplicates.
      label = name.empty() ? "?" : name;
      for (const int other : ids) {
        if (other != id && coordinator.tool(other)->name() == name) {
          label += "#" + std::to_string(id);
          break;
        }
      }
    }
    for (char& c : label) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    prefix[id] = label;
  }

  std::vector<std::pair<std::string, std::vector<int>>> out;
  do {
    std::string label;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) label += "-";
      label += prefix[ids[i]];
    }
    out.emplace_back(label, ids);
  } while (std::next_permutation(ids.begin(), ids.end()));
  return out;
}

}  // namespace aspect
