// Tests for scope-indexed validator routing (--route-votes): routed
// voting must be bitwise identical to full voting in every execution
// mode and at every thread count while actually pruning votes, the
// row-interval exemption must prune validators whose certified range
// is disjoint from the touched rows, and the sampled pruning audit
// must catch a validator whose declared read scope under-reports what
// its votes depend on — then keep it off the routed path for the rest
// of the run.
#include <gtest/gtest.h>

#include <cmath>

#include "aspect/coordinator.h"
#include "aspect/tweak_context.h"
#include "aspect/vote_index.h"
#include "properties/simple.h"
#include "relational/modlog.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

// Byte-level equality: slots, tombstones, and every cell's state (a
// kNull cell is not a kEmpty cell even though both read back as Null).
void ExpectDatabasesIdentical(const Database& a, const Database& b) {
  ASSERT_EQ(a.num_tables(), b.num_tables());
  for (int t = 0; t < a.num_tables(); ++t) {
    const Table& ta = a.table(t);
    const Table& tb = b.table(t);
    ASSERT_EQ(ta.NumSlots(), tb.NumSlots()) << ta.name();
    ASSERT_EQ(ta.NumTuples(), tb.NumTuples()) << ta.name();
    for (TupleId tid = 0; tid < ta.NumSlots(); ++tid) {
      ASSERT_EQ(ta.IsLive(tid), tb.IsLive(tid)) << ta.name() << " " << tid;
      for (int c = 0; c < ta.num_columns(); ++c) {
        ASSERT_EQ(static_cast<int>(ta.column(c).state(tid)),
                  static_cast<int>(tb.column(c).state(tid)))
            << ta.name() << " " << tid << " col " << c;
        if (ta.column(c).IsValue(tid)) {
          ASSERT_EQ(ta.column(c).Get(tid), tb.column(c).Get(tid))
              << ta.name() << " " << tid << " col " << c;
        }
      }
    }
  }
}

// Entry-level equality of two modification logs: same modifications,
// same order, same pre-images, same assigned tuple ids.
void ExpectLogsIdentical(const ModificationLog& a, const ModificationLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    const ModificationLog::Entry& ea = a.entries()[static_cast<size_t>(i)];
    const ModificationLog::Entry& eb = b.entries()[static_cast<size_t>(i)];
    ASSERT_EQ(static_cast<int>(ea.mod.kind), static_cast<int>(eb.mod.kind))
        << "entry " << i;
    ASSERT_EQ(ea.mod.table, eb.mod.table) << "entry " << i;
    ASSERT_EQ(ea.mod.tuples, eb.mod.tuples) << "entry " << i;
    ASSERT_EQ(ea.mod.cols, eb.mod.cols) << "entry " << i;
    ASSERT_EQ(ea.mod.values, eb.mod.values) << "entry " << i;
    ASSERT_EQ(ea.old_values, eb.old_values) << "entry " << i;
    ASSERT_EQ(ea.new_tuple, eb.new_tuple) << "entry " << i;
  }
}

std::vector<TupleId> LiveTuples(const Table& t) {
  std::vector<TupleId> live;
  t.ForEachLive([&](TupleId tid) { live.push_back(tid); });
  return live;
}

struct Outcome {
  RunReport report;
  std::unique_ptr<Database> db;
  std::unique_ptr<ModificationLog> log;
};

void ExpectSameSteps(const RunReport& a, const RunReport& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < b.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tool, b.steps[i].tool) << "step " << i;
    EXPECT_EQ(a.steps[i].error_before, b.steps[i].error_before)
        << "step " << i;
    EXPECT_EQ(a.steps[i].error_after, b.steps[i].error_after) << "step " << i;
    EXPECT_EQ(a.steps[i].applied, b.steps[i].applied) << "step " << i;
    EXPECT_EQ(a.steps[i].vetoed, b.steps[i].vetoed) << "step " << i;
    EXPECT_EQ(a.steps[i].batch_final, b.steps[i].batch_final) << "step " << i;
    // Routing never changes how many votes COULD be cast — only how
    // many validators were actually invoked.
    EXPECT_EQ(a.steps[i].votes_total, b.steps[i].votes_total) << "step " << i;
  }
  EXPECT_EQ(a.final_errors, b.final_errors);
}

// ---------------------------------------------------------------------
// Routed vs full voting over a real dataset: three narrow-scope
// ColumnFreq tools plus a TupleCount tool with grow work, so the vote
// loops see both cell writes and row-structure writes. Routed runs
// must be bitwise identical to full voting in the database, the log,
// and the per-step report — across serial, clone and shared modes and
// across thread counts — while skipping a nonzero number of votes.
// ---------------------------------------------------------------------
class VoteRoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gen_ = std::make_unique<SnapshotSet>(
        GenerateDataset(XiamiLike(2.0), 11).ValueOrAbort());
    truth_ = gen_->Materialize(4).ValueOrAbort();
    RandScaler rand;
    base_ = rand.Scale(*gen_->Materialize(1).ValueOrAbort(),
                       gen_->SnapshotSizes(4), 11)
                .ValueOrAbort();
    for (const auto& tc : kCols) {
      Table* table = base_->FindTable(tc[0]);
      ASSERT_NE(table, nullptr);
      const int col = table->ColumnIndex(tc[1]);
      std::vector<TupleId> rows = LiveTuples(*table);
      ASSERT_TRUE(base_->Apply(Modification::ReplaceValues(
                                   tc[0], rows, {col}, {Value(int64_t{0})}))
                      .ok());
    }
    // Knock a few Thread tuples out so the TupleCount tool has grow
    // work: its inserts are row-structure writes, the Route() branch
    // the cell-write-only ColumnFreq proposals never reach.
    Table* thread = base_->FindTable("Thread");
    ASSERT_NE(thread, nullptr);
    std::vector<TupleId> live = LiveTuples(*thread);
    ASSERT_GT(live.size(), 8u);
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          base_->Apply(Modification::DeleteTuple("Thread", live[i])).ok());
    }
  }

  Outcome RunWith(RouteVotes route, bool parallel, int threads,
                  int batch_size = 64) {
    Outcome out;
    out.db = base_->Clone();
    out.log = std::make_unique<ModificationLog>(out.db.get());
    Coordinator coordinator;
    std::vector<int> order;
    for (const auto& tc : kCols) {
      order.push_back(coordinator.AddTool(std::make_unique<ColumnFreqTool>(
          truth_->schema(), tc[0], tc[1])));
    }
    order.push_back(
        coordinator.AddTool(std::make_unique<TupleCountTool>(truth_->schema())));
    coordinator.SetTargetsFromDataset(*truth_).Check();
    CoordinatorOptions opts;
    opts.seed = 5;
    opts.parallel_pass = parallel;
    opts.pass_threads = threads;
    opts.batch_size = batch_size;
    opts.route_votes = route;
    out.report = coordinator.Run(out.db.get(), order, opts).ValueOrAbort();
    return out;
  }

  static constexpr const char* kCols[][2] = {
      {"User", "gender"}, {"Photo", "kind"}, {"Thread", "kind"}};

  std::unique_ptr<SnapshotSet> gen_;
  std::unique_ptr<Database> truth_;
  std::unique_ptr<Database> base_;
};

TEST_F(VoteRoutingTest, RoutedMatchesFullAcrossModesAndThreads) {
  const Outcome full_serial = RunWith(RouteVotes::kOff, false, 1);
  // Full voting never skips and the off mode never audits.
  EXPECT_EQ(full_serial.report.votes_skipped, 0);
  EXPECT_GT(full_serial.report.votes_total, 0);

  for (const RouteVotes route : {RouteVotes::kOn, RouteVotes::kAudit}) {
    const Outcome routed = RunWith(route, false, 1);
    ExpectSameSteps(routed.report, full_serial.report);
    ExpectDatabasesIdentical(*routed.db, *full_serial.db);
    ExpectLogsIdentical(*routed.log, *full_serial.log);
    // Routing really pruned something, consulted something, and the
    // audit (debug: every pruned vote; release: sampled) found every
    // declaration honest.
    EXPECT_GT(routed.report.votes_skipped, 0);
    EXPECT_LT(routed.report.votes_skipped, routed.report.votes_total);
    EXPECT_EQ(routed.report.route_audit_violations, 0);
  }

  for (const int threads : {1, 2, 8}) {
    const Outcome full = RunWith(RouteVotes::kOff, true, threads);
    const Outcome routed = RunWith(RouteVotes::kOn, true, threads);
    EXPECT_GT(routed.report.parallel_groups, 0) << "threads " << threads;
    ExpectSameSteps(routed.report, full.report);
    ExpectDatabasesIdentical(*routed.db, *full.db);
    ExpectLogsIdentical(*routed.log, *full.log);
    // ... and both match the serial full-voting run bit for bit.
    ExpectDatabasesIdentical(*routed.db, *full_serial.db);
    ExpectLogsIdentical(*routed.log, *full_serial.log);
    // The serial tuple-count step prunes the off-table ColumnFreq
    // validators even when the ColumnFreq trio ran as a group.
    EXPECT_GT(routed.report.votes_skipped, 0) << "threads " << threads;
    EXPECT_EQ(routed.report.route_audit_violations, 0);
  }
}

// ---------------------------------------------------------------------
// Row-interval routing: two instances of one ColumnFreqTool split the
// SAME (table, column) into disjoint tuple-id halves. The second
// instance's proposals touch only its own half, so the first — a
// certified-range reader of the same cell atom — must be pruned by
// interval disjointness, and (audit mode, so every pruned vote is
// re-invoked) must genuinely return zero penalty outside its range.
// ---------------------------------------------------------------------
TEST_F(VoteRoutingTest, RowRangeDisjointValidatorIsPruned) {
  const Table* user = base_->FindTable("User");
  ASSERT_NE(user, nullptr);
  const int64_t mid = user->NumSlots() / 2;
  ASSERT_GT(mid, 0);
  const int64_t last = user->NumSlots() - 1;

  const auto run_with = [&](RouteVotes route) {
    Outcome out;
    out.db = base_->Clone();
    out.log = std::make_unique<ModificationLog>(out.db.get());
    Coordinator coordinator;
    auto lo =
        std::make_unique<ColumnFreqTool>(truth_->schema(), "User", "gender");
    lo->SetRowRange(0, mid - 1);
    auto hi =
        std::make_unique<ColumnFreqTool>(truth_->schema(), "User", "gender");
    hi->SetRowRange(mid, last);
    std::vector<int> order = {coordinator.AddTool(std::move(lo)),
                              coordinator.AddTool(std::move(hi))};
    coordinator.SetTargetsFromDataset(*truth_).Check();
    CoordinatorOptions opts;
    opts.seed = 5;
    opts.batch_size = 64;
    opts.route_votes = route;
    out.report = coordinator.Run(out.db.get(), order, opts).ValueOrAbort();
    return out;
  };

  const Outcome full = run_with(RouteVotes::kOff);
  for (const RouteVotes route : {RouteVotes::kOn, RouteVotes::kAudit}) {
    const Outcome routed = run_with(route);
    ExpectSameSteps(routed.report, full.report);
    ExpectDatabasesIdentical(*routed.db, *full.db);
    ExpectLogsIdentical(*routed.log, *full.log);
    // The hi step's only validator (lo) reads the same column but a
    // disjoint certified range: every one of its votes is pruned, and
    // none of the audited ones found a nonzero penalty (the InRange
    // guard makes the zero-outside-scope contract real).
    EXPECT_GT(routed.report.votes_skipped, 0);
    EXPECT_EQ(routed.report.route_audit_violations, 0);
  }
}

// =====================================================================
// Direct-drive VoteIndex tests: routing decisions, the aggregation
// skip, the unknown-table fallback, and incremental maintenance
// checked against from-scratch rebuilds.
// =====================================================================

Schema PairSchema() {
  Schema s;
  s.name = "pair";
  s.tables.push_back({"T",
                      {{"x", ColumnType::kInt64, ""},
                       {"y", ColumnType::kInt64, ""}}});
  s.tables.push_back({"U", {{"x", ColumnType::kInt64, ""}}});
  return s;
}

// OR-union of single-modification Route calls: the reference the
// batched (and aggregated) paths must reproduce.
ConsultMask RouteUnion(const VoteIndex& index,
                       std::span<const Modification> mods) {
  ConsultMask acc;
  acc.Reset(index.num_validators());
  ConsultMask one;
  for (size_t i = 0; i < mods.size(); ++i) {
    index.Route(mods.subspan(i, 1), &one);
    for (size_t v = 0; v < one.size(); ++v) {
      if (one.Test(v)) acc.SetBit(v);
    }
  }
  return acc;
}

TEST(VoteIndexTest, AggregateSkipsCollectingOnceRangedReadersConsulted) {
  const Schema schema = PairSchema();
  VoteIndex index;
  index.Reset(&schema);
  AccessScope scope;
  scope.known = true;
  scope.AddRead(0, 0);             // T.x, unranged
  scope.AddReadRange(0, 1, 0, 3);  // T.y, rows [0, 3]
  ASSERT_EQ(index.AddValidator(scope), 0);

  // Nine mods (the aggregate regime) each writing T.x and T.y: the
  // unranged T.x read consults the validator on the first mod, so the
  // T.y interval aggregation has nothing left to decide and must not
  // collect a single tuple id.
  std::vector<Modification> both;
  for (int64_t i = 0; i < 9; ++i) {
    both.push_back(Modification::ReplaceValues(
        "T", {i}, {0, 1}, {Value(int64_t{1}), Value(int64_t{2})}));
  }
  ConsultMask consult;
  RouteMetrics metrics;
  index.Route(both, &consult, &metrics);
  EXPECT_TRUE(consult.Test(0));
  EXPECT_EQ(metrics.interval_inserts, 0);
  EXPECT_EQ(metrics.fallbacks, 0);

  // Control: with only the ranged T.y read the aggregation must run —
  // one insert per modification — and the overlap with [0, 3] consults.
  VoteIndex ranged_only;
  ranged_only.Reset(&schema);
  AccessScope ranged;
  ranged.known = true;
  ranged.AddReadRange(0, 1, 0, 3);
  ranged_only.AddValidator(ranged);
  std::vector<Modification> y_only;
  for (int64_t i = 0; i < 9; ++i) {
    y_only.push_back(
        Modification::ReplaceValues("T", {i}, {1}, {Value(int64_t{2})}));
  }
  RouteMetrics control;
  ranged_only.Route(y_only, &consult, &control);
  EXPECT_TRUE(consult.Test(0));
  EXPECT_EQ(control.interval_inserts, 9);
}

TEST(VoteIndexTest, UnknownTableFallbackFillsMaskAndClearsScratch) {
  const Schema schema = PairSchema();
  VoteIndex index;
  index.Reset(&schema);
  AccessScope scope;
  scope.known = true;
  scope.AddReadRange(0, 1, 0, 3);  // T.y rows [0, 3]
  index.AddValidator(scope);

  // An aggregate batch that seeds the T.y scratch with in-range rows,
  // then names a table the schema does not know: the consult mask is
  // filled, the fallback counted, and the half-built scratch discarded.
  std::vector<Modification> poisoned;
  for (int64_t i = 0; i < 9; ++i) {
    poisoned.push_back(
        Modification::ReplaceValues("T", {i}, {1}, {Value(int64_t{7})}));
  }
  poisoned.push_back(
      Modification::ReplaceValues("Nope", {0}, {0}, {Value(int64_t{7})}));
  ConsultMask consult;
  RouteMetrics metrics;
  index.Route(poisoned, &consult, &metrics);
  EXPECT_EQ(metrics.fallbacks, 1);
  EXPECT_EQ(consult.CountSet(), 1u);

  // A fresh aggregate batch disjoint from [0, 3]: stale intervals left
  // over from the aborted call would wrongly consult the validator.
  std::vector<Modification> disjoint;
  for (int64_t i = 10; i < 19; ++i) {
    disjoint.push_back(
        Modification::ReplaceValues("T", {i}, {1}, {Value(int64_t{7})}));
  }
  RouteMetrics clean;
  index.Route(disjoint, &consult, &clean);
  EXPECT_FALSE(consult.Test(0));
  EXPECT_EQ(clean.fallbacks, 0);
}

TEST(VoteIndexTest, IncrementalMatchesRebuildThroughWidenAndDistrust) {
  const Schema schema = PairSchema();

  std::vector<AccessScope> scopes;
  AccessScope widened;  // hull-widened ranged reader of T.y
  widened.known = true;
  widened.AddRead(0, 0);
  widened.AddReadRange(0, 1, 0, 2);
  widened.AddReadRange(0, 1, 5, 7);  // duplicate atom: widens to [0, 7]
  scopes.push_back(widened);
  AccessScope whole;  // whole-table U reader plus a far T.y range
  whole.known = true;
  whole.AddRead(1);
  whole.AddReadRange(0, 1, 10, 12);
  scopes.push_back(whole);
  scopes.push_back(AccessScope());  // unknown: always-vote
  AccessScope observed;             // observed-only: reads incomplete
  observed.known = true;
  observed.reads_complete = false;
  observed.AddWrite(0, 0);
  scopes.push_back(observed);

  VoteIndex incremental;
  incremental.Reset(&schema);
  for (const AccessScope& s : scopes) incremental.AddValidator(s);
  VoteIndex rebuilt;
  rebuilt.Build(&schema, scopes);
  EXPECT_TRUE(incremental.DebugEquals(rebuilt));

  // A write inside the widened hull but outside both declared pieces:
  // hull routing must consult — the conservative meaning of widening.
  const Modification probe =
      Modification::ReplaceValues("T", {4}, {1}, {Value(int64_t{0})});
  ConsultMask consult;
  incremental.Route(std::span<const Modification>(&probe, 1), &consult);
  EXPECT_TRUE(consult.Test(0));   // hull [0, 7] contains row 4
  EXPECT_FALSE(consult.Test(1));  // [10, 12] does not
  EXPECT_TRUE(consult.Test(2));   // unknown scopes always vote
  EXPECT_TRUE(consult.Test(3));   // incomplete reads always vote

  // Distrust degrades in place; a fresh build over the degraded scope
  // list lands on the identical structure. Idempotent.
  incremental.Distrust(1);
  std::vector<AccessScope> degraded = scopes;
  degraded[1] = AccessScope();
  VoteIndex fresh;
  fresh.Build(&schema, degraded);
  EXPECT_TRUE(incremental.DebugEquals(fresh));
  incremental.Distrust(1);
  EXPECT_TRUE(incremental.DebugEquals(fresh));

  // Growth after a distrust keeps the identity.
  AccessScope late;
  late.known = true;
  late.AddReadRange(1, 0, 0, 4);
  EXPECT_EQ(incremental.AddValidator(late), 4);
  degraded.push_back(late);
  fresh.Build(&schema, degraded);
  EXPECT_TRUE(incremental.DebugEquals(fresh));
}

TEST(VoteIndexTest, RowStructureWritesDisturbRangedCellReaders) {
  const Schema schema = PairSchema();
  VoteIndex index;
  index.Reset(&schema);
  AccessScope scope;
  scope.known = true;
  scope.AddReadRange(0, 1, 5, 7);  // T.y rows [5, 7]
  index.AddValidator(scope);

  ConsultMask consult;
  const Modification cell =
      Modification::ReplaceValues("T", {0}, {1}, {Value(int64_t{0})});
  index.Route(std::span<const Modification>(&cell, 1), &consult);
  EXPECT_FALSE(consult.Test(0));  // row 0 outside [5, 7]

  // A tuple insert in the same batch is a row-structure write: no
  // interval exemption (its id is not assigned yet), so the ranged
  // reader is consulted even though the cell write alone is exempt.
  const std::vector<Modification> mixed = {
      Modification::InsertTuple("T", {Value(int64_t{1}), Value(int64_t{2})}),
      cell,
  };
  index.Route(mixed, &consult);
  EXPECT_TRUE(consult.Test(0));
}

TEST(VoteIndexTest, AggregateThresholdMatchesPerModUnion) {
  const Schema schema = PairSchema();
  VoteIndex index;
  index.Reset(&schema);
  AccessScope lo;
  lo.known = true;
  lo.AddReadRange(0, 1, 0, 3);
  AccessScope hi;
  hi.known = true;
  hi.AddReadRange(0, 1, 10, 12);
  AccessScope other_col;
  other_col.known = true;
  other_col.AddRead(0, 0);  // T.x — the batch writes only T.y
  AccessScope whole_u;
  whole_u.known = true;
  whole_u.AddRead(1);  // whole-table U
  index.AddValidator(lo);
  index.AddValidator(hi);
  index.AddValidator(other_col);
  index.AddValidator(whole_u);
  index.AddValidator(AccessScope());  // always-vote

  std::vector<Modification> mods;
  for (const int64_t row : {0, 1, 2, 11, 20, 21, 22, 23, 24}) {
    mods.push_back(
        Modification::ReplaceValues("T", {row}, {1}, {Value(int64_t{0})}));
  }

  // The 9-mod batch takes the aggregated-interval path; its first 8
  // mods take the per-tuple path. Both must equal the per-mod union.
  ConsultMask batch9;
  index.Route(mods, &batch9);
  EXPECT_EQ(batch9, RouteUnion(index, mods));
  ConsultMask batch8;
  index.Route(std::span<const Modification>(mods).first(8), &batch8);
  EXPECT_EQ(batch8,
            RouteUnion(index, std::span<const Modification>(mods).first(8)));

  EXPECT_TRUE(batch9.Test(0));   // rows 0..2 hit [0, 3]
  EXPECT_TRUE(batch9.Test(1));   // row 11 hits [10, 12]
  EXPECT_FALSE(batch9.Test(2));  // T.x never written
  EXPECT_FALSE(batch9.Test(3));  // table U never touched
  EXPECT_TRUE(batch9.Test(4));   // unknown scope
}

// ---------------------------------------------------------------------
// Incremental maintenance: routing through the run-wide index, grown by
// one slot per enforced validator, must be indistinguishable — database,
// log, per-step report — from full voting, on the workload whose
// tuple-count step takes the row-structure routing branch. In debug
// builds every routed step additionally asserts the incremental index is
// structurally identical to a from-scratch rebuild (VoteIndex::Build).
// ---------------------------------------------------------------------
TEST_F(VoteRoutingTest, IncrementalIndexMatchesFullVoting) {
  const Outcome incremental = RunWith(RouteVotes::kOn, false, 1);
  const Outcome full = RunWith(RouteVotes::kOff, false, 1);
  ExpectSameSteps(incremental.report, full.report);
  ExpectDatabasesIdentical(*incremental.db, *full.db);
  ExpectLogsIdentical(*incremental.log, *full.log);
  EXPECT_EQ(incremental.report.votes_total, full.report.votes_total);
  EXPECT_GT(incremental.report.votes_skipped, 0);
  EXPECT_EQ(full.report.votes_skipped, 0);
  EXPECT_GE(incremental.report.route_index_build_seconds, 0.0);
  // No unknown-table proposals in this workload.
  EXPECT_EQ(incremental.report.route_fallbacks, 0);
}

// ---------------------------------------------------------------------
// The aggregate threshold: a batch of 8 modifications routes with
// per-tuple interval tests, a batch of 9 aggregates touched ids into
// interval sets. Both regimes must stay bitwise identical to full
// voting.
// ---------------------------------------------------------------------
TEST_F(VoteRoutingTest, AggregateThresholdBatchSizesMatchFull) {
  for (const int batch_size : {8, 9}) {
    const Outcome full = RunWith(RouteVotes::kOff, false, 1, batch_size);
    const Outcome routed = RunWith(RouteVotes::kOn, false, 1, batch_size);
    ExpectSameSteps(routed.report, full.report);
    ExpectDatabasesIdentical(*routed.db, *full.db);
    ExpectLogsIdentical(*routed.log, *full.log);
    EXPECT_GT(routed.report.votes_skipped, 0) << "batch " << batch_size;
    EXPECT_EQ(routed.report.route_audit_violations, 0)
        << "batch " << batch_size;
  }
}

// ---------------------------------------------------------------------
// The pruning audit: a validator that certifies reading only A.x but
// actually votes on table B. Routing prunes it from B-writing
// proposals; the audit (the first pruned vote is always checked, in
// release builds too) sees the nonzero penalty, counts the vote as
// cast — same veto as full voting — and distrusts the declaration for
// the rest of the run.
// ---------------------------------------------------------------------
Schema TinySchema() {
  Schema s;
  s.name = "tiny";
  s.tables.push_back({"A", {{"x", ColumnType::kInt64, ""}}});
  s.tables.push_back({"B", {{"x", ColumnType::kInt64, ""}}});
  return s;
}

std::unique_ptr<Database> TinyDb() {
  auto db = Database::Create(TinySchema()).ValueOrAbort();
  for (const char* name : {"A", "B"}) {
    Table* t = db->FindTable(name);
    t->Append({Value(int64_t{1})}).status().Check();
    t->Append({Value(int64_t{2})}).status().Check();
  }
  return db;
}

// Certifies that its votes depend only on A.x — but vetoes every
// modification of table B.
class NarrowLiarTool : public PropertyTool {
 public:
  explicit NarrowLiarTool(const Schema& schema)
      : a_index_(schema.TableIndex("A")) {}
  std::string name() const override { return "narrow-liar"; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override { return 0; }
  double ValidationPenalty(const Modification& mod) const override {
    // The lie: a vote that depends on a table the scope never reads.
    return mod.table == "B" ? 1.0 : 0.0;
  }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddRead(a_index_, 0);  // A.x only — says nothing about B
    return scope;
  }
  Status Tweak(TweakContext*) override { return Status::OK(); }

 private:
  int a_index_;
  Database* db_ = nullptr;
};

// Proposes four rewrites of B.x[0]; vetoes are part of the plan.
class BWriterTool : public PropertyTool {
 public:
  explicit BWriterTool(const Schema& schema)
      : b_index_(schema.TableIndex("B")) {}
  std::string name() const override { return "b-writer"; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override { return 0; }
  double ValidationPenalty(const Modification&) const override { return 0; }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddWrite(b_index_, 0);  // B.x
    return scope;
  }
  Status Tweak(TweakContext* ctx) override {
    for (int64_t k = 0; k < 4; ++k) {
      const Status st = ctx->TryApply(
          Modification::ReplaceValues("B", {0}, {0}, {Value(int64_t{10 + k})}));
      if (!st.ok() && !st.IsValidationFailed()) return st;
    }
    return Status::OK();
  }

 private:
  int b_index_;
  Database* db_ = nullptr;
};

TEST(VoteRoutingAuditTest, OverNarrowValidatorIsCaughtAndDistrusted) {
  const Schema schema = TinySchema();
  const auto run_with = [&](RouteVotes route) {
    auto db = TinyDb();
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(std::make_unique<NarrowLiarTool>(schema)),
        coordinator.AddTool(std::make_unique<BWriterTool>(schema)),
    };
    CoordinatorOptions opts;
    opts.seed = 13;
    opts.iterations = 2;
    opts.route_votes = route;
    RunReport report = coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return std::make_pair(std::move(db), std::move(report));
  };

  const auto full = run_with(RouteVotes::kOff);
  // Full voting consults the liar on every proposal: all four rewrites
  // vetoed in both passes, B never changes.
  ASSERT_EQ(full.second.steps.size(), 4u);
  EXPECT_EQ(full.second.steps[1].vetoed, 4);
  EXPECT_EQ(full.second.steps[3].vetoed, 4);
  EXPECT_EQ(full.second.route_audit_violations, 0);

  for (const RouteVotes route : {RouteVotes::kOn, RouteVotes::kAudit}) {
    const auto routed = run_with(route);
    ASSERT_EQ(routed.second.steps.size(), 4u);
    const ToolReport& pass1 = routed.second.steps[1];
    const ToolReport& pass2 = routed.second.steps[3];

    // Pass 1: the liar is pruned from the first proposal; the audit
    // checks that very vote (pruned vote #0 is always audited, in
    // release sampling too), sees the 1.0 penalty, counts it — so the
    // proposal is vetoed exactly as under full voting — and latches
    // the violation. The remaining proposals consult the liar again.
    EXPECT_EQ(pass1.tool, "b-writer");
    EXPECT_EQ(pass1.votes_total, 4);
    EXPECT_EQ(pass1.votes_skipped, 1);
    EXPECT_EQ(pass1.vetoed, 4);
    EXPECT_EQ(pass1.route_audit_violations, 1);

    // Pass 2: the liar's declaration is distrusted for the rest of the
    // run — it votes on everything again.
    EXPECT_EQ(pass2.tool, "b-writer");
    EXPECT_EQ(pass2.votes_total, 4);
    EXPECT_EQ(pass2.votes_skipped, 0);
    EXPECT_EQ(pass2.vetoed, 4);
    EXPECT_EQ(pass2.route_audit_violations, 0);

    EXPECT_EQ(routed.second.route_audit_violations, 1);
    // The audited vote counted, so the outcome matches full voting.
    ExpectDatabasesIdentical(*routed.first, *full.first);
  }
}

// ---------------------------------------------------------------------
// Hull widening end-to-end: a validator that declares two disjoint row
// ranges of the same atom. The scope (and so the index) widens them to
// the hull, which must keep a write in the gap between the pieces on
// the voted path — and prune a write outside the hull.
// ---------------------------------------------------------------------
std::unique_ptr<Database> TinyDbWithRows(int64_t a_rows) {
  auto db = Database::Create(TinySchema()).ValueOrAbort();
  Table* a = db->FindTable("A");
  for (int64_t i = 0; i < a_rows; ++i) {
    a->Append({Value(int64_t{i})}).status().Check();
  }
  db->FindTable("B")->Append({Value(int64_t{1})}).status().Check();
  return db;
}

// Declares A.x rows [0, 2] and [6, 8] — widened to the hull [0, 8] —
// and vetoes exactly the writes of A.x row 4: a row inside the hull
// but outside both declared pieces, which the certified range still
// covers.
class HullValidatorTool : public PropertyTool {
 public:
  explicit HullValidatorTool(const Schema& schema)
      : a_index_(schema.TableIndex("A")) {}
  std::string name() const override { return "hull-validator"; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override { return 0; }
  double ValidationPenalty(const Modification& mod) const override {
    if (mod.table != "A" || mod.kind != OpKind::kReplaceValues) return 0.0;
    for (const TupleId tid : mod.tuples) {
      if (tid == 4) return 1.0;
    }
    return 0.0;
  }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddReadRange(a_index_, 0, 0, 2);
    scope.AddReadRange(a_index_, 0, 6, 8);  // widens to the hull [0, 8]
    return scope;
  }
  Status Tweak(TweakContext*) override { return Status::OK(); }

 private:
  int a_index_;
  Database* db_ = nullptr;
};

// Proposes a write in the hull gap (row 4, vetoed) and one past the
// hull (row 9, applied with the validator's vote pruned).
class GapWriterTool : public PropertyTool {
 public:
  explicit GapWriterTool(const Schema& schema)
      : a_index_(schema.TableIndex("A")) {}
  std::string name() const override { return "gap-writer"; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override { return 0; }
  double ValidationPenalty(const Modification&) const override { return 0; }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddWrite(a_index_, 0);  // A.x
    return scope;
  }
  Status Tweak(TweakContext* ctx) override {
    for (const int64_t row : {int64_t{4}, int64_t{9}}) {
      const Status st = ctx->TryApply(Modification::ReplaceValues(
          "A", {row}, {0}, {Value(int64_t{100 + row})}));
      if (!st.ok() && !st.IsValidationFailed()) return st;
    }
    return Status::OK();
  }

 private:
  int a_index_;
  Database* db_ = nullptr;
};

TEST(VoteRoutingHullTest, HullWidenedDuplicateAtomRoutesConservatively) {
  const Schema schema = TinySchema();
  const auto run_with = [&](RouteVotes route) {
    auto db = TinyDbWithRows(10);
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(std::make_unique<HullValidatorTool>(schema)),
        coordinator.AddTool(std::make_unique<GapWriterTool>(schema)),
    };
    CoordinatorOptions opts;
    opts.seed = 13;
    opts.iterations = 1;
    opts.route_votes = route;
    RunReport report = coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return std::make_pair(std::move(db), std::move(report));
  };
  const auto full = run_with(RouteVotes::kOff);
  EXPECT_EQ(full.second.votes_skipped, 0);
  for (const RouteVotes route : {RouteVotes::kOn, RouteVotes::kAudit}) {
    const auto routed = run_with(route);
    ExpectDatabasesIdentical(*routed.first, *full.first);
    // Row 4 (inside the hull) was voted on and vetoed; row 9 (outside)
    // was pruned, and the audited pruned vote returned zero.
    EXPECT_EQ(routed.second.votes_skipped, 1);
    EXPECT_EQ(routed.second.route_audit_violations, 0);
  }
}

// ---------------------------------------------------------------------
// The unknown-table fallback end-to-end: a proposal naming a table the
// schema does not know routes conservatively and is counted on the
// report, where it distinguishes such proposals from legitimately
// routed (fully consulted) ones.
// ---------------------------------------------------------------------

// A routable validator with an honest narrow scope; never vetoes.
class PassiveTool : public PropertyTool {
 public:
  explicit PassiveTool(const Schema& schema)
      : a_index_(schema.TableIndex("A")) {}
  std::string name() const override { return "passive"; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override { return 0; }
  double ValidationPenalty(const Modification&) const override { return 0; }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddRead(a_index_, 0);
    return scope;
  }
  Status Tweak(TweakContext*) override { return Status::OK(); }

 private:
  int a_index_;
  Database* db_ = nullptr;
};

// Proposes a write to a table the schema does not know (the router's
// conservative fallback) plus one legitimate write. The ghost write
// fails at apply time; the tool swallows the failure.
class GhostWriterTool : public PropertyTool {
 public:
  explicit GhostWriterTool(const Schema&) {}
  std::string name() const override { return "ghost-writer"; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override { return 0; }
  double ValidationPenalty(const Modification&) const override { return 0; }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override { return AccessScope(); }
  Status Tweak(TweakContext* ctx) override {
    const Status ghost = ctx->TryApply(Modification::ReplaceValues(
        "Ghost", {0}, {0}, {Value(int64_t{1})}));
    if (ghost.ok()) return Status::Invalid("ghost write applied");
    return ctx->TryApply(
        Modification::ReplaceValues("A", {0}, {0}, {Value(int64_t{42})}));
  }

 private:
  Database* db_ = nullptr;
};

TEST(VoteRoutingFallbackTest, UnknownTableProposalsAreCountedOnTheReport) {
  const Schema schema = TinySchema();
  const auto run_with = [&](RouteVotes route) {
    auto db = TinyDb();
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(std::make_unique<PassiveTool>(schema)),
        coordinator.AddTool(std::make_unique<GhostWriterTool>(schema)),
    };
    CoordinatorOptions opts;
    opts.seed = 13;
    opts.iterations = 1;
    opts.route_votes = route;
    RunReport report = coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return report;
  };
  EXPECT_EQ(run_with(RouteVotes::kOff).route_fallbacks, 0);
  for (const RouteVotes route : {RouteVotes::kOn, RouteVotes::kAudit}) {
    const RunReport report = run_with(route);
    EXPECT_EQ(report.route_fallbacks, 1);
    // The run summary names the fallback so a filled consult mask is
    // distinguishable from a legitimately routed proposal.
    EXPECT_NE(report.ToString().find("unknown-table fallback"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace aspect
