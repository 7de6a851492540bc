// Tests for scope-routed validator voting (--route-votes): routed
// voting must be bitwise identical to full voting in every execution
// mode and at every thread count while actually pruning votes, and
// the sampled pruning audit
// must catch a validator whose declared read scope under-reports what
// its votes depend on — then keep it off the routed path for the rest
// of the run.
#include <gtest/gtest.h>

#include <cmath>

#include "aspect/coordinator.h"
#include "aspect/tweak_context.h"
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
    // work: its inserts are row-structure writes, the routing branch
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

// =====================================================================
// ProposalDisturbsStats driven directly. Every case below is one row —
// (certified validator scope, proposal, expected decision) — checked by
// one shared harness; batches are also checked against the union of
// their single-modification decisions. The suite and its test names
// date from designs that are gone (an inverted vote index, row-ranged
// readers, hull widening); the names are kept, one test per routing
// concern, while the cases use (table, column) scopes only.
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

constexpr int kT = 0;
constexpr int kU = 1;

AccessScope KnownScope() {
  AccessScope s;
  s.known = true;
  return s;
}

Modification CellWrite(const char* table, std::vector<TupleId> rows,
                       int col) {
  return Modification::ReplaceValues(table, std::move(rows), {col},
                                     {Value(int64_t{0})});
}

Modification InsertT() {
  return Modification::InsertTuple("T",
                                   {Value(int64_t{1}), Value(int64_t{2})});
}

// Resolves the tables as the routed vote loop does, then tests.
bool Disturbs(std::span<const Modification> mods,
              const AccessScope& validator) {
  static const Schema schema = PairSchema();
  std::vector<int> tables;
  for (const Modification& mod : mods) {
    tables.push_back(schema.TableIndex(mod.table));
  }
  return ProposalDisturbsStats(mods, tables, validator);
}

struct DisturbCase {
  const char* name;
  const AccessScope& validator;
  std::vector<Modification> mods;
  bool disturbs;
};

void ExpectCases(const std::vector<DisturbCase>& cases) {
  for (const DisturbCase& c : cases) {
    EXPECT_EQ(Disturbs(c.mods, c.validator), c.disturbs) << c.name;
  }
}

// A batch decides exactly the union of its single-modification
// decisions.
void ExpectBatchMatchesUnion(std::span<const Modification> batch,
                             const AccessScope& validator, bool disturbs,
                             const char* name) {
  bool any = false;
  for (size_t i = 0; i < batch.size(); ++i) {
    any |= Disturbs(batch.subspan(i, 1), validator);
  }
  EXPECT_EQ(Disturbs(batch, validator), any) << name << " n=" << batch.size();
  EXPECT_EQ(any, disturbs) << name << " n=" << batch.size();
}

TEST(VoteIndexTest, AggregateSkipsCollectingOnceRangedReadersConsulted) {
  AccessScope y_only = KnownScope();  // T.y
  y_only.AddRead(kT, 1);
  AccessScope x_and_y = KnownScope();  // T.x and T.y
  x_and_y.AddRead(kT, 0);
  x_and_y.AddRead(kT, 1);
  AccessScope x_only = KnownScope();  // T.x
  x_only.AddRead(kT, 0);

  // Nine mods (more than the old aggregation threshold of eight).
  std::vector<Modification> both;  // T.x and T.y, rows 10..18
  std::vector<Modification> y_writes;  // T.y only, rows 0..8
  for (int64_t i = 0; i < 9; ++i) {
    both.push_back(Modification::ReplaceValues(
        "T", {10 + i}, {0, 1}, {Value(int64_t{1}), Value(int64_t{2})}));
    y_writes.push_back(CellWrite("T", {i}, 1));
  }

  // A cell reader is disturbed by any write of its (table, column)
  // atom, whatever rows it touches, and by no write of another column.
  ExpectCases({
      {"T.y row 0 vs T.y", y_only, {CellWrite("T", {0}, 1)}, true},
      {"T.y row 6 vs T.y", y_only, {CellWrite("T", {6}, 1)}, true},
      {"T.x row 6 vs T.y", y_only, {CellWrite("T", {6}, 0)}, false},
      {"T.x and T.y writes vs T.x, T.y", x_and_y, both, true},
      {"T.x and T.y writes vs T.x", x_only, both, true},
      {"T.y rows 0..8 vs T.y", y_only, y_writes, true},
      {"T.y rows 0..8 vs T.x", x_only, y_writes, false},
  });
}

TEST(VoteIndexTest, UnknownTableFallbackFillsMaskAndClearsScratch) {
  AccessScope x_only = KnownScope();  // T.x
  x_only.AddRead(kT, 0);
  AccessScope whole_u = KnownScope();
  whole_u.AddRead(kU);

  // Nine T.y writes the T.x reader ignores, then a table the schema
  // does not know: it disturbs every validator, wherever it sits in
  // the batch.
  std::vector<Modification> poisoned;
  std::vector<Modification> disjoint;
  for (int64_t i = 0; i < 9; ++i) {
    poisoned.push_back(CellWrite("T", {10 + i}, 1));
    disjoint.push_back(CellWrite("T", {10 + i}, 1));
  }
  poisoned.push_back(CellWrite("Nope", {0}, 0));
  std::vector<Modification> leading = disjoint;
  leading.insert(leading.begin(), CellWrite("Nope", {0}, 0));

  // The decision carries no state from one proposal to the next: the
  // disjoint batch after the poisoned one is exempt.
  ExpectCases({
      {"unknown table after exempt write", x_only,
       {CellWrite("T", {0}, 1), CellWrite("Nope", {0}, 0)}, true},
      {"unknown table last in 10 mods", x_only, poisoned, true},
      {"unknown table first in 10 mods", x_only, leading, true},
      {"unknown table vs whole-table U", whole_u, poisoned, true},
      {"disjoint batch afterwards", x_only, disjoint, false},
  });
}

TEST(VoteIndexTest, IncrementalMatchesRebuildThroughWidenAndDistrust) {
  AccessScope x_and_y = KnownScope();  // T.x plus T.y
  x_and_y.AddRead(kT, 0);
  x_and_y.AddRead(kT, 1);
  AccessScope u_and_x = KnownScope();  // whole-table U plus T.x
  u_and_x.AddRead(kU);
  u_and_x.AddRead(kT, 0);
  AccessScope observed = KnownScope();  // write-only: reads incomplete
  observed.reads_complete = false;
  observed.AddWrite(kT, 0);
  const AccessScope unknown;
  // The ledger hands a distrusted validator over as the unknown scope.
  const AccessScope distrusted;

  // A certified scope votes only on writes to the atoms it reads;
  // uncertified scopes always vote.
  const Modification probe = CellWrite("T", {4}, 1);
  ExpectCases({
      {"T.y write vs T.x, T.y", x_and_y, {probe}, true},
      {"T.y write vs U, T.x", u_and_x, {probe}, false},
      {"unknown scope", unknown, {probe}, true},
      {"observed scope", observed, {probe}, true},
      {"distrusted scope", distrusted, {probe}, true},
      {"unknown scope, U write", unknown, {CellWrite("U", {0}, 0)}, true},
      {"observed scope, U write", observed, {CellWrite("U", {0}, 0)},
       true},
      {"distrusted scope, U write", distrusted, {CellWrite("U", {0}, 0)},
       true},
  });
}

TEST(VoteIndexTest, RowStructureWritesDisturbRangedCellReaders) {
  AccessScope x_only = KnownScope();  // T.x
  x_only.AddRead(kT, 0);
  AccessScope whole_u = KnownScope();
  whole_u.AddRead(kU);
  AccessScope rows_t = KnownScope();  // T's row structure only
  rows_t.AddRead(kT, AccessScope::kRowStructure);
  const Modification insert_u =
      Modification::InsertTuple("U", {Value(int64_t{1})});

  ExpectCases({
      // Row-structure writes disturb every cell reader of the table —
      // also next to a cell write the reader ignores.
      {"T.y cell write alone", x_only, {CellWrite("T", {0}, 1)}, false},
      {"insert vs T.x", x_only, {InsertT()}, true},
      {"delete vs T.x", x_only, {Modification::DeleteTuple("T", 0)}, true},
      {"insert beside T.y cell write", x_only,
       {CellWrite("T", {0}, 1), InsertT()}, true},
      // A whole-table reader sees every write to its table, and only
      // those.
      {"cell write vs whole-table U", whole_u, {CellWrite("U", {3}, 0)},
       true},
      {"insert vs whole-table U", whole_u, {insert_u}, true},
      {"T writes vs whole-table U", whole_u,
       {CellWrite("T", {0}, 0), InsertT()}, false},
      // Cell writes leave a row-structure reader's view unchanged.
      {"cell writes vs T rows", rows_t,
       {CellWrite("T", {0}, 0), CellWrite("T", {6}, 1)}, false},
      {"insert vs T rows", rows_t, {InsertT()}, true},
      {"delete vs T rows", rows_t, {Modification::DeleteTuple("T", 3)},
       true},
  });
}

TEST(VoteIndexTest, AggregateThresholdMatchesPerModUnion) {
  AccessScope y_only = KnownScope();
  y_only.AddRead(kT, 1);
  AccessScope u_and_y = KnownScope();
  u_and_y.AddRead(kU);
  u_and_y.AddRead(kT, 1);
  AccessScope x_only = KnownScope();  // T.x — the batch writes only T.y
  x_only.AddRead(kT, 0);
  AccessScope whole_u = KnownScope();
  whole_u.AddRead(kU);
  const AccessScope unknown;

  std::vector<Modification> mods;
  for (const TupleId row : {0, 1, 2, 11, 20, 21, 22, 23, 24}) {
    mods.push_back(CellWrite("T", {row}, 1));
  }
  // Batches of eight and nine modifications, either side of the old
  // aggregation threshold.
  for (const size_t n : {size_t{8}, size_t{9}}) {
    const std::span<const Modification> batch =
        std::span<const Modification>(mods).first(n);
    ExpectBatchMatchesUnion(batch, y_only, true, "T.y written");
    ExpectBatchMatchesUnion(batch, u_and_y, true, "T.y written beside U");
    ExpectBatchMatchesUnion(batch, x_only, false, "T.x never written");
    ExpectBatchMatchesUnion(batch, whole_u, false, "U never touched");
    ExpectBatchMatchesUnion(batch, unknown, true, "unknown scope");
  }
}

// ---------------------------------------------------------------------
// Routing through the scopes the run certifies as each validator is
// first enforced must be indistinguishable — database, log, per-step
// report — from full voting, on the workload whose tuple-count step
// takes the row-structure routing branch.
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
  // No unknown-table proposals in this workload.
  EXPECT_EQ(incremental.report.route_fallbacks, 0);
}

// ---------------------------------------------------------------------
// Batches of 8 and 9 modifications, either side of the old aggregation
// threshold, must both stay bitwise identical to full voting.
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
