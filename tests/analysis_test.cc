// Tests for the scope-conformance analyzer (src/analysis): the
// directional disturbance predicates, the FootprintRecorder, the
// ScopeChecker's conformance rules — in particular that an observed
// (reads_complete == false) scope is never reported conformant — and
// the coordinator integration: a deliberately under-declaring tool
// must be caught by the checker, fail a strict run, and be kept off
// the parallel fast path for the rest of the run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/access_scope.h"
#include "analysis/probe.h"
#include "analysis/scope_checker.h"
#include "aspect/access_monitor.h"
#include "aspect/coordinator.h"
#include "aspect/lease.h"
#include "aspect/tweak_context.h"
#include "properties/simple.h"
#include "relational/database.h"
#include "relational/schema.h"

namespace aspect {
namespace {

using analysis::Conformance;
using analysis::FootprintRecorder;
using analysis::ScopeChecker;
using analysis::ScopeCheckMode;
using analysis::ScopeViolation;

// ---------------------------------------------------------------------
// Directional disturbance predicates
// ---------------------------------------------------------------------

TEST(AccessScopeTest, WriteAtomDisturbsReadIsDirectional) {
  const AccessScope::Atom cell_a{0, 0};
  const AccessScope::Atom cell_b{0, 1};
  const AccessScope::Atom whole{0, AccessScope::kWholeTable};
  const AccessScope::Atom rows{0, AccessScope::kRowStructure};
  const AccessScope::Atom other_table{1, 0};

  // Distinct cells never disturb each other.
  EXPECT_FALSE(WriteAtomDisturbsRead(cell_a, cell_b));
  EXPECT_TRUE(WriteAtomDisturbsRead(cell_a, cell_a));
  // A row-structure write (insert/delete) carries cells in every
  // column, so it disturbs every reader of the table...
  EXPECT_TRUE(WriteAtomDisturbsRead(rows, cell_a));
  EXPECT_TRUE(WriteAtomDisturbsRead(rows, whole));
  EXPECT_TRUE(WriteAtomDisturbsRead(rows, rows));
  // ...but a cell write cannot disturb a pure row-structure reader:
  // it moves no tuple in or out of the live set.
  EXPECT_FALSE(WriteAtomDisturbsRead(cell_a, rows));
  // Whole-table writes and reads are maximal on their side.
  EXPECT_TRUE(WriteAtomDisturbsRead(whole, cell_b));
  EXPECT_TRUE(WriteAtomDisturbsRead(cell_a, whole));
  // Different tables never interact.
  EXPECT_FALSE(WriteAtomDisturbsRead(rows, other_table));
  EXPECT_FALSE(WriteAtomDisturbsRead(whole, other_table));
}

TEST(AccessScopeTest, AtomCoveredBySentinels) {
  const std::set<AccessScope::Atom> whole = {{0, AccessScope::kWholeTable}};
  const std::set<AccessScope::Atom> rows = {{0, AccessScope::kRowStructure}};
  // Whole-table covers every atom of the table, including sentinels.
  EXPECT_TRUE(AtomCoveredBy({0, 2}, whole));
  EXPECT_TRUE(AtomCoveredBy({0, AccessScope::kRowStructure}, whole));
  EXPECT_FALSE(AtomCoveredBy({1, 2}, whole));
  // Row-structure covers only row-structure, never cells.
  EXPECT_TRUE(AtomCoveredBy({0, AccessScope::kRowStructure}, rows));
  EXPECT_FALSE(AtomCoveredBy({0, 0}, rows));
}

// ---------------------------------------------------------------------
// FootprintRecorder
// ---------------------------------------------------------------------

TEST(FootprintRecorderTest, RecordsReadsWritesAndSentinels) {
  FootprintRecorder rec({3, 2});
  EXPECT_TRUE(rec.Empty());
  rec.OnRead(0, 1);
  rec.OnRead(0, analysis::kProbeRowStructure);
  rec.OnWrite(1, 0);
  rec.OnWrite(0, analysis::kProbeRowStructure);
  EXPECT_FALSE(rec.Empty());
  const std::set<AccessScope::Atom> reads = rec.ReadAtoms();
  EXPECT_EQ(reads.size(), 2u);
  EXPECT_TRUE(reads.count({0, 1}));
  EXPECT_TRUE(reads.count({0, AccessScope::kRowStructure}));
  const std::set<AccessScope::Atom> writes = rec.WriteAtoms();
  EXPECT_EQ(writes.size(), 2u);
  EXPECT_TRUE(writes.count({1, 0}));
  EXPECT_TRUE(writes.count({0, AccessScope::kRowStructure}));
  rec.Clear();
  EXPECT_TRUE(rec.Empty());
}

TEST(FootprintRecorderTest, ScopedProbeInstallsAndSuppresses) {
  FootprintRecorder rec({2});
  {
    analysis::ScopedAccessProbe probe(&rec);
    analysis::ProbeRead(0, 1);
    {
      // Framework internals (validator votes, undo, listener
      // notification) run under suppression and must stay invisible.
      analysis::ScopedProbeSuppress suppress;
      analysis::ProbeRead(0, 0);
      analysis::ProbeWrite(0, 0);
    }
    analysis::ProbeWrite(0, 1);
  }
  // Outside the scope, probes are no-ops again.
  analysis::ProbeRead(0, 0);
  EXPECT_EQ(rec.ReadAtoms(), (std::set<AccessScope::Atom>{{0, 1}}));
  EXPECT_EQ(rec.WriteAtoms(), (std::set<AccessScope::Atom>{{0, 1}}));
}

// ---------------------------------------------------------------------
// ScopeChecker conformance rules
// ---------------------------------------------------------------------

TEST(ScopeCheckerTest, ObservedScopesAreNeverConformant) {
  // Regression guarantee: a scope whose read set is a lower bound
  // (reads_complete == false, as AccessMonitor::ObservedScope
  // produces) must never be certified conformant, even when the
  // observed footprint matches it exactly.
  AccessScope observed;
  observed.known = true;
  observed.reads_complete = false;
  observed.AddWrite(0, 0);
  EXPECT_FALSE(ScopeChecker::CanCertify(observed));

  ScopeChecker checker(ScopeCheckMode::kStrict, 1);
  FootprintRecorder rec({1});
  rec.OnWrite(0, 0);
  rec.OnRead(0, 0);
  checker.CheckStep(0, "observed-tool", observed, rec, 0);
  EXPECT_EQ(checker.ToolConformance(0), Conformance::kNotCertifiable);
  EXPECT_TRUE(checker.ok());  // no violation either: nothing checkable

  // The real AccessMonitor output goes through the same gate.
  Schema schema;
  schema.tables.push_back({"T", {{"a", ColumnType::kInt64, ""}}});
  AccessMonitor monitor(1, schema);
  monitor.Record(0, Modification::DeleteTuple("T", 0));
  EXPECT_FALSE(ScopeChecker::CanCertify(monitor.ObservedScope(0)));
}

TEST(ScopeCheckerTest, UndeclaredReadAndWriteAreFlagged) {
  AccessScope declared;
  declared.known = true;
  declared.AddWrite(0, 0);
  declared.AddRead(0, AccessScope::kRowStructure);

  ScopeChecker checker(ScopeCheckMode::kWarn, 2);
  FootprintRecorder rec({3});
  rec.OnRead(0, AccessScope::kRowStructure);
  rec.OnRead(0, 0);
  rec.OnWrite(0, 0);
  checker.CheckStep(0, "honest", declared, rec, 0);
  EXPECT_EQ(checker.ToolConformance(0), Conformance::kConformant);
  EXPECT_FALSE(checker.IsDistrusted(0));

  rec.Clear();
  rec.OnRead(0, 2);   // undeclared read
  rec.OnWrite(0, 1);  // undeclared write
  checker.CheckStep(1, "liar", declared, rec, 3);
  EXPECT_EQ(checker.ToolConformance(1), Conformance::kViolating);
  EXPECT_TRUE(checker.IsDistrusted(1));
  const std::vector<ScopeViolation> violations = checker.violations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].kind, ScopeViolation::Kind::kUndeclaredRead);
  EXPECT_EQ(violations[0].table, 0);
  EXPECT_EQ(violations[0].column, 2);
  EXPECT_EQ(violations[0].first_pass, 3);
  EXPECT_EQ(violations[1].kind, ScopeViolation::Kind::kUndeclaredWrite);
  EXPECT_EQ(violations[1].column, 1);

  // Repeats in later passes deduplicate onto the first sighting.
  checker.CheckStep(1, "liar", declared, rec, 7);
  EXPECT_EQ(checker.violations().size(), 2u);
  EXPECT_EQ(checker.violations()[0].first_pass, 3);
}

TEST(ScopeCheckerTest, GroupDisjointCrossCheckIsDirectional) {
  ScopeChecker checker(ScopeCheckMode::kWarn, 2);
  FootprintRecorder a({2}), b({2});
  a.OnWrite(0, 0);  // writes the cell b reads
  b.OnRead(0, 0);
  b.OnWrite(0, 1);  // b's write does not disturb a (a reads nothing)
  checker.CheckGroupDisjoint({0, 1}, {"a", "b"}, {&a, &b}, 0);
  const std::vector<ScopeViolation> violations = checker.violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, ScopeViolation::Kind::kGroupOverlap);
  EXPECT_EQ(violations[0].tool, 0);
  EXPECT_EQ(violations[0].other_tool, 1);
}

TEST(ScopeCheckModeTest, ParsesSampled) {
  ScopeCheckMode mode = ScopeCheckMode::kOff;
  EXPECT_TRUE(analysis::ParseScopeCheckMode("sampled", &mode));
  EXPECT_EQ(mode, ScopeCheckMode::kSampled);
  EXPECT_STREQ(analysis::ScopeCheckModeToString(ScopeCheckMode::kSampled),
               "sampled");
  EXPECT_FALSE(analysis::ParseScopeCheckMode("nonsense", &mode));
}

// ---------------------------------------------------------------------
// Write leases
// ---------------------------------------------------------------------

TEST(WriteLeaseTest, CoversAndPartitionsWholeAtoms) {
  AccessScope cell, table, rows;
  cell.known = table.known = rows.known = true;
  cell.AddWrite(0, 0);
  table.AddWrite(1);
  rows.AddWrite(2, AccessScope::kRowStructure);
  std::vector<WriteLease> leases;
  ASSERT_TRUE(PartitionWriteLeases({7, 8, 9}, {cell, table, rows}, &leases));
  ASSERT_EQ(leases.size(), 3u);
  EXPECT_EQ(leases[0].tool_id, 7);
  EXPECT_TRUE(leases[0].Covers(0, 0));
  EXPECT_FALSE(leases[0].Covers(0, 1));
  EXPECT_FALSE(leases[0].Covers(0, AccessScope::kRowStructure));
  // A whole-table lease covers every atom of its table.
  EXPECT_TRUE(leases[1].Covers(1, 3));
  EXPECT_TRUE(leases[1].Covers(1, AccessScope::kRowStructure));
  // A row-structure lease covers no cell.
  EXPECT_TRUE(leases[2].Covers(2, AccessScope::kRowStructure));
  EXPECT_FALSE(leases[2].Covers(2, 0));

  // Two writers of one column, or a column and its table's row
  // structure, fail the disjointness certificate.
  AccessScope same_cell, cell_rows;
  same_cell.known = cell_rows.known = true;
  same_cell.AddWrite(0, 0);
  cell_rows.AddWrite(0, AccessScope::kRowStructure);
  EXPECT_FALSE(PartitionWriteLeases({0, 1}, {cell, same_cell}, &leases));
  EXPECT_FALSE(PartitionWriteLeases({0, 1}, {cell, cell_rows}, &leases));
}

TEST(WriteLeaseTest, SampledSinkAlwaysChecksTheFirstWrite) {
  AccessScope scope;
  scope.known = true;
  scope.AddWrite(0, 0);
  std::vector<WriteLease> leases;
  ASSERT_TRUE(PartitionWriteLeases({0}, {scope}, &leases));

  // Full mode latches any out-of-lease write with its atom.
  LeaseProbeSink full(&leases[0], nullptr);
  full.OnWrite(0, 0);
  EXPECT_FALSE(full.violated());
  full.OnWrite(0, 1);
  EXPECT_TRUE(full.violated());
  EXPECT_EQ(full.violation(), (AccessScope::Atom{0, 1}));

  // Sampled mode checks write 0 unconditionally: a first-write lie is
  // caught even at 1/64 sampling.
  LeaseProbeSink sampled(&leases[0], nullptr, /*sampled=*/true);
  sampled.OnWrite(0, 1);
  EXPECT_TRUE(sampled.violated());

  // And the strided writes are really skipped: 63 bad writes after a
  // good first one go unchecked until the stride comes around.
  LeaseProbeSink strided(&leases[0], nullptr, /*sampled=*/true);
  strided.OnWrite(0, 0);
  for (int i = 0; i < LeaseProbeSink::kSampleStride - 1; ++i) {
    strided.OnWrite(0, 1);
  }
  EXPECT_FALSE(strided.violated());
  strided.OnWrite(0, 1);  // write #64: sampled again
  EXPECT_TRUE(strided.violated());
}

// ---------------------------------------------------------------------
// TupleCountTool's narrowed declaration (satellite)
// ---------------------------------------------------------------------

Schema TwoTableSchema() {
  Schema s;
  s.name = "narrow";
  s.tables.push_back({"P", {{"x", ColumnType::kInt64, ""}}});
  s.tables.push_back({"C",
                      {{"p", ColumnType::kForeignKey, "P"},
                       {"y", ColumnType::kInt64, ""}}});
  return s;
}

TEST(TupleCountScopeTest, DeclaresRowStructureWritesOnly) {
  TupleCountTool tool(TwoTableSchema());
  const AccessScope scope = tool.DeclaredScope();
  ASSERT_TRUE(scope.known);
  EXPECT_TRUE(scope.reads_complete);
  for (const AccessScope::Atom& w : scope.writes) {
    EXPECT_EQ(w.second, AccessScope::kRowStructure)
        << "table " << w.first << " declares a non-row-structure write";
  }
  // The template-row reads and FK reads are declared (the checker
  // needs them covered) ...
  EXPECT_TRUE(AtomCoveredBy({0, 0}, scope.reads));
  EXPECT_TRUE(AtomCoveredBy({1, 0}, scope.reads));
  // ... but they are Tweak-only: the statistics read set stays pure
  // row structure, so cell writes cannot change the tool's votes.
  for (const AccessScope::Atom& r : scope.stats_reads) {
    EXPECT_EQ(r.second, AccessScope::kRowStructure);
  }
}

TEST(TupleCountScopeTest, CellToolsStayEligibleUnderTupleCountValidator) {
  TupleCountTool tool(TwoTableSchema());
  const AccessScope count_scope = tool.DeclaredScope();
  AccessScope cell;  // a ColumnFreq-like tool on C.y
  cell.known = true;
  cell.AddWrite(1, 1);
  cell.AddRead(1, AccessScope::kRowStructure);
  // Cell writes cannot disturb tuple-count's statistics (the old
  // whole-table declaration serialized every pass after tuple-count
  // was enforced)...
  EXPECT_FALSE(ValidationDisturb(cell, count_scope));
  // ...while tuple-count's row inserts/deletes still rightly disturb
  // the cell tool's statistics, and the two genuinely conflict for
  // grouping purposes.
  EXPECT_TRUE(ValidationDisturb(count_scope, cell));
  EXPECT_TRUE(ScopesConflict(count_scope, cell));
}

// ---------------------------------------------------------------------
// Coordinator integration: the under-declaring tool
// ---------------------------------------------------------------------

Schema WideSchema() {
  Schema s;
  s.name = "wide";
  s.tables.push_back({"T",
                      {{"a", ColumnType::kInt64, ""},
                       {"b", ColumnType::kInt64, ""},
                       {"c", ColumnType::kInt64, ""},
                       {"d", ColumnType::kInt64, ""}}});
  return s;
}

std::unique_ptr<Database> WideDatabase() {
  auto db = Database::Create(WideSchema()).ValueOrAbort();
  Table* t = db->FindTable("T");
  for (int64_t i = 0; i < 8; ++i) {
    t->Append({Value(i), Value(i * 2), Value(i * 3), Value(i * 5)})
        .status()
        .Check();
  }
  return db;
}

/// A minimal tool that rewrites one column. When `sneaky_col` >= 0 its
/// Tweak also reads that column WITHOUT declaring it - the
/// under-declaration the checker exists to catch.
class ProbeTool : public PropertyTool {
 public:
  ProbeTool(std::string name, int write_col, int sneaky_col = -1)
      : name_(std::move(name)),
        write_col_(write_col),
        sneaky_col_(sneaky_col) {}

  std::string name() const override { return name_; }
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
  double Error() const override { return 0.0; }
  double ValidationPenalty(const Modification&) const override { return 0.0; }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}

  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddWrite(0, write_col_);
    scope.AddRead(0, AccessScope::kRowStructure);
    // sneaky_col_ is deliberately NOT declared.
    return scope;
  }

  Status Tweak(TweakContext* ctx) override {
    Table& t = db_->table(0);
    TupleId first = kInvalidTuple;
    int64_t seen = 0;
    t.ForEachLive([&](TupleId tid) {
      if (first == kInvalidTuple) first = tid;
      if (sneaky_col_ >= 0 && t.column(sneaky_col_).IsValue(tid)) {
        seen += t.column(sneaky_col_).GetInt(tid);  // the undeclared read
      }
    });
    if (first == kInvalidTuple) return Status::OK();
    Modification mod = Modification::ReplaceValues(
        t.name(), {first}, {write_col_}, {Value(int64_t{100} + seen % 7)});
    return ctx->TryApply(mod);
  }

 private:
  std::string name_;
  int write_col_;
  int sneaky_col_;
  Database* db_ = nullptr;
};

TEST(ScopeCheckIntegrationTest, StrictRunFailsOnUnderDeclaredRead) {
  auto db = WideDatabase();
  Coordinator coordinator;
  const int liar =
      coordinator.AddTool(std::make_unique<ProbeTool>("liar", 2, 3));
  CoordinatorOptions options;
  options.check_scopes = ScopeCheckMode::kStrict;
  const auto result = coordinator.Run(db.get(), {liar}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("scope check"), std::string::npos)
      << result.status().ToString();
  ASSERT_NE(coordinator.last_checker(), nullptr);
  EXPECT_TRUE(coordinator.last_checker()->IsDistrusted(liar));
}

TEST(ScopeCheckIntegrationTest, HonestToolsPassStrict) {
  auto db = WideDatabase();
  Coordinator coordinator;
  const int a = coordinator.AddTool(std::make_unique<ProbeTool>("a", 0));
  const int b = coordinator.AddTool(std::make_unique<ProbeTool>("b", 1));
  CoordinatorOptions options;
  options.check_scopes = ScopeCheckMode::kStrict;
  options.iterations = 2;
  const auto result = coordinator.Run(db.get(), {a, b}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().scope_violations.empty());
  EXPECT_EQ(coordinator.last_checker()->ToolConformance(a),
            Conformance::kConformant);
  EXPECT_EQ(coordinator.last_checker()->ToolConformance(b),
            Conformance::kConformant);
}

TEST(ScopeCheckIntegrationTest, CaughtToolIsKeptOffTheParallelFastPath) {
  auto db = WideDatabase();
  Coordinator coordinator;
  const int a = coordinator.AddTool(std::make_unique<ProbeTool>("a", 0));
  const int b = coordinator.AddTool(std::make_unique<ProbeTool>("b", 1));
  const int liar =
      coordinator.AddTool(std::make_unique<ProbeTool>("liar", 2, 3));
  CoordinatorOptions options;
  options.check_scopes = ScopeCheckMode::kWarn;
  options.parallel_pass = true;
  options.pass_threads = 2;
  options.iterations = 2;
  // Focus on the scheduling effect of distrust, not validator votes.
  options.validate = false;
  const auto result = coordinator.Run(db.get(), {a, b, liar}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunReport report = result.ValueOrDie();

  // The lie was recorded (an undeclared read of T.d in pass 1)...
  ASSERT_FALSE(report.scope_violations.empty());
  EXPECT_EQ(report.scope_violations[0].kind,
            ScopeViolation::Kind::kUndeclaredRead);
  EXPECT_EQ(report.scope_violations[0].tool, liar);
  EXPECT_EQ(report.scope_violations[0].table, 0);
  EXPECT_EQ(report.scope_violations[0].column, 3);
  EXPECT_EQ(report.scope_violations[0].first_pass, 0);
  EXPECT_TRUE(coordinator.last_checker()->IsDistrusted(liar));

  // ...and from then on the liar's declaration is distrusted: its
  // observed scope (reads_complete == false) cannot join a group, so
  // its pass-2 step ran serially while the honest pair stayed grouped.
  ASSERT_EQ(report.steps.size(), 6u);
  EXPECT_TRUE(report.steps[3].parallel) << "honest tool a, pass 2";
  EXPECT_TRUE(report.steps[4].parallel) << "honest tool b, pass 2";
  EXPECT_FALSE(report.steps[5].parallel) << "distrusted liar, pass 2";
}

}  // namespace
}  // namespace aspect
