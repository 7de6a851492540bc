// Tests for the batched modification pipeline and the O1-parallel
// pass: applying a batch through TweakContext::TryApplyBatch must
// leave the database, the modification log, and every listening tool's
// statistics byte-identical to applying the same modifications one at
// a time, and a parallel pass must match the serial pass error for
// error at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "aspect/coordinator.h"
#include "aspect/tweak_context.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "properties/simple.h"
#include "referrer_index_check.h"
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

// Builds one randomized batch of modifications of the given kind
// against the current state of `db`, touching pairwise-disjoint tuples
// (the ApplyBatch contract). Replacement values are sampled from donor
// tuples of the same column, so they are type-correct and stay in the
// column's observed domain.
std::vector<Modification> RandomBatch(const Database& db, int table_index,
                                      OpKind kind, Rng* rng) {
  const Table& t = db.table(table_index);
  std::vector<TupleId> live = LiveTuples(t);
  std::vector<Modification> batch;
  if (live.size() < 4) return batch;
  rng->Shuffle(&live);
  const size_t n =
      static_cast<size_t>(rng->UniformInt(2, 9)) % (live.size() / 2) + 2;
  for (size_t i = 0; i < n; ++i) {
    const TupleId victim = live[i];
    switch (kind) {
      case OpKind::kReplaceValues: {
        if (t.num_columns() == 0) break;  // attribute-less root table
        const int c =
            static_cast<int>(rng->UniformInt(0, t.num_columns() - 1));
        const TupleId donor = live[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(live.size()) - 1))];
        if (!t.column(c).IsValue(victim) || !t.column(c).IsValue(donor)) {
          continue;
        }
        batch.push_back(Modification::ReplaceValues(
            t.name(), {victim}, {c}, {t.column(c).Get(donor)}));
        break;
      }
      case OpKind::kInsertTuple: {
        std::vector<Value> row;
        bool full = true;
        for (int c = 0; c < t.num_columns(); ++c) {
          if (!t.column(c).IsValue(victim)) {
            full = false;
            break;
          }
          row.push_back(t.column(c).Get(victim));
        }
        if (full) {
          batch.push_back(Modification::InsertTuple(t.name(), std::move(row)));
        }
        break;
      }
      case OpKind::kDeleteTuple:
        batch.push_back(Modification::DeleteTuple(t.name(), victim));
        break;
      default:
        break;
    }
  }
  return batch;
}

// The per-converted-tool equivalence check: bind one instance of the
// tool to each of two identical databases, push randomized batches of
// every modification kind through TryApplyBatch on one side and
// one-at-a-time TryApply on the other, and require the databases, the
// modification logs, the context counters, and the tools' statistics
// (error and validation votes) to come out identical. This exercises
// the tool's OnAppliedBatch fast path against its OnApplied loop.
void CheckBatchMatchesSingles(PropertyTool* tool_a, PropertyTool* tool_b,
                              const Database& truth, uint64_t seed) {
  ASSERT_TRUE(tool_a->SetTargetFromDataset(truth).ok());
  ASSERT_TRUE(tool_b->SetTargetFromDataset(truth).ok());
  std::unique_ptr<Database> a = truth.Clone();
  std::unique_ptr<Database> b = truth.Clone();
  ModificationLog log_a(a.get());
  ModificationLog log_b(b.get());
  ASSERT_TRUE(tool_a->Bind(a.get()).ok());
  ASSERT_TRUE(tool_b->Bind(b.get()).ok());

  Rng rng_mods(seed);  // drives batch construction, shared by design
  Rng rng_a(seed + 1), rng_b(seed + 1);
  TweakContext ctx_a(a.get(), {}, &rng_a);
  TweakContext ctx_b(b.get(), {}, &rng_b);

  const OpKind kKinds[] = {OpKind::kReplaceValues, OpKind::kInsertTuple,
                           OpKind::kDeleteTuple};
  int64_t batches_applied = 0;
  for (int round = 0; round < 6; ++round) {
    for (int ti = 0; ti < a->num_tables(); ++ti) {
      for (const OpKind kind : kKinds) {
        // Both sides receive the same batch; construct it from side A
        // (the sides are identical by induction).
        const std::vector<Modification> batch =
            RandomBatch(*a, ti, kind, &rng_mods);
        if (batch.empty()) continue;
        for (const Modification& m : batch) {
          // TweakContext prices a batch of one with ValidationPenalty:
          // both prices of one modification must agree on the veto.
          EXPECT_EQ(tool_a->ValidationPenaltyBatch({&m, 1}, 0.0) > 0.0,
                    tool_a->ValidationPenalty(m) > 0.0);
        }
        ASSERT_TRUE(ctx_a.TryApplyBatch(batch).ok());
        for (const Modification& m : batch) {
          ASSERT_TRUE(ctx_b.TryApply(m).ok());
        }
        ++batches_applied;
      }
    }
  }
  ASSERT_GT(batches_applied, 0);
  EXPECT_EQ(ctx_a.applied(), ctx_b.applied());
  EXPECT_EQ(ctx_a.vetoed(), ctx_b.vetoed());
  ExpectDatabasesIdentical(*a, *b);
  ExpectLogsIdentical(log_a, log_b);
  // The batch side must have delivered one segment per batch; the
  // single side, none.
  EXPECT_EQ(log_a.num_batches(), batches_applied);
  EXPECT_EQ(log_b.num_batches(), 0);
  // Tool statistics: identical error and identical votes on a probe.
  EXPECT_EQ(tool_a->Error(), tool_b->Error());
  for (int ti = 0; ti < a->num_tables(); ++ti) {
    const std::vector<Modification> probe =
        RandomBatch(*a, ti, OpKind::kDeleteTuple, &rng_mods);
    if (probe.empty()) continue;
    EXPECT_EQ(tool_a->ValidationPenalty(probe[0]),
              tool_b->ValidationPenalty(probe[0]));
    const double exact = tool_a->ValidationPenaltyBatch(probe);
    EXPECT_EQ(exact, tool_b->ValidationPenaltyBatch(probe));
    // The capped batch vote (cap 0 is what the vote loops pass) must
    // reach the same veto decision as the exact sum — the early-veto
    // contract every overrider is held to.
    EXPECT_EQ(tool_a->ValidationPenaltyBatch(probe, 0.0) > 0.0, exact > 0.0);
  }
  tool_a->Unbind();
  tool_b->Unbind();
}

std::unique_ptr<Database> MusicDataset(uint64_t seed) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), seed).ValueOrAbort();
  return gen.Materialize(2).ValueOrAbort();
}

TEST(BatchPipelineTest, LinearBatchMatchesSingles) {
  auto truth = MusicDataset(17);
  LinearPropertyTool a(truth->schema()), b(truth->schema());
  CheckBatchMatchesSingles(&a, &b, *truth, 91);
}

TEST(BatchPipelineTest, CoappearBatchMatchesSingles) {
  auto truth = MusicDataset(18);
  CoappearPropertyTool a(truth->schema()), b(truth->schema());
  CheckBatchMatchesSingles(&a, &b, *truth, 92);
}

TEST(BatchPipelineTest, PairwiseBatchMatchesSingles) {
  auto truth = MusicDataset(19);
  PairwisePropertyTool a(truth->schema()), b(truth->schema());
  CheckBatchMatchesSingles(&a, &b, *truth, 93);
}

TEST(BatchPipelineTest, ColumnFreqBatchMatchesSingles) {
  auto gen = GenerateDataset(XiamiLike(1.0), 20).ValueOrAbort();
  auto truth = gen.Materialize(2).ValueOrAbort();
  ColumnFreqTool a(truth->schema(), "User", "gender");
  ColumnFreqTool b(truth->schema(), "User", "gender");
  CheckBatchMatchesSingles(&a, &b, *truth, 94);
}

// Large composite batches against caps on both sides of the exact
// penalty: when the exact penalty does not exceed the cap no sound
// early exit exists, so a capped call must return the exact value bit
// for bit; when it does, the capped call may stop early but must still
// land above the cap (the same veto decision either way) and leave the
// tool's statistics untouched for the next vote.
void CheckCappedMatchesExact(PropertyTool* tool, const Database& truth,
                             uint64_t seed) {
  ASSERT_TRUE(tool->SetTargetFromDataset(truth).ok());
  std::unique_ptr<Database> db = truth.Clone();
  ASSERT_TRUE(tool->Bind(db.get()).ok());
  Rng rng(seed);
  int64_t batches = 0;
  for (int ti = 0; ti < db->num_tables(); ++ti) {
    const Table& t = db->table(ti);
    std::vector<TupleId> live = LiveTuples(t);
    if (live.size() < 8) continue;
    rng.Shuffle(&live);
    // A big disjoint delete batch: enough modifications to clear the
    // chunked-apply threshold of the linear tool and to move the
    // coappear / pairwise numerators far past small caps.
    std::vector<Modification> batch;
    const size_t n = std::min<size_t>(40, live.size() / 2);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(Modification::DeleteTuple(t.name(), live[i]));
    }
    const double exact = tool->ValidationPenaltyBatch(batch);
    const double caps[] = {-1.0,      0.0,         exact / 2,
                           exact,     exact + 1.0, std::fabs(exact) * 2 + 1.0};
    for (const double cap : caps) {
      const double capped = tool->ValidationPenaltyBatch(batch, cap);
      if (exact <= cap) {
        EXPECT_EQ(capped, exact) << t.name() << " cap " << cap;
      } else {
        EXPECT_GT(capped, cap) << t.name() << " cap " << cap;
      }
      EXPECT_EQ(capped > cap, exact > cap) << t.name() << " cap " << cap;
    }
    // Whatever path each capped call took, the statistics must be
    // restored: exact pricing still lands on the same value bitwise.
    EXPECT_EQ(tool->ValidationPenaltyBatch(batch), exact) << t.name();
    ++batches;
  }
  EXPECT_GT(batches, 0);
  tool->Unbind();
}

TEST(BatchPipelineTest, CappedCompositeVoteMatchesExactDecision) {
  auto truth = MusicDataset(21);
  LinearPropertyTool linear(truth->schema());
  CheckCappedMatchesExact(&linear, *truth, 95);
  CoappearPropertyTool coappear(truth->schema());
  CheckCappedMatchesExact(&coappear, *truth, 96);
  PairwisePropertyTool pairwise(truth->schema());
  CheckCappedMatchesExact(&pairwise, *truth, 97);
}

// A batch the validators object to must be rejected as one composite
// proposal: nothing applies, nothing is logged, and the veto counts
// once. ForceApplyBatch then applies the same batch wholesale.
TEST(BatchPipelineTest, VetoedBatchLeavesDatabaseUntouched) {
  auto gen = GenerateDataset(XiamiLike(1.0), 21).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  auto pristine = db->Clone();

  // Target equals the current distribution, so any gender change has a
  // strictly positive penalty.
  ColumnFreqTool validator(db->schema(), "User", "gender");
  ASSERT_TRUE(validator.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(validator.Bind(db.get()).ok());
  ASSERT_EQ(validator.Error(), 0.0);

  ModificationLog log(db.get());
  Rng rng(7);
  TweakContext ctx(db.get(), {&validator}, &rng);

  const Table* user = db->FindTable("User");
  ASSERT_NE(user, nullptr);
  const int gender = user->ColumnIndex("gender");
  std::vector<TupleId> live = LiveTuples(*user);
  ASSERT_GE(live.size(), 3u);
  std::vector<Modification> batch;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(user->column(gender).IsValue(live[static_cast<size_t>(i)]));
    batch.push_back(Modification::ReplaceValues(
        "User", {live[static_cast<size_t>(i)]}, {gender},
        {Value(int64_t{777})}));
  }

  EXPECT_FALSE(ctx.TryApplyBatch(batch).ok());
  EXPECT_EQ(ctx.vetoed(), 1);
  EXPECT_EQ(ctx.applied(), 0);
  EXPECT_EQ(log.size(), 0);
  EXPECT_EQ(validator.Error(), 0.0);
  ExpectDatabasesIdentical(*db, *pristine);

  // Forcing applies the whole batch despite the objection.
  ASSERT_TRUE(ctx.ForceApplyBatch(batch).ok());
  EXPECT_EQ(ctx.forced(), 1);
  EXPECT_EQ(ctx.applied(), 3);
  EXPECT_EQ(log.size(), 3);
  EXPECT_GT(validator.Error(), 0.0);
}

// The O1-parallel pass must be bitwise deterministic: for a fixed seed
// it produces the same per-step errors, the same counters, and the
// same final database as the serial pass, at every thread count.
TEST(BatchPipelineTest, ParallelPassMatchesSerialAcrossThreads) {
  auto gen = GenerateDataset(XiamiLike(2.0), 11).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler rand;
  auto base = rand.Scale(*gen.Materialize(1).ValueOrAbort(),
                         gen.SnapshotSizes(4), 11)
                  .ValueOrAbort();
  // Rand clones tuples, so the scaled columns already match the target
  // frequencies; flatten each enforced column to a constant so the
  // tools have real work to do.
  const char* kCols[][2] = {
      {"User", "gender"}, {"Photo", "kind"}, {"Space", "kind"}};
  for (const auto& tc : kCols) {
    Table* table = base->FindTable(tc[0]);
    ASSERT_NE(table, nullptr);
    const int col = table->ColumnIndex(tc[1]);
    std::vector<TupleId> rows = LiveTuples(*table);
    ASSERT_TRUE(base->Apply(Modification::ReplaceValues(
                                tc[0], rows, {col}, {Value(int64_t{0})}))
                    .ok());
  }

  struct Outcome {
    RunReport report;
    std::unique_ptr<Database> db;
  };
  const auto run_with = [&](bool parallel, int threads) {
    Outcome out;
    out.db = base->Clone();
    Coordinator coordinator;
    std::vector<int> order;
    for (const auto& tc : kCols) {
      order.push_back(coordinator.AddTool(std::make_unique<ColumnFreqTool>(
          truth->schema(), tc[0], tc[1])));
    }
    coordinator.SetTargetsFromDataset(*truth).Check();
    CoordinatorOptions opts;
    opts.seed = 5;
    opts.parallel_pass = parallel;
    opts.pass_threads = threads;
    opts.batch_size = 64;
    out.report =
        coordinator.Run(out.db.get(), order, opts).ValueOrAbort();
    return out;
  };

  const Outcome serial = run_with(false, 1);
  for (const int threads : {1, 2, 8}) {
    const Outcome parallel = run_with(true, threads);
    ASSERT_EQ(parallel.report.steps.size(), serial.report.steps.size())
        << threads;
    for (size_t i = 0; i < serial.report.steps.size(); ++i) {
      const ToolReport& p = parallel.report.steps[i];
      const ToolReport& s = serial.report.steps[i];
      EXPECT_EQ(p.tool, s.tool) << threads << " step " << i;
      EXPECT_EQ(p.error_before, s.error_before) << threads << " step " << i;
      EXPECT_EQ(p.error_after, s.error_after) << threads << " step " << i;
      EXPECT_EQ(p.applied, s.applied) << threads << " step " << i;
      EXPECT_EQ(p.vetoed, s.vetoed) << threads << " step " << i;
    }
    EXPECT_EQ(parallel.report.final_errors, serial.report.final_errors)
        << threads;
    ExpectDatabasesIdentical(*parallel.db, *serial.db);
  }
}

// ---------------------------------------------------------------------
// Regression coverage for the parallel-group machinery itself, with
// minimal deterministic tools that exercise paths the shipped tools
// only hit on large workloads.
// ---------------------------------------------------------------------

// Schema: two independent single-column tables plus one two-column
// table for the read-dependency test.
Schema TinySchema() {
  Schema s;
  s.name = "tiny";
  s.tables.push_back({"A", {{"x", ColumnType::kInt64, ""}}});
  s.tables.push_back({"B", {{"x", ColumnType::kInt64, ""}}});
  s.tables.push_back({"T",
                      {{"a", ColumnType::kInt64, ""},
                       {"b", ColumnType::kInt64, ""}}});
  return s;
}

std::unique_ptr<Database> TinyDb(const Schema& schema = TinySchema()) {
  auto db = Database::Create(schema).ValueOrAbort();
  for (const char* name : {"A", "B"}) {
    Table* t = db->FindTable(name);
    t->Append({Value(int64_t{1})}).status().Check();
    t->Append({Value(int64_t{2})}).status().Check();
  }
  Table* t = db->FindTable("T");
  t->Append({Value(int64_t{0}), Value(int64_t{0})}).status().Check();
  t->Append({Value(int64_t{0}), Value(int64_t{0})}).status().Check();
  return db;
}

// Grows its table to `target` live tuples by cloning row 0, and
// rewrites cell (0, 0) after every insert — so one Tweak records BOTH
// a whole-table atom and a column atom on the same table, the shape
// that must merge as a single table move.
class RowAndCellTool : public PropertyTool {
 public:
  RowAndCellTool(const Schema& schema, std::string table, int64_t target)
      : table_(std::move(table)),
        table_index_(schema.TableIndex(table_)),
        target_(target) {}

  std::string name() const override { return "rowcell:" + table_; }
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
  double Error() const override {
    const Table* t = db_->FindTable(table_);
    return std::abs(static_cast<double>(t->NumTuples() - target_));
  }
  double ValidationPenalty(const Modification&) const override { return 0; }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddWrite(table_index_);  // whole table: row-structure writes
    return scope;
  }
  Status Tweak(TweakContext* ctx) override {
    const Table* t = db_->FindTable(table_);
    while (t->NumTuples() < target_) {
      std::vector<Value> row;
      for (int c = 0; c < t->num_columns(); ++c) {
        row.push_back(t->column(c).Get(0));
      }
      ASPECT_RETURN_NOT_OK(
          ctx->TryApply(Modification::InsertTuple(table_, std::move(row))));
      ASPECT_RETURN_NOT_OK(ctx->TryApply(Modification::ReplaceValues(
          table_, {0}, {0}, {Value(int64_t{t->NumTuples()})})));
    }
    return Status::OK();
  }

 private:
  std::string table_;
  int table_index_;
  int64_t target_;
  Database* db_ = nullptr;
};

// A task that inserts tuples AND rewrites cells on one table writes
// both its row structure and a column inside one parallel group; the
// result must match the serial pass exactly.
TEST(BatchPipelineTest, ParallelMergeHandlesWholeTablePlusCellAtoms) {
  const Schema schema = TinySchema();
  const auto run_with = [&](bool parallel) {
    auto db = TinyDb();
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(
            std::make_unique<RowAndCellTool>(schema, "A", 6)),
        coordinator.AddTool(
            std::make_unique<RowAndCellTool>(schema, "B", 5)),
    };
    CoordinatorOptions opts;
    opts.seed = 3;
    opts.parallel_pass = parallel;
    opts.pass_threads = 2;
    RunReport report =
        coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return std::make_pair(std::move(db), std::move(report));
  };

  const auto serial = run_with(false);
  const auto parallel = run_with(true);
  // The group must actually have formed (both scopes are declared and
  // disjoint), or this test exercises nothing.
  ASSERT_EQ(parallel.second.steps.size(), 2u);
  for (const ToolReport& step : parallel.second.steps) {
    EXPECT_TRUE(step.parallel) << step.tool;
    EXPECT_EQ(step.error_after, 0.0) << step.tool;
  }
  EXPECT_EQ(parallel.second.final_errors, serial.second.final_errors);
  ExpectDatabasesIdentical(*parallel.first, *serial.first);
}

// Writes `T.b[0] = T.b[0] + 1`; scope declared.
class WriterTool : public PropertyTool {
 public:
  explicit WriterTool(const Schema& schema)
      : table_index_(schema.TableIndex("T")) {}
  std::string name() const override { return "writer"; }
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
    scope.AddWrite(table_index_, 1);  // T.b
    return scope;
  }
  Status Tweak(TweakContext* ctx) override {
    const Table* t = db_->FindTable("T");
    return ctx->TryApply(Modification::ReplaceValues(
        "T", {0}, {1}, {Value(t->column(1).GetInt(0) + 1)}));
  }

 private:
  int table_index_;
  Database* db_ = nullptr;
};

// Copies `T.b[0]` into `T.a[1]` — it READS a column it never writes
// and declares nothing, so its observed scope under-reports its reads.
class ShadowReaderTool : public PropertyTool {
 public:
  std::string name() const override { return "shadow"; }
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
  Status Tweak(TweakContext* ctx) override {
    const Table* t = db_->FindTable("T");
    return ctx->TryApply(Modification::ReplaceValues(
        "T", {1}, {0}, {Value(t->column(1).GetInt(0))}));
  }

 private:
  Database* db_ = nullptr;
};

// A tool without a declared scope reads a column it never writes, so
// its observed (write-only) scope must NOT license grouping it with a
// tool that writes that column: serial semantics would see the
// writer's update, a concurrent group would not. The fix keeps such tools
// on the serial path; results must match the serial run exactly and
// no step may have run in a group.
TEST(BatchPipelineTest, ObservedWriteOnlyScopeStaysSerial) {
  const Schema schema = TinySchema();
  const auto run_with = [&](bool parallel, int threads) {
    auto db = TinyDb();
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(std::make_unique<WriterTool>(schema)),
        coordinator.AddTool(std::make_unique<ShadowReaderTool>()),
    };
    CoordinatorOptions opts;
    opts.seed = 9;
    opts.iterations = 3;
    opts.parallel_pass = parallel;
    opts.pass_threads = threads;
    RunReport report =
        coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return std::make_pair(std::move(db), std::move(report));
  };

  const auto serial = run_with(false, 1);
  // After 3 passes, serially: b[0] = 3 and a[1] holds the value of
  // b[0] at the last shadow step, i.e. 3.
  EXPECT_EQ(serial.first->FindTable("T")->column(1).GetInt(0), 3);
  EXPECT_EQ(serial.first->FindTable("T")->column(0).GetInt(1), 3);
  for (const int threads : {2, 8}) {
    const auto parallel = run_with(true, threads);
    ASSERT_EQ(parallel.second.steps.size(), serial.second.steps.size());
    for (const ToolReport& step : parallel.second.steps) {
      EXPECT_FALSE(step.parallel) << step.tool;
    }
    ExpectDatabasesIdentical(*parallel.first, *serial.first);
  }
}

// ---------------------------------------------------------------------
// Shared-database mode: zero-copy groups with write leases must be
// bitwise indistinguishable from serial — in
// the database AND in the modification log — at every thread count.
// ---------------------------------------------------------------------

// Shared fixture for the mode-equivalence tests: a Rand-scaled Xiami
// dataset with the enforced columns flattened so the tools have real
// work, plus a runner that executes the three ColumnFreq tools in a
// chosen execution mode with a modification log attached.
struct ModeOutcome {
  RunReport report;
  std::unique_ptr<Database> db;
  std::unique_ptr<ModificationLog> log;
};

class SharedModeTest : public ::testing::Test {
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
  }

  ModeOutcome RunMode(bool parallel, int threads, bool batch_auto = false) {
    ModeOutcome out;
    out.db = base_->Clone();
    out.log = std::make_unique<ModificationLog>(out.db.get());
    Coordinator coordinator;
    std::vector<int> order;
    for (const auto& tc : kCols) {
      order.push_back(coordinator.AddTool(std::make_unique<ColumnFreqTool>(
          truth_->schema(), tc[0], tc[1])));
    }
    coordinator.SetTargetsFromDataset(*truth_).Check();
    CoordinatorOptions opts;
    opts.seed = 5;
    opts.parallel_pass = parallel;
    opts.pass_threads = threads;
    opts.batch_size = batch_auto ? 1 : 64;
    opts.batch_auto = batch_auto;
    out.report = coordinator.Run(out.db.get(), order, opts).ValueOrAbort();
    return out;
  }

  static void ExpectSameSteps(const RunReport& a, const RunReport& b) {
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (size_t i = 0; i < b.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].tool, b.steps[i].tool) << "step " << i;
      EXPECT_EQ(a.steps[i].error_before, b.steps[i].error_before)
          << "step " << i;
      EXPECT_EQ(a.steps[i].error_after, b.steps[i].error_after)
          << "step " << i;
      EXPECT_EQ(a.steps[i].applied, b.steps[i].applied) << "step " << i;
      EXPECT_EQ(a.steps[i].vetoed, b.steps[i].vetoed) << "step " << i;
      EXPECT_EQ(a.steps[i].batch_final, b.steps[i].batch_final)
          << "step " << i;
    }
    EXPECT_EQ(a.final_errors, b.final_errors);
  }

  static constexpr const char* kCols[][2] = {
      {"User", "gender"}, {"Photo", "kind"}, {"Space", "kind"}};

  std::unique_ptr<SnapshotSet> gen_;
  std::unique_ptr<Database> truth_;
  std::unique_ptr<Database> base_;
};

TEST_F(SharedModeTest, SharedCloneSerialBitwiseIdenticalAcrossThreads) {
  const ModeOutcome serial = RunMode(false, 1);
  EXPECT_EQ(serial.report.parallel_groups, 0);
  for (const int threads : {1, 2, 8}) {
    const ModeOutcome run = RunMode(true, threads);
    // The group must actually have formed, or the parallel pass was
    // never exercised.
    EXPECT_GT(run.report.parallel_groups, 0) << "threads " << threads;
    ExpectSameSteps(run.report, serial.report);
    ExpectDatabasesIdentical(*run.db, *serial.db);
    ExpectLogsIdentical(*run.log, *serial.log);
  }
}

// Veto-rate-driven batch autotuning: trajectories (and therefore the
// produced databases and logs) are identical in serial and parallel
// execution, and sustained accepted proposals actually grow the
// hint past the starting size of 1.
TEST_F(SharedModeTest, BatchAutoDeterministicAcrossModesAndGrows) {
  const ModeOutcome serial = RunMode(false, 1, /*batch_auto=*/true);
  bool grew = false;
  for (const ToolReport& step : serial.report.steps) {
    grew = grew || step.batch_final > 1;
  }
  EXPECT_TRUE(grew);
  const ModeOutcome run = RunMode(true, 8, /*batch_auto=*/true);
  EXPECT_GT(run.report.parallel_groups, 0);
  ExpectSameSteps(run.report, serial.report);
  ExpectDatabasesIdentical(*run.db, *serial.db);
  ExpectLogsIdentical(*run.log, *serial.log);
}

// Moves every referrer of parent slot 0 over one FK edge to random
// live parents: half one write at a time, the rest in one broadcast
// write. Its Error and Tweak read that edge of the referrer index,
// which its Bind builds.
class RepointTool : public PropertyTool {
 public:
  RepointTool(const Schema& schema, const std::string& child)
      : child_(child),
        child_index_(schema.TableIndex(child)),
        parent_(schema.tables[static_cast<size_t>(child_index_)]
                    .columns[0]
                    .ref_table),
        parent_index_(schema.TableIndex(parent_)) {}

  std::string name() const override { return "repoint:" + child_; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    db_->BuildReferrerIndex();
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override {
    return static_cast<double>(db_->Referrers(child_index_, 0, 0).size());
  }
  double ValidationPenalty(const Modification&) const override { return 0; }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}
  AccessScope DeclaredScope() const override {
    AccessScope scope;
    scope.known = true;
    scope.AddWrite(child_index_, 0);
    scope.AddRead(child_index_, 0);
    scope.AddRead(child_index_, AccessScope::kRowStructure);
    scope.AddRead(parent_index_, AccessScope::kRowStructure);
    return scope;
  }
  Status Tweak(TweakContext* ctx) override {
    const Table* parent = db_->FindTable(parent_);
    const auto live_parent = [&]() {
      TupleId p = 0;
      while (p == 0 || !parent->IsLive(p)) {
        p = ctx->rng()->UniformInt(1, parent->NumSlots() - 1);
      }
      return Value(p);
    };
    const std::vector<TupleId> refs = db_->Referrers(child_index_, 0, 0);
    const size_t half = refs.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASPECT_RETURN_NOT_OK(ctx->TryApply(Modification::ReplaceValues(
          child_, {refs[i]}, {0}, {live_parent()})));
    }
    const std::vector<TupleId> rest(refs.begin() + static_cast<long>(half),
                                    refs.end());
    if (rest.empty()) return Status::OK();
    return ctx->TryApply(
        Modification::ReplaceValues(child_, rest, {0}, {live_parent()}));
  }

 private:
  std::string child_;
  int child_index_;
  std::string parent_;
  int parent_index_;
  Database* db_ = nullptr;
};

// Runs the tools `make_tools` builds on clones of `base`, with the
// referrer index built: serially, then as one parallel group at 1, 2
// and 4 threads. Every parallel run must be bitwise the serial one and
// leave an index equal to a rebuild.
void ExpectIndexedGroupMatchesSerial(
    const Database& base,
    const std::function<std::vector<std::unique_ptr<PropertyTool>>()>&
        make_tools) {
  const auto run_with = [&](bool parallel, int threads) {
    std::pair<std::unique_ptr<Database>, RunReport> out;
    out.first = base.Clone();
    out.first->BuildReferrerIndex();
    Coordinator coordinator;
    std::vector<int> order;
    for (auto& tool : make_tools()) {
      order.push_back(coordinator.AddTool(std::move(tool)));
    }
    CoordinatorOptions opts;
    opts.seed = 9;
    opts.parallel_pass = parallel;
    opts.pass_threads = threads;
    out.second = coordinator.Run(out.first.get(), order, opts).ValueOrAbort();
    return out;
  };
  const auto serial = run_with(false, 1);
  ExpectReferrerIndexMatchesRebuild(*serial.first);
  for (const ToolReport& step : serial.second.steps) {
    EXPECT_GT(step.applied, 0) << step.tool;
  }
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const auto run = run_with(true, threads);
    EXPECT_GT(run.second.parallel_groups, 0);
    ASSERT_EQ(run.second.steps.size(), serial.second.steps.size());
    for (size_t i = 0; i < run.second.steps.size(); ++i) {
      EXPECT_TRUE(run.second.steps[i].parallel) << run.second.steps[i].tool;
      EXPECT_EQ(run.second.steps[i].applied, serial.second.steps[i].applied);
    }
    EXPECT_EQ(run.second.final_errors, serial.second.final_errors);
    ExpectDatabasesIdentical(*run.first, *serial.first);
    ExpectReferrerIndexMatchesRebuild(*run.first);
  }
}

// Two group members re-point FK cells of two different child tables of
// one parent table (Album_Heard and Album_Wish -> Album): each writes
// only its own edge of the index, so the group runs without a race.
TEST(SharedIndexTest, SiblingFkRepointsShareOneParentIndex) {
  auto base = MusicDataset(23);
  for (const char* child : {"Album_Heard", "Album_Wish"}) {
    std::vector<TupleId> rows = base->FindTable(child)->LiveTuples();
    ASSERT_GE(rows.size(), 40u) << child;
    rows.resize(40);
    ASSERT_TRUE(base->Apply(Modification::ReplaceValues(
                                child, rows, {0}, {Value(int64_t{0})}))
                    .ok());
  }
  ExpectIndexedGroupMatchesSerial(*base, [&]() {
    std::vector<std::unique_ptr<PropertyTool>> tools;
    for (const char* child : {"Album_Heard", "Album_Wish"}) {
      tools.push_back(std::make_unique<RepointTool>(base->schema(), child));
    }
    return tools;
  });
}

// Declares writing only T.b but also writes T.a — an under-declared
// write scope that shared mode must catch (the write lands in the main
// database, outside the task's lease).
class LeaseLiarTool : public PropertyTool {
 public:
  explicit LeaseLiarTool(const Schema& schema)
      : table_index_(schema.TableIndex("T")) {}
  std::string name() const override { return "liar"; }
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
    scope.AddWrite(table_index_, 1);  // T.b — says nothing about T.a
    return scope;
  }
  Status Tweak(TweakContext* ctx) override {
    const Table* t = db_->FindTable("T");
    ASPECT_RETURN_NOT_OK(ctx->TryApply(Modification::ReplaceValues(
        "T", {0}, {1}, {Value(t->column(1).GetInt(0) + 1)})));
    // The lie: an undeclared write to T.a.
    return ctx->TryApply(Modification::ReplaceValues(
        "T", {0}, {0}, {Value(t->column(1).GetInt(0) + 100)}));
  }

 private:
  int table_index_;
  Database* db_ = nullptr;
};

// A shared-mode group member whose writes escape its lease must be
// caught, its writes undone from the captured pre-images, and the
// whole group redone serially — leaving results identical to the pure
// serial run. With the conformance checker on, the liar is distrusted
// and stays off the parallel fast path in later passes.
TEST(SharedModeLeaseTest, UnderDeclaredWriteIsUndoneAndRedoneSerially) {
  // T.a refers to A here, so the discarded write and its undo also
  // pass through the referrer index.
  Schema schema = TinySchema();
  schema.tables[2].columns[0] = {"a", ColumnType::kForeignKey, "A"};
  const auto run_with = [&](bool parallel) {
    auto db = TinyDb(schema);
    db->BuildReferrerIndex();
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(std::make_unique<LeaseLiarTool>(schema)),
        coordinator.AddTool(
            std::make_unique<RowAndCellTool>(schema, "A", 6)),
    };
    CoordinatorOptions opts;
    opts.seed = 13;
    opts.iterations = 2;
    opts.parallel_pass = parallel;
    opts.pass_threads = 2;
    opts.check_scopes = analysis::ScopeCheckMode::kWarn;
    RunReport report =
        coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return std::make_pair(std::move(db), std::move(report));
  };

  const auto serial = run_with(false);
  const auto parallel = run_with(true);
  // The under-declared write was observed (and survived the discard:
  // violations are checked even for discarded groups).
  EXPECT_FALSE(parallel.second.scope_violations.empty());
  // Every step fell back to the serial path: the first group was
  // discarded and redone, and the distrusted liar's observed scope
  // (write-only) keeps later groups from forming.
  for (const ToolReport& step : parallel.second.steps) {
    EXPECT_FALSE(step.parallel) << step.tool;
  }
  // The undo restored the pre-group bytes exactly, so the serial redo
  // reproduced the serial run bit for bit, referrer index included.
  ExpectDatabasesIdentical(*parallel.first, *serial.first);
  ExpectReferrerIndexMatchesRebuild(*parallel.first);
  ASSERT_EQ(parallel.second.steps.size(), serial.second.steps.size());
  for (size_t i = 0; i < serial.second.steps.size(); ++i) {
    EXPECT_EQ(parallel.second.steps[i].tool, serial.second.steps[i].tool);
    EXPECT_EQ(parallel.second.steps[i].applied,
              serial.second.steps[i].applied);
  }
}

// Declares writing only T.b but writes T.a — and the lie is its FIRST
// write, the one every sampled-canary sink checks unconditionally.
// This is the shape the release-mode canary is guaranteed to catch
// without --check-scopes.
class FirstWriteLiarTool : public PropertyTool {
 public:
  explicit FirstWriteLiarTool(const Schema& schema)
      : table_index_(schema.TableIndex("T")) {}
  std::string name() const override { return "first-write-liar"; }
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
    scope.AddWrite(table_index_, 1);  // T.b — says nothing about T.a
    return scope;
  }
  Status Tweak(TweakContext* ctx) override {
    // The lie: the first write goes to the undeclared T.a.
    return ctx->TryApply(Modification::ReplaceValues(
        "T", {1}, {0}, {Value(int64_t{42})}));
  }

 private:
  int table_index_;
  Database* db_ = nullptr;
};

// The release-build canary (satellite): with --check-scopes=sampled no
// conformance checker exists and no full footprints are recorded, yet
// a tool whose very first write leaves its declared write atoms is
// still latched by the sampled lease probe, the group is discarded,
// and the serial redo leaves results identical to the serial run.
TEST(SharedModeLeaseTest, SampledCanaryCatchesFirstWriteRangeLiar) {
  const Schema schema = TinySchema();
  const auto run_with = [&](bool parallel) {
    auto db = TinyDb();
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(std::make_unique<FirstWriteLiarTool>(schema)),
        coordinator.AddTool(
            std::make_unique<RowAndCellTool>(schema, "A", 6)),
    };
    CoordinatorOptions opts;
    opts.seed = 13;
    opts.iterations = 2;
    opts.parallel_pass = parallel;
    opts.pass_threads = 2;
    opts.check_scopes = analysis::ScopeCheckMode::kSampled;
    RunReport report =
        coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return std::make_pair(std::move(db), std::move(report));
  };

  const auto serial = run_with(false);
  const auto parallel = run_with(true);
  // The canary latched the out-of-lease write — with no checker
  // installed (sampled mode records no conformance violations).
  EXPECT_GT(parallel.second.lease_violations, 0);
  EXPECT_TRUE(parallel.second.scope_violations.empty());
  // The offending group was discarded and the liar kept off the fast
  // path for the rest of the run.
  for (const ToolReport& step : parallel.second.steps) {
    EXPECT_FALSE(step.parallel) << step.tool;
  }
  ExpectDatabasesIdentical(*parallel.first, *serial.first);
}

// Batch autotuning across a mid-run distrust (satellite): when a group
// is discarded because one member lied, the clean members' proposals
// are replayed serially — their per-tool batch hints must come out of
// the run exactly as a pure serial run leaves them (a discarded group
// must never ALSO commit its speculative hint updates, or the serial
// redo would start from a doubled hint and diverge).
TEST(SharedModeLeaseTest, BatchAutoHintsMatchSerialAcrossGroupDiscard) {
  const Schema schema = TinySchema();
  const auto make_db = [&](bool varied) {
    auto db = Database::Create(schema).ValueOrAbort();
    for (const char* name : {"A", "B"}) {
      Table* t = db->FindTable(name);
      const int64_t modulus = name[0] == 'A' ? 8 : 4;
      for (int64_t i = 0; i < 64; ++i) {
        t->Append({Value(varied ? i % modulus : int64_t{0})})
            .status()
            .Check();
      }
    }
    Table* t = db->FindTable("T");
    t->Append({Value(int64_t{0}), Value(int64_t{0})}).status().Check();
    t->Append({Value(int64_t{0}), Value(int64_t{0})}).status().Check();
    return db;
  };
  const auto truth = make_db(true);

  struct Outcome {
    std::unique_ptr<Database> db;
    std::unique_ptr<ModificationLog> log;
    RunReport report;
  };
  const auto run_with = [&](bool parallel) {
    Outcome out;
    out.db = make_db(false);
    out.log = std::make_unique<ModificationLog>(out.db.get());
    Coordinator coordinator;
    std::vector<int> order = {
        coordinator.AddTool(
            std::make_unique<ColumnFreqTool>(schema, "A", "x")),
        coordinator.AddTool(
            std::make_unique<ColumnFreqTool>(schema, "B", "x")),
        coordinator.AddTool(std::make_unique<LeaseLiarTool>(schema)),
    };
    coordinator.SetTargetsFromDataset(*truth).Check();
    CoordinatorOptions opts;
    opts.seed = 13;
    opts.iterations = 3;
    opts.parallel_pass = parallel;
    opts.pass_threads = 2;
    opts.batch_size = 1;
    opts.batch_auto = true;
    opts.check_scopes = analysis::ScopeCheckMode::kWarn;
    out.report = coordinator.Run(out.db.get(), order, opts).ValueOrAbort();
    return out;
  };

  const Outcome serial = run_with(false);
  const Outcome parallel = run_with(true);
  // The liar was caught mid-run (its first group was discarded)...
  EXPECT_FALSE(parallel.report.scope_violations.empty());
  // ...and the clean tools' hints really grew past the starting size,
  // so the trajectories compared below are non-trivial.
  bool grew = false;
  for (const ToolReport& step : serial.report.steps) {
    grew = grew || step.batch_final > 1;
  }
  EXPECT_TRUE(grew);
  ASSERT_EQ(parallel.report.steps.size(), serial.report.steps.size());
  for (size_t i = 0; i < serial.report.steps.size(); ++i) {
    EXPECT_EQ(parallel.report.steps[i].tool, serial.report.steps[i].tool)
        << "step " << i;
    EXPECT_EQ(parallel.report.steps[i].batch_final,
              serial.report.steps[i].batch_final)
        << "step " << i;
    EXPECT_EQ(parallel.report.steps[i].applied,
              serial.report.steps[i].applied)
        << "step " << i;
    EXPECT_EQ(parallel.report.steps[i].vetoed,
              serial.report.steps[i].vetoed)
        << "step " << i;
  }
  EXPECT_EQ(parallel.report.final_errors, serial.report.final_errors);
  ExpectDatabasesIdentical(*parallel.db, *serial.db);
  ExpectLogsIdentical(*parallel.log, *serial.log);
}

// Declares a write scope but proposes nothing: its shared-mode modlog
// segment is empty, and the splice must still put every other member's
// entries at the right order-positions.
class NoopDeclaredTool : public PropertyTool {
 public:
  explicit NoopDeclaredTool(const Schema& schema)
      : table_index_(schema.TableIndex("B")) {}
  std::string name() const override { return "noop"; }
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
    scope.AddWrite(table_index_, 0);  // B.x — never actually written
    return scope;
  }
  Status Tweak(TweakContext*) override { return Status::OK(); }

 private:
  int table_index_;
  Database* db_ = nullptr;
};

// Shared-mode splicing with an empty member segment (satellite): a
// group member that proposes zero modifications contributes an empty
// WriteRecorder segment; the spliced log and the database must still
// match the serial run exactly, with the no-op member in either order
// position, at every thread count.
TEST(SharedModeLeaseTest, EmptyMemberSegmentSplicesCleanly) {
  const Schema schema = TinySchema();
  // The log unregisters from the database on destruction, so it must be
  // declared after (destroyed before) the database it listens to.
  struct Outcome {
    std::unique_ptr<Database> db;
    std::unique_ptr<ModificationLog> log;
    RunReport report;
  };
  const auto run_with = [&](bool parallel, int threads, bool noop_first) {
    auto db = TinyDb();
    auto log = std::make_unique<ModificationLog>(db.get());
    Coordinator coordinator;
    std::vector<int> order;
    if (noop_first) {
      order.push_back(
          coordinator.AddTool(std::make_unique<NoopDeclaredTool>(schema)));
      order.push_back(coordinator.AddTool(
          std::make_unique<RowAndCellTool>(schema, "A", 6)));
    } else {
      order.push_back(coordinator.AddTool(
          std::make_unique<RowAndCellTool>(schema, "A", 6)));
      order.push_back(
          coordinator.AddTool(std::make_unique<NoopDeclaredTool>(schema)));
    }
    CoordinatorOptions opts;
    opts.seed = 3;
    opts.parallel_pass = parallel;
    opts.pass_threads = threads;
    RunReport report =
        coordinator.Run(db.get(), order, opts).ValueOrAbort();
    return Outcome{std::move(db), std::move(log), std::move(report)};
  };

  for (const bool noop_first : {true, false}) {
    const auto serial = run_with(false, 1, noop_first);
    for (const int threads : {1, 2, 8}) {
      const auto parallel = run_with(true, threads, noop_first);
      EXPECT_GT(parallel.report.parallel_groups, 0)
          << "noop_first " << noop_first << " threads " << threads;
      ExpectDatabasesIdentical(*parallel.db, *serial.db);
      ExpectLogsIdentical(*parallel.log, *serial.log);
    }
  }
}

}  // namespace
}  // namespace aspect
