// Tests for the modification log (audit/replay) and the coordinator's
// rollback-on-regression policy.
#include <gtest/gtest.h>

#include "aspect/coordinator.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "relational/fingerprint.h"
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

TEST(ModLogTest, RecordsAndSummarizes) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 5).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  ModificationLog log(db.get());
  ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                            "Album_Heard", {0, 1}, {0},
                            {Value(int64_t{0})}))
                  .ok());
  TupleId nt = kInvalidTuple;
  ASSERT_TRUE(db->Apply(Modification::InsertTuple(
                            "User_Fan",
                            {Value(int64_t{0}), Value(int64_t{1}),
                             Value(int64_t{1})}),
                        &nt)
                  .ok());
  ASSERT_TRUE(db->Apply(Modification::DeleteTuple("User_Fan", nt)).ok());
  EXPECT_EQ(log.size(), 3);
  const auto summary = log.Summarize();
  EXPECT_EQ(summary.at("Album_Heard").cells_written, 2);
  EXPECT_EQ(summary.at("User_Fan").rows_inserted, 1);
  EXPECT_EQ(summary.at("User_Fan").rows_deleted, 1);
  EXPECT_NE(log.ToString().find("Album_Heard"), std::string::npos);
}

TEST(ModLogTest, PauseResume) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 5).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  ModificationLog log(db.get());
  log.Pause();
  ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                            "Album_Heard", {0}, {0}, {Value(int64_t{0})}))
                  .ok());
  EXPECT_EQ(log.size(), 0);
  log.Resume();
  ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                            "Album_Heard", {0}, {0}, {Value(int64_t{1})}))
                  .ok());
  EXPECT_EQ(log.size(), 1);
}

TEST(ModLogTest, ReplayReproducesTweakedDatabase) {
  // Record a whole tweaking run, replay it on a clone of the starting
  // state, and compare every table cell.
  auto gen = GenerateDataset(DoubanMusicLike(0.25), 15).ValueOrAbort();
  auto truth = gen.Materialize(3).ValueOrAbort();
  RandScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(1).ValueOrAbort(),
                           gen.SnapshotSizes(3), 15)
                    .ValueOrAbort();
  auto start = scaled->Clone();

  ModificationLog log(scaled.get());
  Coordinator coordinator;
  coordinator.AddTool(std::make_unique<LinearPropertyTool>(truth->schema()));
  coordinator.AddTool(
      std::make_unique<CoappearPropertyTool>(truth->schema()));
  coordinator.SetTargetsFromDataset(*truth).Check();
  CoordinatorOptions opts;
  opts.seed = 2;
  coordinator.Run(scaled.get(), {1, 0}, opts).ValueOrAbort();
  ASSERT_GT(log.size(), 0);

  ASSERT_TRUE(log.ReplayOnto(start.get()).ok());
  for (int t = 0; t < scaled->num_tables(); ++t) {
    const Table& a = scaled->table(t);
    const Table& b = start->table(t);
    ASSERT_EQ(a.NumSlots(), b.NumSlots()) << a.name();
    for (TupleId tid = 0; tid < a.NumSlots(); ++tid) {
      ASSERT_EQ(a.IsLive(tid), b.IsLive(tid)) << a.name() << " " << tid;
      if (a.IsLive(tid)) {
        ASSERT_EQ(a.GetRow(tid), b.GetRow(tid)) << a.name() << " " << tid;
      }
    }
  }
}

TEST(ModLogTest, UndoOntoRevertsAllOpKinds) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 5).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  auto original = db->Clone();

  ModificationLog log(db.get());
  // One of each op kind, including an erase/re-fill pair on the same
  // cell so the undo has to restore the intermediate kEmpty state.
  ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                            "Album_Heard", {0, 1}, {0},
                            {Value(int64_t{7})}))
                  .ok());
  ASSERT_TRUE(
      db->Apply(Modification::DeleteValues("Album_Heard", {0}, {0})).ok());
  ASSERT_TRUE(db->Apply(Modification::InsertValues(
                            "Album_Heard", {0}, {0}, {Value(int64_t{9})}))
                  .ok());
  TupleId nt = kInvalidTuple;
  ASSERT_TRUE(db->Apply(Modification::InsertTuple(
                            "User_Fan",
                            {Value(int64_t{0}), Value(int64_t{1}),
                             Value(int64_t{1})}),
                        &nt)
                  .ok());
  ASSERT_TRUE(db->Apply(Modification::DeleteTuple("User_Fan", 0)).ok());
  ASSERT_EQ(log.size(), 5);

  ASSERT_TRUE(log.UndoOnto(db.get()).ok());
  ExpectDatabasesIdentical(*db, *original);
}

TEST(ModLogTest, UndoOntoRevertsATweakingRun) {
  // Record a whole tweaking run, undo it in place, and expect the
  // starting state back byte for byte.
  auto gen = GenerateDataset(DoubanMusicLike(0.25), 15).ValueOrAbort();
  auto truth = gen.Materialize(3).ValueOrAbort();
  RandScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(1).ValueOrAbort(),
                           gen.SnapshotSizes(3), 15)
                    .ValueOrAbort();
  auto start = scaled->Clone();

  ModificationLog log(scaled.get());
  Coordinator coordinator;
  coordinator.AddTool(std::make_unique<LinearPropertyTool>(truth->schema()));
  coordinator.AddTool(
      std::make_unique<CoappearPropertyTool>(truth->schema()));
  coordinator.SetTargetsFromDataset(*truth).Check();
  CoordinatorOptions opts;
  opts.seed = 2;
  coordinator.Run(scaled.get(), {1, 0}, opts).ValueOrAbort();
  ASSERT_GT(log.size(), 0);

  ASSERT_TRUE(log.UndoOnto(scaled.get()).ok());
  ExpectDatabasesIdentical(*scaled, *start);
}

TEST(RollbackTest, RegressionStepsAreUndone) {
  // Order P-C-L on Rand data: without rollback, the middle tools can
  // leave earlier-enforced properties worse; with rollback the summed
  // guarded error never increases across steps.
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 17).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(1).ValueOrAbort(),
                           gen.SnapshotSizes(4), 17)
                    .ValueOrAbort();
  Coordinator coordinator;
  const int li = coordinator.AddTool(
      std::make_unique<LinearPropertyTool>(truth->schema()));
  const int co = coordinator.AddTool(
      std::make_unique<CoappearPropertyTool>(truth->schema()));
  const int pa = coordinator.AddTool(
      std::make_unique<PairwisePropertyTool>(truth->schema()));
  coordinator.SetTargetsFromDataset(*truth).Check();
  CoordinatorOptions opts;
  opts.seed = 23;
  opts.iterations = 2;
  opts.rollback_on_regression = true;
  const auto report =
      coordinator.Run(scaled.get(), {pa, co, li}, opts).ValueOrAbort();
  // Every accepted step ends at most at its starting error.
  for (const ToolReport& step : report.steps) {
    EXPECT_LE(step.error_after, step.error_before + 1e-9) << step.tool;
  }
  EXPECT_LT(report.final_errors[static_cast<size_t>(li)], 0.05);
  (void)co;
}

// Delegates everything to `inner` and records ContentHash of the
// database each time a Tweak starts, so a test can compare the state
// after a rolled-back step with the state the step started from.
class HashAtTweakTool : public PropertyTool {
 public:
  HashAtTweakTool(std::unique_ptr<PropertyTool> inner,
                  std::vector<uint64_t>* starts)
      : inner_(std::move(inner)), starts_(starts) {}

  std::string name() const override { return inner_->name(); }
  Status SetTargetFromDataset(const Database& truth) override {
    return inner_->SetTargetFromDataset(truth);
  }
  Status RepairTarget() override { return inner_->RepairTarget(); }
  Status CheckTargetFeasible() const override {
    return inner_->CheckTargetFeasible();
  }
  Status Bind(Database* db) override { return inner_->Bind(db); }
  void Unbind() override { inner_->Unbind(); }
  bool bound() const override { return inner_->bound(); }
  void AppendListeners(std::vector<ModificationListener*>* out) override {
    inner_->AppendListeners(out);
  }
  double Error() const override { return inner_->Error(); }
  double ValidationPenalty(const Modification& mod) const override {
    return inner_->ValidationPenalty(mod);
  }
  using PropertyTool::ValidationPenaltyBatch;
  double ValidationPenaltyBatch(std::span<const Modification> mods,
                                double veto_cap) const override {
    return inner_->ValidationPenaltyBatch(mods, veto_cap);
  }
  AccessScope DeclaredScope() const override {
    return inner_->DeclaredScope();
  }
  Status Tweak(TweakContext* ctx) override {
    starts_->push_back(ContentHash(*ctx->db()));
    return inner_->Tweak(ctx);
  }
  void OnApplied(const Modification& mod, const std::vector<Value>& old_values,
                 TupleId new_tuple) override {
    inner_->OnApplied(mod, old_values, new_tuple);
  }

 private:
  std::unique_ptr<PropertyTool> inner_;
  std::vector<uint64_t>* starts_;
};

TEST(RollbackTest, RolledBackStepsRestoreTheirStartState) {
  // The reference for a rollback is the pre-step state itself: after a
  // rolled-back step the database hashes exactly as it did when the
  // step's Tweak started, and every tool's statistics equal a fresh
  // Bind on the final database.
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 17).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto db = scaler
                .Scale(*gen.Materialize(1).ValueOrAbort(),
                       gen.SnapshotSizes(4), 17)
                .ValueOrAbort();
  std::vector<uint64_t> starts;
  Coordinator coordinator;
  const int li = coordinator.AddTool(std::make_unique<HashAtTweakTool>(
      std::make_unique<LinearPropertyTool>(truth->schema()), &starts));
  const int co = coordinator.AddTool(std::make_unique<HashAtTweakTool>(
      std::make_unique<CoappearPropertyTool>(truth->schema()), &starts));
  const int pa = coordinator.AddTool(std::make_unique<HashAtTweakTool>(
      std::make_unique<PairwisePropertyTool>(truth->schema()), &starts));
  coordinator.SetTargetsFromDataset(*truth).Check();
  CoordinatorOptions opts;
  opts.seed = 23;
  opts.iterations = 2;
  opts.rollback_on_regression = true;
  const RunReport report =
      coordinator.Run(db.get(), {pa, co, li}, opts).ValueOrAbort();

  ASSERT_EQ(starts.size(), report.steps.size());
  starts.push_back(ContentHash(*db));
  bool any_rolled_back = false;
  for (size_t i = 0; i < report.steps.size(); ++i) {
    if (!report.steps[i].rolled_back) continue;
    any_rolled_back = true;
    EXPECT_EQ(starts[i + 1], starts[i])
        << "step " << i << " (" << report.steps[i].tool << ")";
  }
  EXPECT_TRUE(any_rolled_back)
      << "scenario never exercised the rollback path";
  for (const int id : {li, co, pa}) {
    PropertyTool* t = coordinator.tool(id);
    ASSERT_TRUE(t->Bind(db.get()).ok());
    EXPECT_EQ(t->Error(), report.final_errors[static_cast<size_t>(id)])
        << t->name();
    t->Unbind();
  }
}

}  // namespace
}  // namespace aspect
