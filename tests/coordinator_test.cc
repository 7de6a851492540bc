// Integration tests for the ASPECT coordinator: the full two-stage
// pipeline (size-scaler + coordinated tweaking) across permutations,
// validator voting, iterations, the registry, and overlap analysis.
#include <gtest/gtest.h>

#include <sstream>

#include "aspect/coordinator.h"
#include "aspect/overlap.h"
#include "aspect/registry.h"
#include "forwarding_tool.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "properties/simple.h"
#include "relational/fingerprint.h"
#include "relational/integrity.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

struct Pipeline {
  std::unique_ptr<Database> truth;
  std::unique_ptr<Database> scaled;
  std::unique_ptr<Coordinator> coordinator;
  int linear, coappear, pairwise;
};

Pipeline MakePipeline(uint64_t seed, const SizeScaler& scaler) {
  Pipeline p;
  auto gen = GenerateDataset(DoubanMusicLike(0.3), seed).ValueOrAbort();
  p.truth = gen.Materialize(4).ValueOrAbort();
  p.scaled = scaler
                 .Scale(*gen.Materialize(2).ValueOrAbort(),
                        gen.SnapshotSizes(4), seed)
                 .ValueOrAbort();
  p.coordinator = std::make_unique<Coordinator>();
  p.linear = p.coordinator->AddTool(
      std::make_unique<LinearPropertyTool>(p.truth->schema()));
  p.coappear = p.coordinator->AddTool(
      std::make_unique<CoappearPropertyTool>(p.truth->schema()));
  p.pairwise = p.coordinator->AddTool(
      std::make_unique<PairwisePropertyTool>(p.truth->schema()));
  p.coordinator->SetTargetsFromDataset(*p.truth).Check();
  return p;
}

TEST(CoordinatorTest, SinglePassReducesAllErrors) {
  RandScaler rand;
  Pipeline p = MakePipeline(101, rand);
  CoordinatorOptions opts;
  opts.seed = 5;
  auto report = p.coordinator
                    ->Run(p.scaled.get(),
                          {p.coappear, p.linear, p.pairwise}, opts)
                    .ValueOrAbort();
  ASSERT_EQ(report.steps.size(), 3u);
  for (const ToolReport& step : report.steps) {
    EXPECT_LT(step.error_after, step.error_before) << step.tool;
  }
  // The last tool's property is (near-)exact.
  EXPECT_LT(report.final_errors[static_cast<size_t>(p.pairwise)], 1e-6);
  EXPECT_TRUE(CheckIntegrity(*p.scaled).ok());
}

TEST(CoordinatorTest, AllSixPermutationsReduceErrors) {
  RandScaler rand;
  for (const auto& [label, order] :
       [] {
         Pipeline tmp = MakePipeline(1, RandScaler());
         return AllPermutations(*tmp.coordinator,
                                {tmp.linear, tmp.coappear, tmp.pairwise});
       }()) {
    Pipeline p = MakePipeline(103, rand);
    CoordinatorOptions opts;
    opts.seed = 7;
    auto report =
        p.coordinator->Run(p.scaled.get(), order, opts).ValueOrAbort();
    // Every tool's final error is far below its starting error.
    double max_final = 0;
    for (const double e : report.final_errors) {
      max_final = std::max(max_final, e);
    }
    EXPECT_LT(max_final, 0.35) << label;
    // The tool applied last ends at (near) zero.
    EXPECT_LT(report.final_errors[static_cast<size_t>(order.back())], 1e-4)
        << label;
    EXPECT_TRUE(CheckIntegrity(*p.scaled).ok()) << label;
  }
}

TEST(CoordinatorTest, LaterToolsHaveSmallerError) {
  // The paper's headline observation: the later a tool runs in the
  // order, the smaller its final error.
  RandScaler rand;
  Pipeline p = MakePipeline(107, rand);
  CoordinatorOptions opts;
  opts.seed = 11;
  auto report = p.coordinator
                    ->Run(p.scaled.get(),
                          {p.linear, p.coappear, p.pairwise}, opts)
                    .ValueOrAbort();
  EXPECT_LE(report.final_errors[static_cast<size_t>(p.pairwise)],
            report.final_errors[static_cast<size_t>(p.linear)] + 1e-9);
}

TEST(CoordinatorTest, IterationsReduceResidualError) {
  RandScaler rand;
  Pipeline once = MakePipeline(109, rand);
  CoordinatorOptions opts;
  opts.seed = 13;
  auto r1 = once.coordinator
                ->Run(once.scaled.get(),
                      {once.coappear, once.linear, once.pairwise}, opts)
                .ValueOrAbort();
  Pipeline thrice = MakePipeline(109, rand);
  opts.iterations = 3;
  auto r3 = thrice.coordinator
                ->Run(thrice.scaled.get(),
                      {thrice.coappear, thrice.linear, thrice.pairwise},
                      opts)
                .ValueOrAbort();
  double total1 = 0, total3 = 0;
  for (const double e : r1.final_errors) total1 += e;
  for (const double e : r3.final_errors) total3 += e;
  EXPECT_LE(total3, total1 + 1e-9);
  EXPECT_LT(total3, 0.1);
  EXPECT_EQ(r3.steps.size(), 9u);
}

TEST(CoordinatorTest, WorksOnAllThreeScalers) {
  for (const auto& scaler : BuiltinScalers()) {
    Pipeline p = MakePipeline(113, *scaler);
    CoordinatorOptions opts;
    opts.seed = 17;
    opts.iterations = 2;
    auto report = p.coordinator
                      ->Run(p.scaled.get(),
                            {p.coappear, p.pairwise, p.linear}, opts)
                      .ValueOrAbort();
    double total = 0;
    for (const double e : report.final_errors) total += e;
    EXPECT_LT(total, 0.3) << scaler->name();
    EXPECT_TRUE(CheckIntegrity(*p.scaled).ok()) << scaler->name();
  }
}

TEST(CoordinatorTest, ValidationReducesDamageToEarlierTools) {
  // With voting on, a validated run never leaves earlier tools worse
  // than the unvalidated run by more than noise; typically better.
  RandScaler rand;
  CoordinatorOptions with, without;
  with.seed = without.seed = 19;
  without.validate = false;
  Pipeline a = MakePipeline(127, rand);
  auto ra = a.coordinator
                ->Run(a.scaled.get(), {a.coappear, a.linear, a.pairwise},
                      with)
                .ValueOrAbort();
  Pipeline b = MakePipeline(127, rand);
  auto rb = b.coordinator
                ->Run(b.scaled.get(), {b.coappear, b.linear, b.pairwise},
                      without)
                .ValueOrAbort();
  int64_t vetoed = 0;
  for (const ToolReport& s : ra.steps) vetoed += s.vetoed;
  int64_t vetoed_off = 0;
  for (const ToolReport& s : rb.steps) vetoed_off += s.vetoed;
  EXPECT_EQ(vetoed_off, 0);
  (void)vetoed;  // voting may or may not fire depending on seeds
}

TEST(CoordinatorTest, BadOrderRejected) {
  RandScaler rand;
  Pipeline p = MakePipeline(1, rand);
  CoordinatorOptions opts;
  EXPECT_FALSE(p.coordinator->Run(p.scaled.get(), {99}, opts).ok());
}

TEST(CoordinatorTest, PermutationLabels) {
  RandScaler rand;
  Pipeline p = MakePipeline(1, rand);
  const auto perms = AllPermutations(
      *p.coordinator, {p.linear, p.coappear, p.pairwise});
  ASSERT_EQ(perms.size(), 6u);
  EXPECT_EQ(perms[0].first, "L-C-P");
  std::set<std::string> labels;
  for (const auto& [label, order] : labels.empty()
           ? perms
           : decltype(perms){}) {
    labels.insert(label);
  }
  for (const auto& [label, order] : perms) labels.insert(label);
  EXPECT_EQ(labels.size(), 6u);
  EXPECT_TRUE(labels.count("P-C-L"));
}

// A tool whose error sequence is scripted (indexed by completed Tweak
// calls), for exercising the convergence bookkeeping in isolation.
class ScriptedTool : public PropertyTool {
 public:
  ScriptedTool(std::string name, std::vector<double> errors)
      : name_(std::move(name)), errors_(std::move(errors)) {}
  std::string name() const override { return name_; }
  Status SetTargetFromDataset(const Database&) override {
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override { return Status::OK(); }
  Status Bind(Database* db) override {
    db_ = db;
    ++binds_;
    return Status::OK();
  }
  void Unbind() override { db_ = nullptr; }
  int binds() const { return binds_; }
  bool bound() const override { return db_ != nullptr; }
  double Error() const override {
    return errors_[std::min(calls_, errors_.size() - 1)];
  }
  double ValidationPenalty(const Modification&) const override { return 0; }
  Status Tweak(TweakContext*) override {
    ++calls_;
    return Status::OK();
  }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}

 private:
  std::string name_;
  std::vector<double> errors_;
  size_t calls_ = 0;
  int binds_ = 0;
  Database* db_ = nullptr;
};

RunReport RunScripted(std::vector<double> errors, int iterations) {
  Schema s;
  s.name = "one";
  s.tables.push_back({"T", {{"a", ColumnType::kInt64, ""}}});
  auto db = Database::Create(s).ValueOrAbort();
  Coordinator coordinator;
  const int id = coordinator.AddTool(
      std::make_unique<ScriptedTool>("scripted", std::move(errors)));
  CoordinatorOptions opts;
  opts.iterations = iterations;
  opts.converge_epsilon = 0.01;
  return coordinator.Run(db.get(), {id}, opts).ValueOrAbort();
}

TEST(CoordinatorTest, StopReasonDistinguishesOutcomes) {
  // Totals after each pass: 0.5, 0.499 -> improvement below epsilon.
  const RunReport converged = RunScripted({1.0, 0.5, 0.499}, 5);
  EXPECT_EQ(converged.stop_reason, RunReport::StopReason::kConverged);
  EXPECT_EQ(converged.steps.size(), 2u);

  // Totals 0.5, 0.7: the second pass made things strictly worse.
  // Before the fix this counted as convergence.
  const RunReport regressed = RunScripted({1.0, 0.5, 0.7}, 5);
  EXPECT_EQ(regressed.stop_reason, RunReport::StopReason::kRegressed);
  EXPECT_EQ(regressed.steps.size(), 2u);

  // Big strict improvements all the way: the loop runs out.
  const RunReport exhausted = RunScripted({4.0, 3.0, 2.0, 1.0, 0.5}, 3);
  EXPECT_EQ(exhausted.stop_reason,
            RunReport::StopReason::kIterationsExhausted);
  EXPECT_EQ(exhausted.steps.size(), 3u);

  EXPECT_STREQ(StopReasonToString(RunReport::StopReason::kConverged),
               "converged");
  EXPECT_STREQ(StopReasonToString(RunReport::StopReason::kRegressed),
               "regressed");
}

// A rollback rebuilds the statistics of the tools that are bound, and
// only those: the regressing first step is rolled back before the
// second tool's first step, so the second tool is bound exactly once.
TEST(CoordinatorTest, RollbackRebindsOnlyBoundTools) {
  Schema s;
  s.name = "one";
  s.tables.push_back({"T", {{"a", ColumnType::kInt64, ""}}});
  auto db = Database::Create(s).ValueOrAbort();
  Coordinator coordinator;
  const int worse = coordinator.AddTool(
      std::make_unique<ScriptedTool>("worse", std::vector<double>{1.0, 2.0}));
  const int better = coordinator.AddTool(
      std::make_unique<ScriptedTool>("better", std::vector<double>{1.0, 0.5}));
  CoordinatorOptions opts;
  opts.rollback_on_regression = true;
  const RunReport report =
      coordinator.Run(db.get(), {worse, better}, opts).ValueOrAbort();
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_TRUE(report.steps[0].rolled_back);
  EXPECT_FALSE(report.steps[1].rolled_back);
  const auto binds = [&](int id) {
    return dynamic_cast<const ScriptedTool*>(coordinator.tool(id))->binds();
  };
  EXPECT_EQ(binds(worse), 2);  // its first step, then the rollback
  EXPECT_EQ(binds(better), 1);
  for (int id : {worse, better}) EXPECT_FALSE(coordinator.tool(id)->bound());
}

// Forwards every call to a real tool and counts the coordinator's
// Binds and Unbinds; with `fail_tweak` its Tweak fails instead.
class RecordingTool : public ForwardingTool {
 public:
  explicit RecordingTool(std::unique_ptr<PropertyTool> inner,
                         bool fail_tweak = false)
      : ForwardingTool(std::move(inner)), fail_tweak_(fail_tweak) {}
  Status Bind(Database* db) override {
    ++binds_;
    return ForwardingTool::Bind(db);
  }
  void Unbind() override {
    ++unbinds_;
    ForwardingTool::Unbind();
  }
  Status Tweak(TweakContext* ctx) override {
    if (fail_tweak_) return Status::Internal(name() + ": failed on purpose");
    return ForwardingTool::Tweak(ctx);
  }

  int binds() const { return binds_; }
  int unbinds() const { return unbinds_; }

 private:
  bool fail_tweak_;
  int binds_ = 0;
  int unbinds_ = 0;
};

const RecordingTool& Recorded(const Coordinator& c, int id) {
  return *dynamic_cast<const RecordingTool*>(c.tool(id));
}

// Pipeline's tools wrapped in RecordingTools; `failing` names the tool
// whose Tweak fails.
Pipeline MakeRecordedPipeline(uint64_t seed, const std::string& failing) {
  Pipeline p = MakePipeline(seed, RandScaler());
  auto c = std::make_unique<Coordinator>();
  const Schema& schema = p.truth->schema();
  const auto add = [&](std::unique_ptr<PropertyTool> t) {
    const bool fail = t->name() == failing;
    return c->AddTool(std::make_unique<RecordingTool>(std::move(t), fail));
  };
  p.linear = add(std::make_unique<LinearPropertyTool>(schema));
  p.coappear = add(std::make_unique<CoappearPropertyTool>(schema));
  p.pairwise = add(std::make_unique<PairwisePropertyTool>(schema));
  c->SetTargetsFromDataset(*p.truth).Check();
  p.coordinator = std::move(c);
  return p;
}

TEST(CoordinatorTest, FailedFirstStepNeverBindsLaterTools) {
  Pipeline p = MakeRecordedPipeline(101, "coappear");
  CoordinatorOptions opts;
  opts.seed = 5;
  const Result<RunReport> r = p.coordinator->Run(
      p.scaled.get(), {p.coappear, p.linear, p.pairwise}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("failed on purpose"),
            std::string::npos);
  const Coordinator& c = *p.coordinator;
  EXPECT_EQ(Recorded(c, p.coappear).binds(), 1);
  EXPECT_EQ(Recorded(c, p.coappear).unbinds(), 1);
  EXPECT_FALSE(c.tool(p.coappear)->bound());
  for (const int id : {p.linear, p.pairwise}) {
    EXPECT_EQ(Recorded(c, id).binds(), 0) << c.tool(id)->name();
    EXPECT_FALSE(c.tool(id)->bound());
  }
}

// After a full pass every tool of the order is bound, so final_errors
// covers all of them, and each equals what a fresh tool with the same
// target measures on the output. Each tool is bound once, and its first
// step files the bind time.
TEST(CoordinatorTest, FullPassReportsEveryToolsFinalError) {
  Pipeline p = MakeRecordedPipeline(101, "");
  CoordinatorOptions opts;
  opts.seed = 5;
  opts.iterations = 2;
  const std::vector<int> order = {p.coappear, p.linear, p.pairwise};
  const RunReport report =
      p.coordinator->Run(p.scaled.get(), order, opts).ValueOrAbort();
  ASSERT_EQ(report.steps.size(), 6u);
  ASSERT_EQ(report.final_errors.size(), 3u);
  for (size_t k = 0; k < report.steps.size(); ++k) {
    if (k < 3) {
      EXPECT_GT(report.steps[k].bind_seconds, 0.0) << k;
    } else {
      EXPECT_EQ(report.steps[k].bind_seconds, 0.0) << k;
    }
  }
  EXPECT_NE(report.ToString().find("[bind "), std::string::npos);
  std::vector<std::unique_ptr<PropertyTool>> fresh;
  fresh.push_back(std::make_unique<LinearPropertyTool>(p.truth->schema()));
  fresh.push_back(std::make_unique<CoappearPropertyTool>(p.truth->schema()));
  fresh.push_back(std::make_unique<PairwisePropertyTool>(p.truth->schema()));
  for (size_t id = 0; id < fresh.size(); ++id) {
    PropertyTool& t = *fresh[id];
    SCOPED_TRACE(t.name());
    EXPECT_EQ(Recorded(*p.coordinator, static_cast<int>(id)).binds(), 1);
    ASSERT_TRUE(t.SetTargetFromDataset(*p.truth).ok());
    ASSERT_TRUE(t.Bind(p.scaled.get()).ok());
    ASSERT_TRUE(t.RepairTarget().ok());
    EXPECT_EQ(report.final_errors[id], t.Error());
    t.Unbind();
  }
}

// Forwards every call to a real tool and records the database's table
// sizes at its first Bind.
class SizeAtBindTool : public ForwardingTool {
 public:
  explicit SizeAtBindTool(std::unique_ptr<PropertyTool> inner)
      : ForwardingTool(std::move(inner)) {}
  Status Bind(Database* db) override {
    if (sizes_.empty()) {
      for (int t = 0; t < db->num_tables(); ++t) {
        sizes_.push_back(db->table(t).NumTuples());
      }
    }
    return ForwardingTool::Bind(db);
  }
  const std::vector<int64_t>& sizes() const { return sizes_; }

 private:
  std::vector<int64_t> sizes_;
};

std::string SavedTarget(const PropertyTool& t) {
  std::stringstream ss;
  t.SaveTarget(&ss).Check();
  return ss.str();
}

// A tool is bound, and its target repaired, at its first step, so the
// repair sees the table sizes every earlier step left. With tuple-count
// ahead of coappear and growing one of coappear's member tables,
// coappear's repaired target is the one a fresh tool repairs against
// the grown sizes, not against the sizes the run started with.
TEST(CoordinatorTest, RepairAtFirstStepSeesSizesLeftByEarlierSteps) {
  Pipeline p = MakePipeline(101, RandScaler());
  const Schema& schema = p.truth->schema();
  const std::unique_ptr<Database> start = p.scaled->Clone();
  const int grown = schema.TableIndex("Album_Heard");
  ASSERT_GE(grown, 0);
  std::vector<int64_t> sizes;
  for (int t = 0; t < p.scaled->num_tables(); ++t) {
    sizes.push_back(p.scaled->table(t).NumTuples());
  }
  sizes[static_cast<size_t>(grown)] += 40;

  Coordinator c;
  auto tuple_count = std::make_unique<TupleCountTool>(schema);
  ASSERT_TRUE(tuple_count->SetTargetSizes(sizes).ok());
  const int tc = c.AddTool(std::move(tuple_count));
  auto coappear_tool = std::make_unique<CoappearPropertyTool>(schema);
  ASSERT_TRUE(coappear_tool->SetTargetFromDataset(*p.truth).ok());
  const int coappear = c.AddTool(
      std::make_unique<SizeAtBindTool>(std::move(coappear_tool)));
  CoordinatorOptions opts;
  opts.seed = 5;
  const RunReport report =
      c.Run(p.scaled.get(), {tc, coappear}, opts).ValueOrAbort();
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_EQ(report.steps[0].error_after, 0.0);
  const auto& recorded = dynamic_cast<const SizeAtBindTool&>(*c.tool(coappear));
  EXPECT_EQ(recorded.sizes(), sizes);

  // The same target repaired against the grown sizes (the output's, as
  // coappear keeps table sizes) and against the starting sizes.
  const auto repaired_on = [&](Database* db) {
    CoappearPropertyTool fresh(schema);
    fresh.SetTargetFromDataset(*p.truth).Check();
    fresh.Bind(db).Check();
    fresh.RepairTarget().Check();
    std::string saved = SavedTarget(fresh);
    fresh.Unbind();
    return saved;
  };
  const std::string repaired = SavedTarget(recorded.inner());
  EXPECT_EQ(repaired, repaired_on(p.scaled.get()));
  EXPECT_NE(repaired, repaired_on(start.get()));
}

// Three column-frequency tools on disjoint tables form a parallel
// group ahead of the paper's tools. Its members are bound right before
// the group starts, the group commits with writes, and the output and
// every step's counters equal the serial pass's.
TEST(CoordinatorTest, ParallelGroupsFormAndCommitWithBindAtFirstStep) {
  const auto run = [](bool parallel) {
    Pipeline p = MakePipeline(139, RandScaler());
    const Schema& schema = p.truth->schema();
    std::vector<int> order;
    for (const auto& [table, column] :
         std::vector<std::pair<std::string, std::string>>{
             {"User", "gender"}, {"Review", "kind"},
             {"Album_Comment", "ts"}}) {
      auto t = std::make_unique<ColumnFreqTool>(schema, table, column);
      t->SetTargetFromDataset(*p.truth).Check();
      order.push_back(p.coordinator->AddTool(std::move(t)));
    }
    order.insert(order.end(), {p.coappear, p.linear, p.pairwise});
    CoordinatorOptions opts;
    opts.seed = 29;
    opts.parallel_pass = parallel;
    opts.pass_threads = 2;
    RunReport report =
        p.coordinator->Run(p.scaled.get(), order, opts).ValueOrAbort();
    for (const int id : order) {
      EXPECT_FALSE(p.coordinator->tool(id)->bound());
    }
    return std::make_pair(ContentHash(*p.scaled), std::move(report));
  };
  const auto [serial_hash, serial] = run(false);
  const auto [parallel_hash, parallel] = run(true);
  EXPECT_EQ(parallel.parallel_groups, 1);
  EXPECT_EQ(serial.parallel_groups, 0);
  EXPECT_EQ(parallel_hash, serial_hash);
  ASSERT_EQ(parallel.steps.size(), serial.steps.size());
  int64_t parallel_applied = 0;
  for (size_t k = 0; k < parallel.steps.size(); ++k) {
    const ToolReport& a = parallel.steps[k];
    const ToolReport& b = serial.steps[k];
    EXPECT_EQ(a.parallel, k < 3) << k;
    if (a.parallel) parallel_applied += a.applied;
    EXPECT_GT(a.bind_seconds, 0.0) << k;
    EXPECT_EQ(a.applied, b.applied) << k;
    EXPECT_EQ(a.vetoed, b.vetoed) << k;
    EXPECT_EQ(a.forced, b.forced) << k;
    EXPECT_EQ(a.error_after, b.error_after) << k;
  }
  EXPECT_GT(parallel_applied, 0);
  EXPECT_EQ(parallel.final_errors, serial.final_errors);
}

TEST(CoordinatorTest, AccessMonitorSeesOverlaps) {
  RandScaler rand;
  Pipeline p = MakePipeline(131, rand);
  CoordinatorOptions opts;
  opts.seed = 23;
  p.coordinator
      ->Run(p.scaled.get(), {p.coappear, p.linear, p.pairwise}, opts)
      .ValueOrAbort();
  const AccessMonitor* monitor = p.coordinator->last_monitor();
  ASSERT_NE(monitor, nullptr);
  // All three tools touched tuples.
  for (int t = 0; t < 3; ++t) EXPECT_GT(monitor->CellsTouched(t), 0) << t;
  // These deliberately overlapping properties share cells (the paper's
  // O2: ASPECT can detect it from the uniform API alone).
  EXPECT_TRUE(monitor->Overlaps(p.linear, p.coappear));
}

TEST(CoordinatorTest, NonOverlappingToolsIndependent) {
  // Two column-frequency tools on different columns never overlap
  // (observation O1) and the overlap graph says so.
  Schema s;
  s.name = "two";
  s.tables.push_back({"T",
                      {{"a", ColumnType::kInt64, ""},
                       {"b", ColumnType::kInt64, ""}}});
  auto db = Database::Create(s).ValueOrAbort();
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    db->FindTable("T")
        ->Append({Value(rng.UniformInt(0, 3)), Value(rng.UniformInt(0, 3))})
        .status()
        .Check();
  }
  Coordinator coordinator;
  auto ta = std::make_unique<ColumnFreqTool>(s, "T", "a");
  auto tb = std::make_unique<ColumnFreqTool>(s, "T", "b");
  FrequencyDistribution da(1), dbv(1);
  da.Add({0}, 64);
  dbv.Add({1}, 64);
  ta->SetTargetDistribution(da).Check();
  tb->SetTargetDistribution(dbv).Check();
  const int ia = coordinator.AddTool(std::move(ta));
  const int ib = coordinator.AddTool(std::move(tb));
  CoordinatorOptions opts;
  opts.repair_targets = false;
  auto report =
      coordinator.Run(db.get(), {ia, ib}, opts).ValueOrAbort();
  EXPECT_LT(report.final_errors[0] + report.final_errors[1], 1e-12);
  const AccessMonitor* monitor = coordinator.last_monitor();
  EXPECT_FALSE(monitor->Overlaps(ia, ib));
  const auto classes = IndependentClasses(monitor->OverlapGraph());
  EXPECT_EQ(classes.size(), 1u);  // both tools fit one class
}


TEST(CoordinatorTest, CompareOrdersPicksTheBestOrderWithoutMutating) {
  RandScaler rand;
  Pipeline p = MakePipeline(137, rand);
  const int64_t tuples_before = p.scaled->TotalTuples();
  const auto first_row = p.scaled->table(5).GetRow(0);
  CoordinatorOptions opts;
  opts.seed = 29;
  std::vector<std::vector<int>> orders;
  for (const auto& [label, order] : AllPermutations(
           *p.coordinator, {p.linear, p.coappear, p.pairwise})) {
    orders.push_back(order);
  }
  const auto outcomes =
      p.coordinator->CompareOrders(*p.scaled, orders, opts).ValueOrAbort();
  ASSERT_EQ(outcomes.size(), 6u);
  // Sorted best-first.
  for (size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_LE(outcomes[i - 1].total_error, outcomes[i].total_error);
  }
  // The probed database is untouched.
  EXPECT_EQ(p.scaled->TotalTuples(), tuples_before);
  EXPECT_EQ(p.scaled->table(5).GetRow(0), first_row);
  // And the winning order actually beats the worst by a margin.
  EXPECT_LT(outcomes.front().total_error,
            outcomes.back().total_error + 1e-12);
}

TEST(CoordinatorTest, CompareOrdersDeterministicAcrossThreadCounts) {
  // The acceptance bar for the parallel order search: rankings and
  // errors are exactly the thread-count-independent serial results.
  RandScaler rand;
  auto run_at = [&](int threads) {
    Pipeline p = MakePipeline(137, rand);
    CoordinatorOptions opts;
    opts.seed = 29;
    opts.order_search_threads = threads;
    std::vector<std::vector<int>> orders;
    for (const auto& [label, order] : AllPermutations(
             *p.coordinator, {p.linear, p.coappear, p.pairwise})) {
      orders.push_back(order);
    }
    return p.coordinator->CompareOrders(*p.scaled, orders, opts)
        .ValueOrAbort();
  };
  const auto serial = run_at(1);
  ASSERT_EQ(serial.size(), 6u);
  for (const int threads : {2, 0}) {  // 0 = one per hardware thread
    const auto parallel = run_at(threads);
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].order, serial[i].order)
          << threads << " rank " << i;
      EXPECT_EQ(parallel[i].total_error, serial[i].total_error)
          << threads << " rank " << i;
      EXPECT_EQ(parallel[i].report.final_errors,
                serial[i].report.final_errors)
          << threads << " rank " << i;
    }
  }
}

TEST(CoordinatorTest, CompareOrdersRejectsToolWithoutClone) {
  // ScriptedTool keeps the default Clone(), which returns nullptr.
  RandScaler rand;
  Pipeline p = MakePipeline(137, rand);
  const int scripted = p.coordinator->AddTool(
      std::make_unique<ScriptedTool>("uncloneable", std::vector<double>{1}));
  const uint64_t hash_before = ContentHash(*p.scaled);
  const std::vector<std::vector<int>> orders = {{p.linear, scripted},
                                                {scripted, p.linear}};
  for (const int threads : {1, 2}) {
    CoordinatorOptions opts;
    opts.order_search_threads = threads;
    const auto outcomes =
        p.coordinator->CompareOrders(*p.scaled, orders, opts);
    ASSERT_FALSE(outcomes.ok()) << threads;
    EXPECT_EQ(outcomes.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(outcomes.status().message().find("uncloneable"),
              std::string::npos)
        << outcomes.status();
    EXPECT_EQ(ContentHash(*p.scaled), hash_before) << threads;
  }
}

TEST(CoordinatorTest, PermutationLabelsUseShortestUniquePrefix) {
  // "chain" and "coappear" share the initial C: labels must extend to
  // the shortest distinguishing prefix instead of colliding.
  Schema s;
  s.name = "two";
  s.tables.push_back({"T",
                      {{"a", ColumnType::kInt64, ""},
                       {"b", ColumnType::kInt64, ""}}});
  Coordinator coordinator;
  const int ch = coordinator.AddTool(
      std::make_unique<ColumnFreqTool>(s, "T", "a", "chain"));
  const int co = coordinator.AddTool(
      std::make_unique<ColumnFreqTool>(s, "T", "b", "coappear"));
  const auto perms = AllPermutations(coordinator, {ch, co});
  ASSERT_EQ(perms.size(), 2u);
  EXPECT_EQ(perms[0].first, "CH-CO");
  EXPECT_EQ(perms[1].first, "CO-CH");

  // Exact duplicates cannot be told apart by any prefix: fall back to
  // the full name tagged with the tool id.
  Coordinator dup;
  const int d0 =
      dup.AddTool(std::make_unique<ColumnFreqTool>(s, "T", "a", "freq"));
  const int d1 =
      dup.AddTool(std::make_unique<ColumnFreqTool>(s, "T", "b", "freq"));
  const auto dperms = AllPermutations(dup, {d0, d1});
  ASSERT_EQ(dperms.size(), 2u);
  EXPECT_EQ(dperms[0].first, "FREQ#0-FREQ#1");
}

TEST(OverlapTest, IndependentClassesGreedyPartition) {
  // Path graph 0-1-2-3-4: first-fit colors it {0,2,4} / {1,3}.
  std::vector<std::vector<bool>> adj(5, std::vector<bool>(5, false));
  for (int i = 0; i + 1 < 5; ++i) {
    adj[static_cast<size_t>(i)][static_cast<size_t>(i + 1)] = true;
    adj[static_cast<size_t>(i + 1)][static_cast<size_t>(i)] = true;
  }
  const auto classes = IndependentClasses(adj);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(classes[1], (std::vector<int>{1, 3}));
  // Every class is actually independent.
  for (const auto& cls : classes) {
    for (const int u : cls) {
      for (const int v : cls) {
        EXPECT_FALSE(adj[static_cast<size_t>(u)][static_cast<size_t>(v)]);
      }
    }
  }
  // Triangle: three singleton classes.
  std::vector<std::vector<bool>> tri(3, std::vector<bool>(3, true));
  for (int i = 0; i < 3; ++i) {
    tri[static_cast<size_t>(i)][static_cast<size_t>(i)] = false;
  }
  EXPECT_EQ(IndependentClasses(tri).size(), 3u);
}

TEST(OverlapTest, MaximumIndependentSetExact) {
  // Path graph 0-1-2-3-4: MIS = {0, 2, 4}.
  std::vector<std::vector<bool>> adj(5, std::vector<bool>(5, false));
  for (int i = 0; i + 1 < 5; ++i) {
    adj[static_cast<size_t>(i)][static_cast<size_t>(i + 1)] = true;
    adj[static_cast<size_t>(i + 1)][static_cast<size_t>(i)] = true;
  }
  EXPECT_EQ(MaximumIndependentSet(adj), (std::vector<int>{0, 2, 4}));
  // Triangle: MIS size 1.
  std::vector<std::vector<bool>> tri(3, std::vector<bool>(3, true));
  for (int i = 0; i < 3; ++i) tri[static_cast<size_t>(i)][static_cast<size_t>(i)] = false;
  EXPECT_EQ(MaximumIndependentSet(tri).size(), 1u);
  // Empty graph: everything independent.
  std::vector<std::vector<bool>> none(4, std::vector<bool>(4, false));
  EXPECT_EQ(MaximumIndependentSet(none).size(), 4u);
}

TEST(RegistryTest, BuiltinToolsRegistered) {
  RegisterBuiltinTools();
  ToolRegistry& registry = ToolRegistry::Global();
  for (const char* name :
       {"linear", "coappear", "pairwise", "tuple-count"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 2).ValueOrAbort();
  auto tool = registry.Make("linear", gen.schema()).ValueOrAbort();
  EXPECT_EQ(tool->name(), "linear");
  EXPECT_FALSE(registry.Make("nope", gen.schema()).ok());
}

}  // namespace
}  // namespace aspect
