// Cross-tool consistency fuzz: drive random modification sequences
// through the uniform API with every complex tool bound, and check
// after every step that each tool's incrementally maintained statistics
// equal a fresh from-scratch rebuild. This is the strongest guard on
// the Statistics Updater contract - any missed or double-counted event
// shows up here. Each sequence runs twice: once with the tools as
// validators, which keep only their statistics, and once with every
// tool's search index built after Bind, as its Tweak builds it, so the
// index's upkeep is checked against a fresh index too.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "aspect/coordinator.h"
#include "forwarding_tool.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "referrer_index_check.h"
#include "relational/fingerprint.h"
#include "relational/integrity.h"
#include "relational/modlog.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

// Loads `from`'s targets into `to`, so that a fresh Bind of `to`
// measures the error of `from`'s incrementally maintained state.
void CopyTargets(const PropertyTool& from, PropertyTool* to) {
  std::stringstream ss;
  ASSERT_TRUE(from.SaveTarget(&ss).ok());
  ASSERT_TRUE(to->LoadTarget(&ss).ok());
}

// Expects linear tools `a` and `b`, bound to `db` with their children
// lists built, to list the same children under every parent slot of
// every edge, each child under its parent. Lists compare as sets:
// upkeep appends and swap-removes while a fresh build lists slot order.
void ExpectSameChildren(const LinearPropertyTool& a,
                        const LinearPropertyTool& b, const Database& db) {
  const LinearStats& sa = a.stats();
  const LinearStats& sb = b.stats();
  ASSERT_EQ(sa.num_edges(), sb.num_edges());
  for (int e = 0; e < sa.num_edges(); ++e) {
    ASSERT_TRUE(sa.edge(e).listed()) << "edge " << e;
    const LinearStats::Use use = sa.Uses(e)[0];
    const ReferenceChain& chain = sa.chain(use.chain).chain();
    const Table& parent =
        db.table(chain.tables[static_cast<size_t>(use.level) - 1]);
    for (TupleId p = 0; p < parent.NumSlots(); ++p) {
      const auto x = sa.chain(use.chain).Children(use.level - 1, p);
      const auto y = sb.chain(use.chain).Children(use.level - 1, p);
      const std::set<int32_t> xs(x.begin(), x.end());
      const std::set<int32_t> ys(y.begin(), y.end());
      bool same = xs == ys && xs.size() == x.size();
      for (const int32_t c : x) same = same && sa.edge(e).Parent(c) == p;
      if (!same) {
        ADD_FAILURE() << "edge " << e << ", parent slot " << p;
        return;
      }
    }
  }
}

// Expects `t`'s incrementally kept statistics to equal those of a fresh
// tool of its kind with the same targets bound to `db`. If `indexed`,
// `t` holds its search index, and it must equal the fresh tool's index
// too.
void ExpectMatchesFreshBind(const PropertyTool& t, Database* db,
                            bool indexed) {
  SCOPED_TRACE(t.name());
  if (const auto* linear = dynamic_cast<const LinearPropertyTool*>(&t)) {
    LinearPropertyTool fresh(db->schema());
    CopyTargets(t, &fresh);
    ASSERT_TRUE(fresh.Bind(db).ok());
    EXPECT_EQ(linear->Error(), fresh.Error());
    for (size_t c = 0; c < linear->chains().size(); ++c) {
      EXPECT_EQ(linear->CurrentMatrix(static_cast<int>(c)),
                fresh.CurrentMatrix(static_cast<int>(c)))
          << "chain " << c;
    }
    if (indexed) {
      fresh.BuildSearchIndex();
      ExpectSameChildren(*linear, fresh, *db);
    }
    fresh.Unbind();
  } else if (const auto* coappear =
                 dynamic_cast<const CoappearPropertyTool*>(&t)) {
    CoappearPropertyTool fresh(db->schema());
    CopyTargets(t, &fresh);
    ASSERT_TRUE(fresh.Bind(db).ok());
    if (indexed) fresh.BuildSearchIndex();
    EXPECT_EQ(coappear->Error(), fresh.Error());
    for (size_t g = 0; g < coappear->groups().size(); ++g) {
      const int gi = static_cast<int>(g);
      EXPECT_EQ(coappear->CurrentXi(gi), fresh.CurrentXi(gi)) << "group " << g;
      EXPECT_TRUE(coappear->Snapshot(gi) == fresh.Snapshot(gi))
          << "group " << g;
    }
    fresh.Unbind();
  } else if (const auto* pairwise =
                 dynamic_cast<const PairwisePropertyTool*>(&t)) {
    PairwisePropertyTool fresh(db->schema());
    CopyTargets(t, &fresh);
    ASSERT_TRUE(fresh.Bind(db).ok());
    if (indexed) fresh.BuildSearchIndex();
    EXPECT_EQ(pairwise->Error(), fresh.Error());
    for (int s = 0; s < pairwise->num_specs(); ++s) {
      EXPECT_EQ(pairwise->CurrentRho(s), fresh.CurrentRho(s)) << s;
      EXPECT_EQ(pairwise->CurrentRhoSelf(s), fresh.CurrentRhoSelf(s)) << s;
      EXPECT_TRUE(pairwise->Snapshot(s) == fresh.Snapshot(s)) << s;
    }
    fresh.Unbind();
  } else {
    FAIL() << "not a paper tool";
  }
}

// Binds the three paper tools to `db` with targets from it, and builds
// their search indexes if `indexed`.
void BindPaperTools(LinearPropertyTool* linear, CoappearPropertyTool* coappear,
                    PairwisePropertyTool* pairwise, Database* db,
                    bool indexed) {
  for (PropertyTool* t :
       std::initializer_list<PropertyTool*>{linear, coappear, pairwise}) {
    ASSERT_TRUE(t->SetTargetFromDataset(*db).ok());
    ASSERT_TRUE(t->Bind(db).ok());
  }
  if (indexed) {
    linear->BuildSearchIndex();
    coappear->BuildSearchIndex();
    pairwise->BuildSearchIndex();
  }
}

// Drives 400 random operations of every kind the tools observe on a
// Douban-like database and checks the three paper tools against fresh
// ones after each.
void FuzzRandomOperations(uint64_t seed, bool indexed) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), seed).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();

  LinearPropertyTool linear(db->schema());
  CoappearPropertyTool coappear(db->schema());
  PairwisePropertyTool pairwise(db->schema());
  BindPaperTools(&linear, &coappear, &pairwise, db.get(), indexed);
  if (::testing::Test::HasFatalFailure()) return;
  // Coappear's Bind built the referrer index; victims are picked
  // through it.
  ASSERT_TRUE(db->has_referrer_index());

  Rng rng(seed * 31 + 7);
  // Tables whose tuples nothing references (safe to delete).
  const std::vector<std::string> leaf_tables = {
      "Album_Comment", "Album_Listening", "Album_Heard", "Album_Wish",
      "Review_Comment", "Artist_Fan", "User_Fan"};
  auto random_leaf = [&]() -> Table* {
    return db->FindTable(leaf_tables[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(leaf_tables.size()) - 1))]);
  };
  // A random live row of `t` whose FK cells point at random live
  // parents (nullopt when a drawn parent slot is dead).
  auto random_row = [&](const Table& t) -> std::optional<std::vector<Value>> {
    std::vector<Value> row;
    for (int c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(c);
      if (col.is_foreign_key()) {
        const Table* parent = db->FindTable(col.ref_table());
        const TupleId p = rng.UniformInt(0, parent->NumSlots() - 1);
        if (!parent->IsLive(p)) return std::nullopt;
        row.push_back(Value(static_cast<int64_t>(p)));
      } else {
        row.push_back(Value(int64_t{1}));
      }
    }
    return row;
  };
  int64_t applied = 0;
  int64_t batches = 0;
  for (int step = 0; step < 400; ++step) {
    const int kind = static_cast<int>(rng.UniformInt(0, 8));
    switch (kind) {
      case 0:
      case 1: {  // ReplaceValues on a random FK cell
        const int ti = static_cast<int>(
            rng.UniformInt(0, db->num_tables() - 1));
        Table& t = db->table(ti);
        std::vector<int> fk_cols;
        for (int c = 0; c < t.num_columns(); ++c) {
          if (t.column(c).is_foreign_key()) fk_cols.push_back(c);
        }
        if (fk_cols.empty() || t.NumTuples() == 0) break;
        const int col = fk_cols[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(fk_cols.size()) - 1))];
        TupleId victim = rng.UniformInt(0, t.NumSlots() - 1);
        if (!t.IsLive(victim)) break;
        const Table* parent = db->FindTable(t.column(col).ref_table());
        TupleId np = rng.UniformInt(0, parent->NumSlots() - 1);
        if (!parent->IsLive(np)) break;
        applied += db->Apply(Modification::ReplaceValues(
                                 t.name(), {victim}, {col}, {Value(np)}))
                       .ok();
        break;
      }
      case 2: {  // Insert a tuple into a leaf table
        Table* t = random_leaf();
        if (const auto row = random_row(*t)) {
          applied += db->Apply(Modification::InsertTuple(t->name(), *row)).ok();
        }
        break;
      }
      case 3: {  // Delete an unreferenced tuple from a leaf table
        const std::string& name = leaf_tables[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(leaf_tables.size()) - 1))];
        Table* t = db->FindTable(name);
        if (t->NumTuples() <= 1) break;
        const TupleId victim = rng.UniformInt(0, t->NumSlots() - 1);
        const int ti = db->schema().TableIndex(name);
        if (!t->IsLive(victim) || !db->Unreferenced(ti, victim)) break;
        applied +=
            db->Apply(Modification::DeleteTuple(name, victim)).ok();
        break;
      }
      case 4: {  // deleteValues then insertValues (the Fig. 6 cycle)
        Table* t = db->FindTable("User_Fan");
        if (t->NumTuples() == 0) break;
        const TupleId victim = rng.UniformInt(0, t->NumSlots() - 1);
        if (!t->IsLive(victim) || !t->column(0).IsValue(victim)) break;
        ASSERT_TRUE(db->Apply(Modification::DeleteValues("User_Fan",
                                                         {victim}, {0}))
                        .ok());
        const Table* users = db->FindTable("User");
        TupleId nu = rng.UniformInt(0, users->NumSlots() - 1);
        while (!users->IsLive(nu)) {
          nu = rng.UniformInt(0, users->NumSlots() - 1);
        }
        ASSERT_TRUE(db->Apply(Modification::InsertValues(
                                  "User_Fan", {victim}, {0},
                                  {Value(static_cast<int64_t>(nu))}))
                        .ok());
        applied += 2;
        break;
      }
      case 5: {  // Re-author a post (the pairwise-heavy structural op)
        const ResponseSpec& spec = db->schema().responses[0];
        Table* post = db->FindTable(spec.post_table);
        const TupleId pid = rng.UniformInt(0, post->NumSlots() - 1);
        if (!post->IsLive(pid)) break;
        const Table* users = db->FindTable("User");
        TupleId na = rng.UniformInt(0, users->NumSlots() - 1);
        if (!users->IsLive(na)) break;
        applied += db->Apply(Modification::ReplaceValues(
                                 spec.post_table, {pid},
                                 {spec.author_col},
                                 {Value(static_cast<int64_t>(na))}))
                       .ok();
        break;
      }
      case 6: {  // One ApplyBatch span: FK replaces, deletes, inserts
        Table* t = random_leaf();
        const int ti = db->schema().TableIndex(t->name());
        std::vector<Modification> batch;
        std::vector<TupleId> touched;
        for (int j = 0; j < 6; ++j) {
          const TupleId tid = rng.UniformInt(0, t->NumSlots() - 1);
          const auto row = random_row(*t);
          if (!t->IsLive(tid) || !row ||
              std::find(touched.begin(), touched.end(), tid) !=
                  touched.end()) {
            continue;
          }
          touched.push_back(tid);
          switch (j % 3) {
            case 0:  // re-point FK column 0 to the row's parent
              batch.push_back(Modification::ReplaceValues(
                  t->name(), {tid}, {0}, {(*row)[0]}));
              break;
            case 1:
              if (t->NumTuples() > 4 && db->Unreferenced(ti, tid)) {
                batch.push_back(Modification::DeleteTuple(t->name(), tid));
              }
              break;
            default:
              batch.push_back(Modification::InsertTuple(t->name(), *row));
              batch.push_back(Modification::InsertTuple(t->name(), *row));
          }
        }
        if (batch.empty()) break;
        ASSERT_TRUE(db->ApplyBatch(batch).ok());
        applied += static_cast<int64_t>(batch.size());
        ++batches;
        break;
      }
      case 7: {  // Delete a tuple, then re-insert its row (same FK combo)
        Table* t = random_leaf();
        if (t->NumTuples() <= 1) break;
        const TupleId victim = rng.UniformInt(0, t->NumSlots() - 1);
        const int ti = db->schema().TableIndex(t->name());
        if (!t->IsLive(victim) || !db->Unreferenced(ti, victim)) break;
        std::vector<Value> row;
        for (int c = 0; c < t->num_columns(); ++c) {
          row.push_back(t->column(c).Get(victim));
        }
        ASSERT_TRUE(
            db->Apply(Modification::DeleteTuple(t->name(), victim)).ok());
        ASSERT_TRUE(db->Apply(Modification::InsertTuple(t->name(), row)).ok());
        applied += 2;
        break;
      }
      case 8: {  // Empty a post's author cell, respond to it, refill it
        const ResponseSpec& spec = db->schema().responses[0];
        Table* post = db->FindTable(spec.post_table);
        Table* resp = db->FindTable(spec.response_table);
        const Table* users = db->FindTable("User");
        const TupleId pid = rng.UniformInt(0, post->NumSlots() - 1);
        const TupleId na = rng.UniformInt(0, users->NumSlots() - 1);
        const auto row = random_row(*resp);
        if (!post->IsLive(pid) || !post->column(spec.author_col).IsValue(pid) ||
            !users->IsLive(na) || !row) {
          break;
        }
        ASSERT_TRUE(db->Apply(Modification::DeleteValues(
                                  spec.post_table, {pid}, {spec.author_col}))
                        .ok());
        std::vector<Value> r = *row;
        r[static_cast<size_t>(spec.post_col)] = Value(pid);
        ASSERT_TRUE(
            db->Apply(Modification::InsertTuple(spec.response_table, r)).ok());
        ASSERT_TRUE(db->Apply(Modification::InsertValues(
                                  spec.post_table, {pid}, {spec.author_col},
                                  {Value(static_cast<int64_t>(na))}))
                        .ok());
        applied += 3;
        break;
      }
    }
    for (const PropertyTool* t : std::initializer_list<const PropertyTool*>{
             &linear, &coappear, &pairwise}) {
      ExpectMatchesFreshBind(*t, db.get(), indexed);
    }
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
  }
  EXPECT_GT(applied, 100);
  EXPECT_GT(batches, 10);
  EXPECT_TRUE(CheckIntegrity(*db).ok());
  ExpectReferrerIndexMatchesRebuild(*db);

  EXPECT_GT(coappear.Error(), 0.0);
  EXPECT_GT(pairwise.Error(), 0.0);
  for (PropertyTool* t : std::initializer_list<PropertyTool*>{
           &linear, &coappear, &pairwise}) {
    t->Unbind();
  }
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, IncrementalStatsSurviveRandomOperations) {
  FuzzRandomOperations(GetParam(), /*indexed=*/false);
}

TEST_P(FuzzTest, IncrementalIndexSurvivesRandomOperations) {
  FuzzRandomOperations(GetParam(), /*indexed=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// The same cross-check on the 31-table Xiami-like schema (42 chains,
// 12 coappear groups, 4 pairwise specs) with a shorter sequence of FK
// re-points, checked every 30 steps.
void FuzzXiamiReplaces(bool indexed) {
  auto gen = GenerateDataset(XiamiLike(0.2), 99).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  LinearPropertyTool linear(db->schema());
  CoappearPropertyTool coappear(db->schema());
  PairwisePropertyTool pairwise(db->schema());
  BindPaperTools(&linear, &coappear, &pairwise, db.get(), indexed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto check = [&](int step) {
    for (const PropertyTool* t : std::initializer_list<const PropertyTool*>{
             &linear, &coappear, &pairwise}) {
      ExpectMatchesFreshBind(*t, db.get(), indexed);
    }
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
  };
  Rng rng(4);
  for (int step = 0; step < 150; ++step) {
    if (step > 0 && step % 30 == 0) {
      check(step);
      if (::testing::Test::HasFailure()) return;
    }
    const int ti = static_cast<int>(rng.UniformInt(0, db->num_tables() - 1));
    Table& t = db->table(ti);
    std::vector<int> fk_cols;
    for (int c = 0; c < t.num_columns(); ++c) {
      if (t.column(c).is_foreign_key()) fk_cols.push_back(c);
    }
    if (fk_cols.empty() || t.NumTuples() == 0) continue;
    const int col = fk_cols[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fk_cols.size()) - 1))];
    const TupleId victim = rng.UniformInt(0, t.NumSlots() - 1);
    if (!t.IsLive(victim)) continue;
    const Table* parent = db->FindTable(t.column(col).ref_table());
    const TupleId np = rng.UniformInt(0, parent->NumSlots() - 1);
    if (!parent->IsLive(np)) continue;
    ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                              t.name(), {victim}, {col}, {Value(np)}))
                    .ok());
  }
  check(150);
  EXPECT_GT(coappear.Error(), 0.0);
  EXPECT_GT(pairwise.Error(), 0.0);
  for (PropertyTool* t : std::initializer_list<PropertyTool*>{
           &linear, &coappear, &pairwise}) {
    t->Unbind();
  }
}

TEST(FuzzXiamiTest, HeavySchemaConsistency) {
  FuzzXiamiReplaces(/*indexed=*/false);
}

TEST(FuzzXiamiTest, HeavySchemaIndexConsistency) {
  FuzzXiamiReplaces(/*indexed=*/true);
}

// Checks, after each of its tool's steps, that every bound tool of the
// run matches a fresh Bind: the tool that just tweaked (and released
// its search index) and the validators, which kept only statistics
// since their own steps.
class StepCheckingTool : public ForwardingTool {
 public:
  StepCheckingTool(std::unique_ptr<PropertyTool> inner,
                   const std::vector<const PropertyTool*>* run_tools,
                   int* steps)
      : ForwardingTool(std::move(inner)), run_tools_(run_tools),
        steps_(steps) {}
  Status Bind(Database* db) override {
    db_ = db;
    return ForwardingTool::Bind(db);
  }
  Status Tweak(TweakContext* ctx) override {
    const Status st = ForwardingTool::Tweak(ctx);
    for (const PropertyTool* t : *run_tools_) {
      if (t->bound()) ExpectMatchesFreshBind(*t, db_, /*indexed=*/false);
    }
    ++*steps_;
    return st;
  }

 private:
  const std::vector<const PropertyTool*>* run_tools_;
  int* steps_;
  Database* db_ = nullptr;
};

TEST(StepFuzzTest, BoundToolsMatchFreshBindAfterEveryStep) {
  struct Config {
    DatasetBlueprint blueprint;
    bool dscaler;
    std::vector<int> order;  // 0 linear, 1 coappear, 2 pairwise
    bool batch_auto;
    bool rollback;
  };
  const std::vector<Config> configs = {
      {XiamiLike(0.2), false, {1, 0, 2}, false, false},
      {DoubanMovieLike(0.3), true, {0, 2, 1}, true, true},
  };
  for (const Config& c : configs) {
    SCOPED_TRACE(c.blueprint.name);
    const SnapshotSet gen = GenerateDataset(c.blueprint, 8).ValueOrAbort();
    const auto truth = gen.Materialize(3).ValueOrAbort();
    RandScaler rand;
    DscalerScaler dscaler;
    const SizeScaler& scaler =
        c.dscaler ? static_cast<const SizeScaler&>(dscaler) : rand;
    auto db = scaler.Scale(*gen.Materialize(1).ValueOrAbort(),
                           gen.SnapshotSizes(3), 8)
                  .ValueOrAbort();
    const Schema& schema = truth->schema();
    std::vector<std::unique_ptr<PropertyTool>> tools;
    tools.push_back(std::make_unique<LinearPropertyTool>(schema));
    tools.push_back(std::make_unique<CoappearPropertyTool>(schema));
    tools.push_back(std::make_unique<PairwisePropertyTool>(schema));
    std::vector<const PropertyTool*> run_tools;
    int steps = 0;
    Coordinator coordinator;
    for (auto& t : tools) {
      run_tools.push_back(t.get());
      coordinator.AddTool(std::make_unique<StepCheckingTool>(
          std::move(t), &run_tools, &steps));
    }
    ASSERT_TRUE(coordinator.SetTargetsFromDataset(*truth).ok());
    CoordinatorOptions opts;
    opts.seed = 9;
    opts.iterations = 2;
    opts.batch_auto = c.batch_auto;
    opts.rollback_on_regression = c.rollback;
    const RunReport report =
        coordinator.Run(db.get(), c.order, opts).ValueOrAbort();
    EXPECT_EQ(steps, 6);
    EXPECT_EQ(report.steps.size(), 6u);
  }
}

// The database's referrer index stays equal to a from-scratch rebuild
// through every kind of write: tuple insert and delete, FK replace,
// delete and insert of values (NULL included), a batch that applies, a
// batch that fails midway and rolls back, an undo-log rollback, and on
// a clone, which builds its own index.
TEST(RefCounterTest, TracksAllOperations) {
  auto gen = GenerateDataset(DoubanMusicLike(0.2), 6).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  db->BuildReferrerIndex();
  ExpectReferrerIndexMatchesRebuild(*db);
  IntegrityOptions loose;  // NULL and empty FK cells are steps here
  loose.forbid_empty_cells = false;
  loose.forbid_null_foreign_keys = false;
  const auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    ExpectReferrerIndexMatchesRebuild(*db);
    const Status st = CheckIntegrity(*db, loose);
    EXPECT_TRUE(st.ok()) << st.ToString();
  };
  const int album = db->schema().TableIndex("Album");
  const int heard_ti = db->schema().TableIndex("Album_Heard");
  const Table* heard = db->FindTable("Album_Heard");
  const std::vector<TupleId> live = heard->LiveTuples();
  ASSERT_GE(live.size(), 8u);
  const std::vector<Value> row = heard->GetRow(live[0]);

  TupleId added = kInvalidTuple;
  ASSERT_TRUE(
      db->Apply(Modification::InsertTuple("Album_Heard", row), &added).ok());
  check("insert tuple");
  ASSERT_TRUE(db->Apply(Modification::DeleteTuple("Album_Heard", live[1]))
                  .ok());
  check("delete tuple");
  // Broadcast re-point onto album 0, which then has referrers.
  ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                            "Album_Heard", {live[2], live[3], added}, {0},
                            {Value(int64_t{0})}))
                  .ok());
  check("replaceValues");
  EXPECT_FALSE(db->Unreferenced(album, 0));
  const std::vector<TupleId> refs = db->Referrers(heard_ti, 0, 0);
  EXPECT_TRUE(std::is_sorted(refs.begin(), refs.end()));
  ASSERT_TRUE(db->Apply(Modification::ReplaceValues("Album_Heard", {live[4]},
                                                    {0}, {Value::Null()}))
                  .ok());
  check("replaceValues to NULL");
  ASSERT_TRUE(db->Apply(Modification::DeleteValues("Album_Heard",
                                                   {live[4], live[5]}, {0}))
                  .ok());
  check("deleteValues");
  ASSERT_TRUE(db->Apply(Modification::InsertValues(
                            "Album_Heard", {live[5]}, {0}, {Value::Null()}))
                  .ok());
  ASSERT_TRUE(db->Apply(Modification::InsertValues(
                            "Album_Heard", {live[4]}, {0}, {Value(int64_t{0})}))
                  .ok());
  check("insertValues");

  const std::vector<Modification> good = {
      Modification::ReplaceValues("Album_Heard", {live[6]}, {0},
                                  {Value(int64_t{1})}),
      Modification::DeleteTuple("Album_Heard", live[7]),
      Modification::InsertTuple("Album_Heard", row)};
  ASSERT_TRUE(db->ApplyBatch(good).ok());
  check("batch");
  const uint64_t before = ContentHash(*db);
  // The last modification addresses a deleted tuple: the applied
  // prefix (including a re-point and an insert) rolls back.
  const std::vector<Modification> bad = {
      Modification::ReplaceValues("Album_Heard", {live[6], live[2]}, {0},
                                  {Value(int64_t{2})}),
      Modification::InsertTuple("Album_Heard", row),
      Modification::DeleteTuple("Album_Heard", live[3]),
      Modification::ReplaceValues("Album_Heard", {live[1]}, {0},
                                  {Value(int64_t{0})})};
  ASSERT_FALSE(db->ApplyBatch(bad).ok());
  EXPECT_EQ(ContentHash(*db), before);
  check("failed batch");

  {
    ModificationLog log(db.get());
    ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                              "Album_Heard", {live[2]}, {0},
                              {Value(int64_t{3})}))
                    .ok());
    ASSERT_TRUE(db->Apply(Modification::InsertTuple("Album_Heard", row)).ok());
    ASSERT_TRUE(
        db->Apply(Modification::DeleteTuple("Album_Heard", live[3])).ok());
    ASSERT_TRUE(db->Apply(Modification::DeleteValues("Album_Heard",
                                                     {live[6]}, {0}))
                    .ok());
    check("before undo");
    ASSERT_TRUE(log.UndoOnto(db.get()).ok());
    EXPECT_EQ(ContentHash(*db), before);
    check("undo");
  }

  auto copy = db->Clone();
  EXPECT_FALSE(copy->has_referrer_index());
  copy->BuildReferrerIndex();
  ASSERT_TRUE(copy->Apply(Modification::ReplaceValues(
                              "Album_Heard", {live[2]}, {0},
                              {Value(int64_t{4})}))
                  .ok());
  ExpectReferrerIndexMatchesRebuild(*copy);
  check("original after clone");

  // A write that bypasses Apply leaves the index stale, and the
  // integrity check names the edge and the parent slot.
  Column& fk = db->table(heard_ti).column(0);
  const Value held = fk.Get(live[6]);
  const int64_t other = held.int64() == 0 ? 1 : 0;
  ASSERT_TRUE(fk.Set(live[6], Value(other)).ok());
  const Status stale = CheckIntegrity(*db, loose);
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.ToString().find("referrer index of Album_Heard." +
                                  fk.name() + " -> Album["),
            std::string::npos)
      << stale.ToString();
  ASSERT_TRUE(fk.Set(live[6], held).ok());
  check("restored");
}

}  // namespace
}  // namespace aspect
