// Tests for the linear property: ChainStats (incremental join-matrix
// maintenance), Theorem 1 feasibility/repair, and Algorithm 1 tweaking.
#include <gtest/gtest.h>

#include "aspect/tweak_context.h"
#include "common/rng.h"
#include "properties/chain_stats.h"
#include "properties/linear.h"
#include "relational/integrity.h"
#include "relational/refgraph.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

// Four-table chain D -> C -> B -> A, mirroring Fig. 9's shape.
Schema ChainSchema() {
  Schema s;
  s.name = "chain4";
  s.tables.push_back({"A", {{"x", ColumnType::kInt64, ""}}});
  s.tables.push_back({"B", {{"a", ColumnType::kForeignKey, "A"}}});
  s.tables.push_back({"C", {{"b", ColumnType::kForeignKey, "B"}}});
  s.tables.push_back({"D", {{"c", ColumnType::kForeignKey, "C"}}});
  return s;
}

std::unique_ptr<Database> ChainDb() {
  auto db = Database::Create(ChainSchema()).ValueOrAbort();
  Table* a = db->FindTable("A");
  for (int i = 0; i < 4; ++i) a->Append({Value(int64_t{i})}).status().Check();
  // B: b0->a0, b1->a1, b2->a1, b3->a2, b4->a3 (roots of B->A: all 4).
  Table* b = db->FindTable("B");
  for (const int64_t p : {0, 1, 1, 2, 3}) {
    b->Append({Value(p)}).status().Check();
  }
  // C: c0->b1, c1->b2, c2->b3 (roots of C->B->A: a1, a2).
  Table* c = db->FindTable("C");
  for (const int64_t p : {1, 2, 3}) c->Append({Value(p)}).status().Check();
  // D: d0->c0, d1->c0 (roots of D->..->A: a1 only).
  Table* d = db->FindTable("D");
  for (const int64_t p : {0, 0}) d->Append({Value(p)}).status().Check();
  return db;
}

ReferenceChain TheChain(const Schema& s) {
  ReferenceGraph g(s);
  auto chains = g.MaximalChains();
  EXPECT_EQ(chains.size(), 1u);
  return chains[0];
}

TEST(ChainStatsTest, HandComputedMatrix) {
  auto db = ChainDb();
  const JoinMatrix h = ComputeJoinMatrix(*db, TheChain(db->schema()));
  ASSERT_EQ(h.k(), 4);
  EXPECT_EQ(h.at(1, 0), 4);  // roots of B->A
  EXPECT_EQ(h.at(2, 0), 2);  // roots of C->B->A: a1, a2
  EXPECT_EQ(h.at(2, 1), 3);  // b's with C children: b1, b2, b3
  EXPECT_EQ(h.at(3, 0), 1);  // roots of D->C->B->A: a1
  EXPECT_EQ(h.at(3, 1), 1);  // b's reaching D: b1
  EXPECT_EQ(h.at(3, 2), 1);  // c's with D children: c0
}

TEST(ChainStatsTest, ReachAndNavigation) {
  auto db = ChainDb();
  ChainStats s(TheChain(db->schema()));
  s.Build(*db);
  EXPECT_TRUE(s.Reaches(0, 1, 3));   // a1 reaches D level
  EXPECT_FALSE(s.Reaches(0, 0, 2));  // a0 has no C descendant
  EXPECT_EQ(s.MaxReach(0, 1), 3);
  EXPECT_EQ(s.MaxReach(0, 0), 1);
  EXPECT_EQ(s.AncestorAt(3, 0, 0), 1);   // d0 -> c0 -> b1 -> a1
  EXPECT_EQ(s.DescendantAt(0, 1, 3), 0);  // a1's D descendant d0 or d1
  EXPECT_EQ(s.Parent(2, 0), 1);
  EXPECT_EQ(s.Children(0, 1).size(), 2u);  // a1 has b1, b2
}

TEST(ChainStatsTest, IncrementalMatchesRebuildUnderRandomMoves) {
  auto gen = GenerateDataset(DoubanMusicLike(0.4), 77).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  ReferenceGraph g(db->schema());
  const auto chains = g.MaximalChains();
  // Pick the longest chain for a strong test.
  const ReferenceChain* chain = &chains[0];
  for (const auto& c : chains) {
    if (c.length() > chain->length()) chain = &c;
  }
  ASSERT_GE(chain->length(), 3);
  ChainStats s(*chain);
  s.Build(*db);
  Rng rng(5);
  for (int step = 0; step < 300; ++step) {
    // Move a random tuple at a random level to a random parent.
    const int level =
        static_cast<int>(rng.UniformInt(1, chain->length() - 1));
    Table& t = *db->FindTable(
        db->schema().tables[static_cast<size_t>(
            chain->tables[static_cast<size_t>(level)])].name);
    Table& p = *db->FindTable(
        db->schema().tables[static_cast<size_t>(
            chain->tables[static_cast<size_t>(level - 1)])].name);
    const TupleId child = rng.UniformInt(0, t.NumTuples() - 1);
    const TupleId parent = rng.UniformInt(0, p.NumTuples() - 1);
    const int col = chain->fk_cols[static_cast<size_t>(level - 1)];
    const TupleId old_parent = t.column(col).GetInt(child);
    ASSERT_TRUE(t.column(col).Set(child, Value(parent)).ok());
    if (old_parent != kInvalidTuple) s.Detach(level, child);
    s.Attach(level, child, parent);
    if (step % 50 == 0) {
      EXPECT_EQ(s.matrix(), ComputeJoinMatrix(*db, *chain))
          << "step " << step;
    }
  }
  EXPECT_EQ(s.matrix(), ComputeJoinMatrix(*db, *chain));
}

// A ChainStats filled the way the incremental path fills it: every
// live child with an FK value attached one at a time, deepest level
// first, in slot order.
ChainStats AttachOneByOne(const Database& db, const ReferenceChain& chain) {
  ChainStats s(chain);
  s.EnsureCapacity(db);
  for (int l = chain.length() - 1; l >= 1; --l) {
    const Table& t = db.table(chain.tables[static_cast<size_t>(l)]);
    const Column& fk = t.column(chain.fk_cols[static_cast<size_t>(l - 1)]);
    t.ForEachLive([&](TupleId c) {
      if (fk.IsValue(c)) s.Attach(l, c, fk.GetInt(c));
    });
  }
  return s;
}

// `blueprint`'s first snapshot with ~10% of every table's tuples
// deleted (their referrers keep dangling references) and ~10% of the
// FK cells of the survivors NULLed.
std::unique_ptr<Database> DamagedDb(const DatasetBlueprint& blueprint,
                                    uint64_t seed) {
  auto db = GenerateDataset(blueprint, seed)
                .ValueOrAbort()
                .Materialize(1)
                .ValueOrAbort();
  Rng rng(seed);
  for (const TableSpec& spec : db->schema().tables) {
    Table& t = *db->FindTable(spec.name);
    for (const TupleId tid : t.LiveTuples()) {
      if (rng.Bernoulli(0.1)) {
        t.Delete(tid).Check();
        continue;
      }
      for (int c = 0; c < t.num_columns(); ++c) {
        if (t.column(c).is_foreign_key() && rng.Bernoulli(0.1)) {
          t.column(c).Set(tid, Value()).Check();
        }
      }
    }
  }
  return db;
}

std::vector<std::unique_ptr<Database>> DamagedDbs() {
  std::vector<std::unique_ptr<Database>> dbs;
  dbs.push_back(DamagedDb(XiamiLike(0.3), 11));
  dbs.push_back(DamagedDb(DoubanMovieLike(0.3), 12));
  return dbs;
}

TEST(ChainStatsTest, JoinMatrixMatchesAttachOracle) {
  for (const auto& db : DamagedDbs()) {
    SCOPED_TRACE(db->schema().name);
    const auto chains = ReferenceGraph(db->schema()).MaximalChains();
    ASSERT_FALSE(chains.empty());
    for (const ReferenceChain& chain : chains) {
      EXPECT_EQ(ComputeJoinMatrix(*db, chain),
                AttachOneByOne(*db, chain).matrix());
    }
  }
}

// Number of tuples whose parent, children list or counters differ.
int64_t StatsMismatches(const ChainStats& a, const ChainStats& b,
                        const Database& db) {
  int64_t bad = 0;
  const int k = a.k();
  for (int l = 0; l < k; ++l) {
    const Table& t = db.table(a.chain().tables[static_cast<size_t>(l)]);
    for (TupleId tid = 0; tid < t.NumSlots(); ++tid) {
      bool same = l == 0 || a.Parent(l, tid) == b.Parent(l, tid);
      if (l < k - 1) same = same && a.Children(l, tid) == b.Children(l, tid);
      for (int j = l + 1; j < k; ++j) {
        same = same && a.Cnt(l, tid, j) == b.Cnt(l, tid, j);
      }
      bad += same ? 0 : 1;
    }
  }
  return bad;
}

TEST(ChainStatsTest, BulkBuildEqualsAttachOneByOne) {
  for (const auto& db : DamagedDbs()) {
    SCOPED_TRACE(db->schema().name);
    for (const ReferenceChain& chain :
         ReferenceGraph(db->schema()).MaximalChains()) {
      ChainStats bulk(chain);
      bulk.Build(*db);
      ChainStats one = AttachOneByOne(*db, chain);
      EXPECT_EQ(bulk.matrix(), one.matrix());
      EXPECT_EQ(StatsMismatches(bulk, one, *db), 0);
      // Detach swap-removes through each child's stored position, so
      // the children lists agree afterwards only if the positions do.
      Rng rng(3);
      for (int l = 1; l < chain.length(); ++l) {
        const Table& t = db->table(chain.tables[static_cast<size_t>(l)]);
        t.ForEachLive([&](TupleId c) {
          if (rng.Bernoulli(0.3)) {
            bulk.Detach(l, c);
            one.Detach(l, c);
          }
        });
      }
      EXPECT_EQ(bulk.matrix(), one.matrix());
      EXPECT_EQ(StatsMismatches(bulk, one, *db), 0);
    }
  }
}

TEST(JoinMatrixTest, ErrorAgainstPaperExample) {
  // Sec. VI-C1's example: eps_H = (1/3)(1/4 + 1/3 + 1/4) = 5/18.
  JoinMatrix tweaked(3), truth(3);
  tweaked.set(1, 0, 5);
  tweaked.set(2, 0, 2);
  tweaked.set(2, 1, 3);
  truth.set(1, 0, 4);
  truth.set(2, 0, 3);
  truth.set(2, 1, 4);
  EXPECT_NEAR(tweaked.ErrorAgainst(truth), 5.0 / 18.0, 1e-12);
  EXPECT_DOUBLE_EQ(truth.ErrorAgainst(truth), 0.0);
}

TEST(LinearFeasibilityTest, RealizedMatrixIsFeasible) {
  auto db = ChainDb();
  const JoinMatrix h = ComputeJoinMatrix(*db, TheChain(db->schema()));
  const std::vector<int64_t> sizes = {4, 5, 3, 2};
  EXPECT_TRUE(LinearPropertyTool::CheckMatrixFeasible(h, sizes).ok());
}

TEST(LinearFeasibilityTest, ViolationsDetected) {
  const std::vector<int64_t> sizes = {4, 5, 3, 2};
  JoinMatrix m(4);
  auto feasible_base = [&]() {
    JoinMatrix b(4);
    b.set(1, 0, 4);
    b.set(2, 0, 2);
    b.set(2, 1, 3);
    b.set(3, 0, 1);
    b.set(3, 1, 1);
    b.set(3, 2, 1);
    return b;
  };
  m = feasible_base();
  m.set(1, 0, 6);  // L1: exceeds |B| window
  EXPECT_FALSE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok());
  m = feasible_base();
  m.set(2, 0, 5);  // L2: column increases with j (5 > 4) and L1
  EXPECT_FALSE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok());
  m = feasible_base();
  m.set(2, 1, 1);  // L3: row decreasing (h(2,1)=1 < h(2,0)=2)
  EXPECT_FALSE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok());
}

TEST(LinearFeasibilityTest, RepairProducesFeasible) {
  Rng rng(123);
  const std::vector<int64_t> sizes = {40, 50, 30, 20};
  for (int trial = 0; trial < 50; ++trial) {
    JoinMatrix m(4);
    for (int j = 1; j < 4; ++j) {
      for (int i = 0; i < j; ++i) {
        m.set(j, i, rng.UniformInt(0, 80));
      }
    }
    LinearPropertyTool::RepairMatrix(&m, sizes);
    EXPECT_TRUE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok())
        << "trial " << trial << ": " << m.ToString();
  }
}

class LinearTweakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinearTweakTest, TweaksRandScaledDatasetToGroundTruth) {
  const uint64_t seed = GetParam();
  auto gen = GenerateDataset(DoubanMusicLike(0.3), seed).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto scaled =
      scaler.Scale(*gen.Materialize(2).ValueOrAbort(),
                   gen.SnapshotSizes(4), seed)
          .ValueOrAbort();

  LinearPropertyTool tool(truth->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(scaled.get()).ok());
  ASSERT_TRUE(tool.CheckTargetFeasible().ok());

  const double before = tool.Error();
  EXPECT_GT(before, 0.05);

  Rng rng(seed + 1);
  TweakContext ctx(scaled.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  const double after = tool.Error();
  EXPECT_LT(after, before / 20.0);
  EXPECT_LT(after, 0.01);
  // Tweaking must never corrupt referential integrity.
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
  tool.Unbind();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearTweakTest,
                         ::testing::Values(11u, 22u, 33u));

TEST(LinearToolTest, ValidationPenaltySigns) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 9).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  LinearPropertyTool tool(db->schema());
  // Target = the dataset itself: error 0, any structural change hurts.
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);

  // Find a chain FK modification that actually changes some matrix.
  const Table* fan = db->FindTable("User_Fan");
  ASSERT_NE(fan, nullptr);
  double worst = 0;
  for (TupleId t = 0; t < 20; ++t) {
    const int64_t cur = fan->column(0).GetInt(t);
    const Modification mod = Modification::ReplaceValues(
        "User_Fan", {t}, {0}, {Value((cur + 1) % 5)});
    worst = std::max(worst, tool.ValidationPenalty(mod));
  }
  EXPECT_GT(worst, 0.0);
  // A no-op move has zero penalty.
  const Modification noop = Modification::ReplaceValues(
      "User_Fan", {0}, {0}, {Value(fan->column(0).GetInt(0))});
  EXPECT_DOUBLE_EQ(tool.ValidationPenalty(noop), 0.0);
  // Non-FK columns are never penalized.
  const Modification attr = Modification::ReplaceValues(
      "User", {0}, {1}, {Value(int64_t{1})});
  EXPECT_DOUBLE_EQ(tool.ValidationPenalty(attr), 0.0);
  tool.Unbind();
}

TEST(LinearToolTest, BatchPenaltyGivesDistinctIdsToBatchedInserts) {
  // Two inserts in one batch land at consecutive tuple ids. The batch
  // validator must simulate them at those ids: collapsing both onto
  // the next-slot prediction double-attaches one ChainStats slot and
  // corrupts the join matrix (this crashed the CLI's --batch mode).
  auto db = ChainDb();
  LinearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);

  // d2->c1 and d3->c2 turn b2 and b3 (and a2) into D-reaching tuples.
  const std::vector<Modification> mods = {
      Modification::InsertTuple("D", {Value(int64_t{1})}),
      Modification::InsertTuple("D", {Value(int64_t{2})}),
  };
  const double penalty = tool.ValidationPenaltyBatch(mods);
  EXPECT_GT(penalty, 0.0);
  // The simulation must have been fully reverted...
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  // ...and its verdict must equal the error delta of really applying
  // the batch (the incremental update sees the true ids).
  ASSERT_TRUE(db->ApplyBatch(mods).ok());
  EXPECT_DOUBLE_EQ(penalty, tool.Error());
  EXPECT_EQ(tool.CurrentMatrix(0),
            ComputeJoinMatrix(*db, tool.chains()[0]));
  tool.Unbind();
}

TEST(LinearToolTest, StatsFollowForeignModifications) {
  // The Statistics Updater must track modifications made by *other*
  // tools (here: simulated by direct Database::Apply calls).
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 13).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  LinearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());

  Rng rng(4);
  Table* comment = db->FindTable("Album_Comment");
  for (int step = 0; step < 50; ++step) {
    const TupleId t = rng.UniformInt(0, comment->NumTuples() - 1);
    const int64_t album = rng.UniformInt(
        0, db->FindTable("Album")->NumTuples() - 1);
    ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                              "Album_Comment", {t}, {0}, {Value(album)}))
                    .ok());
  }
  // Insert and delete tuples too.
  TupleId nt = kInvalidTuple;
  ASSERT_TRUE(
      db->Apply(Modification::InsertTuple(
                    "Album_Comment",
                    {Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{1})}),
                &nt)
          .ok());
  ASSERT_TRUE(db->Apply(Modification::DeleteTuple("Album_Comment", nt)).ok());

  // Incremental state must equal a from-scratch recomputation.
  for (size_t ci = 0; ci < tool.chains().size(); ++ci) {
    EXPECT_EQ(tool.CurrentMatrix(static_cast<int>(ci)),
              ComputeJoinMatrix(*db, tool.chains()[ci]))
        << tool.chains()[ci].ToString(db->schema());
  }
  tool.Unbind();
}

}  // namespace
}  // namespace aspect
