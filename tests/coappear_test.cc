// Tests for the coappear property: Definition 4 extraction, Theorem 2
// conditions/repair, Algorithm 2 tweaking, incremental maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "aspect/tweak_context.h"
#include "properties/coappear.h"
#include "properties/coappear_index.h"
#include "relational/integrity.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

// Fig. 10's shape: T_A, T_B, T_C all reference T_K and T_H.
Schema Fig10Schema() {
  Schema s;
  s.name = "fig10";
  s.tables.push_back({"K", {{"x", ColumnType::kInt64, ""}}});
  s.tables.push_back({"H", {{"x", ColumnType::kInt64, ""}}});
  for (const char* n : {"A", "B", "C"}) {
    s.tables.push_back({n,
                        {{"k", ColumnType::kForeignKey, "K"},
                         {"h", ColumnType::kForeignKey, "H"}}});
  }
  return s;
}

std::unique_ptr<Database> Fig10Db() {
  auto db = Database::Create(Fig10Schema()).ValueOrAbort();
  for (const char* n : {"K", "H"}) {
    for (int i = 0; i < 3; ++i) {
      db->FindTable(n)->Append({Value(int64_t{i})}).status().Check();
    }
  }
  auto add = [&](const char* t, int64_t k, int64_t h, int times) {
    for (int i = 0; i < times; ++i) {
      db->FindTable(t)->Append({Value(k), Value(h)}).status().Check();
    }
  };
  // <k0,h1> appears 3x in A, 3x in B, 1x in C -> xi(3,3,1) = 1.
  add("A", 0, 1, 3);
  add("B", 0, 1, 3);
  add("C", 0, 1, 1);
  // <k1,h2> and <k2,h0> each 1x in A, 1x in B, 2x in C -> xi(1,1,2)=2.
  add("A", 1, 2, 1);
  add("B", 1, 2, 1);
  add("C", 1, 2, 2);
  add("A", 2, 0, 1);
  add("B", 2, 0, 1);
  add("C", 2, 0, 2);
  return db;
}

TEST(CoappearTest, Fig10DistributionExtracted) {
  auto db = Fig10Db();
  CoappearPropertyTool tool(db->schema());
  ASSERT_EQ(tool.groups().size(), 1u);
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  const FrequencyDistribution& xi = tool.TargetXi(0);
  EXPECT_EQ(xi.Count({3, 3, 1}), 1);
  EXPECT_EQ(xi.Count({1, 1, 2}), 2);
  EXPECT_EQ(xi.NumKeys(), 2);
}

TEST(CoappearTest, TheoremTwoConditionsHoldForExtraction) {
  auto db = Fig10Db();
  CoappearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  // C1/C2 hold for a target extracted from the same-size dataset.
  EXPECT_TRUE(tool.CheckTargetFeasible().ok());
  // Error against self is zero.
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  tool.Unbind();
}

// Compares every group's whole bound state (xi, combo -> vector,
// bucket membership, per-combo tuple sets, tuple -> combo cache) of an
// indexed tool with a freshly bound and indexed tool.
void ExpectMatchesFreshBind(const CoappearPropertyTool& tool, Database* db,
                            const std::string& where) {
  CoappearPropertyTool fresh(db->schema());
  ASSERT_TRUE(fresh.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(fresh.Bind(db).ok());
  fresh.BuildSearchIndex();
  for (int g = 0; g < static_cast<int>(tool.groups().size()); ++g) {
    SCOPED_TRACE(where + ", group " + std::to_string(g));
    EXPECT_EQ(tool.CurrentXi(g), fresh.CurrentXi(g));
    const auto inc = tool.Snapshot(g);
    const auto ref = fresh.Snapshot(g);
    EXPECT_TRUE(inc.combo_vec == ref.combo_vec);
    EXPECT_TRUE(inc.buckets == ref.buckets);
    EXPECT_TRUE(inc.tuples_by_combo == ref.tuples_by_combo);
    EXPECT_TRUE(inc.tuple_combo == ref.tuple_combo);
    EXPECT_FALSE(inc.combo_vec.empty());
  }
  fresh.Unbind();
}

TEST(CoappearTest, FreshBindKeepsKeyAndSlotOrders) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 31).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  // Holes in the slot ranges, so slot order is not insertion order of
  // a dense range.
  Rng rng(4);
  for (const TableSpec& spec : db->schema().tables) {
    Table& t = *db->FindTable(spec.name);
    for (const TupleId tid : t.LiveTuples()) {
      if (rng.Bernoulli(0.1)) t.Delete(tid).Check();
    }
  }
  CoappearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  tool.BuildSearchIndex();
  using Key = CoappearPropertyTool::Key;
  int64_t long_buckets = 0, long_lists = 0;
  for (int g = 0; g < static_cast<int>(tool.groups().size()); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    // The snapshot's sets hold the same members in ascending order.
    const auto snap = tool.Snapshot(g);
    for (const auto& [v, combos] : snap.buckets) {
      EXPECT_EQ(tool.BucketOrder(g, v),
                std::vector<Key>(combos.begin(), combos.end()));
      long_buckets += combos.size() > 1 ? 1 : 0;
    }
    for (size_t mi = 0; mi < snap.tuples_by_combo.size(); ++mi) {
      for (const auto& [b, tuples] : snap.tuples_by_combo[mi]) {
        EXPECT_EQ(tool.TupleOrder(g, static_cast<int>(mi), b),
                  std::vector<TupleId>(tuples.begin(), tuples.end()));
        long_lists += tuples.size() > 1 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(long_buckets, 0);
  EXPECT_GT(long_lists, 0);
  tool.Unbind();
}

// Row `tmpl` of `t` with the given columns replaced (column -> value).
std::vector<Value> RowWith(const Table& t, TupleId tmpl,
                           const std::vector<std::pair<int, int64_t>>& fks) {
  std::vector<Value> row;
  for (int c = 0; c < t.num_columns(); ++c) {
    row.push_back(t.column(c).Get(tmpl));
  }
  for (const auto& [c, v] : fks) row[static_cast<size_t>(c)] = Value(v);
  return row;
}

TEST(CoappearTest, IncrementalMatchesRebuild) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 31).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  CoappearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  // The search index's upkeep is checked against a fresh Bind's index
  // at every checkpoint.
  tool.BuildSearchIndex();

  Rng rng(6);
  Table* t = db->FindTable("Album_Heard");
  const int64_t albums = db->FindTable("Album")->NumTuples();
  const int64_t users = db->FindTable("User")->NumTuples();
  auto random_live = [&]() {
    TupleId tid = rng.UniformInt(0, t->NumSlots() - 1);
    while (!t->IsLive(tid)) tid = rng.UniformInt(0, t->NumSlots() - 1);
    return tid;
  };
  for (int step = 0; step < 80; ++step) {
    const int col = static_cast<int>(rng.UniformInt(0, 1));
    ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                              "Album_Heard", {random_live()}, {col},
                              {Value(rng.UniformInt(
                                  0, (col == 0 ? albums : users) - 1))}))
                    .ok());
  }
  TupleId nt = kInvalidTuple;
  ASSERT_TRUE(db->Apply(Modification::InsertTuple(
                            "Album_Heard",
                            {Value(int64_t{0}), Value(int64_t{1}),
                             Value(int64_t{1})}),
                        &nt)
                  .ok());
  ASSERT_TRUE(db->Apply(Modification::DeleteTuple("Album_Heard", nt)).ok());

  // Checkpoint 1: one ApplyBatch mixing inserts, deletes and FK
  // replaces on distinct tuples, including two inserts of one combo.
  {
    std::vector<TupleId> picked;
    while (picked.size() < 6) {
      const TupleId tid = random_live();
      if (std::find(picked.begin(), picked.end(), tid) == picked.end()) {
        picked.push_back(tid);
      }
    }
    const std::vector<Value> row =
        RowWith(*t, picked[0], {{0, albums - 1}, {1, users - 1}});
    const std::vector<Modification> batch = {
        Modification::InsertTuple("Album_Heard", row),
        Modification::DeleteTuple("Album_Heard", picked[1]),
        Modification::ReplaceValues("Album_Heard", {picked[2]}, {0},
                                    {Value(albums - 1)}),
        Modification::InsertTuple("Album_Heard", row),
        Modification::ReplaceValues("Album_Heard", {picked[3], picked[4]},
                                    {1}, {Value(int64_t{0})}),
        Modification::DeleteTuple("Album_Heard", picked[5]),
        Modification::InsertTuple(
            "Album_Heard", RowWith(*t, picked[0], {{0, 0}, {1, 0}})),
    };
    ASSERT_TRUE(db->ApplyBatch(batch).ok());
    ExpectMatchesFreshBind(tool, db.get(), "after ApplyBatch");
  }

  // Locate Album_Heard's group and member slot.
  int g = -1;
  size_t mi = 0;
  const int heard = db->schema().TableIndex("Album_Heard");
  for (size_t gi = 0; gi < tool.groups().size() && g < 0; ++gi) {
    const auto& members = tool.groups()[gi].member_tables;
    const auto it = std::find(members.begin(), members.end(), heard);
    if (it != members.end()) {
      g = static_cast<int>(gi);
      mi = static_cast<size_t>(it - members.begin());
    }
  }
  ASSERT_GE(g, 0);
  // The combos realizing the unit vector of Album_Heard: exactly one
  // Album_Heard tuple and no other member tuple carries each of them.
  auto unit_combos = [&]() {
    CoappearPropertyTool::Key unit(tool.groups()[static_cast<size_t>(g)]
                                       .member_tables.size(),
                                   0);
    unit[mi] = 1;
    const auto snap = tool.Snapshot(g);
    std::vector<std::pair<CoappearPropertyTool::Key, TupleId>> out;
    const auto bit = snap.buckets.find(unit);
    if (bit == snap.buckets.end()) return out;
    for (const auto& b : bit->second) {
      out.emplace_back(b, *snap.tuples_by_combo[mi].at(b).begin());
    }
    return out;
  };

  // Checkpoint 2: a combo falls to zero, then the same combo returns
  // through a delete-then-reinsert (a new slot joins its tuple list).
  {
    const auto units = unit_combos();
    ASSERT_FALSE(units.empty());
    const auto& [b, tid] = units[units.size() / 2];
    const std::vector<Value> row = RowWith(*t, tid, {});
    ASSERT_TRUE(
        db->Apply(Modification::DeleteTuple("Album_Heard", tid)).ok());
    EXPECT_EQ(tool.Snapshot(g).combo_vec.count(b), 0u);
    ExpectMatchesFreshBind(tool, db.get(), "after a combo fell to zero");
    ASSERT_TRUE(db->Apply(Modification::InsertTuple("Album_Heard", row)).ok());
    EXPECT_EQ(tool.Snapshot(g).combo_vec.count(b), 1u);
    ExpectMatchesFreshBind(tool, db.get(), "after the combo returned");
  }

  // Checkpoint 3: removing more than half of one bucket's combos makes
  // its tombstones outnumber its live entries, which forces an in-order
  // compaction.
  {
    const auto units = unit_combos();
    ASSERT_GE(units.size(), 8u);
    for (size_t i = 0; i <= units.size() / 2; ++i) {
      ASSERT_TRUE(db->Apply(Modification::DeleteTuple("Album_Heard",
                                                      units[i].second))
                      .ok());
    }
    EXPECT_EQ(unit_combos().size(), units.size() - units.size() / 2 - 1);
    ExpectMatchesFreshBind(tool, db.get(), "after a bucket compaction");
  }
  tool.Unbind();
}

// A batch's price must equal the exact error change, summed term by
// term in (group, vector key) order: float addition does not associate,
// and a vote compares the sum against a cap. The reference is computed
// from xi before and after really applying the batch.
TEST(CoappearTest, BatchPenaltySumsInGroupAndVectorKeyOrder) {
  auto gen = GenerateDataset(XiamiLike(0.2), 99).ValueOrAbort();
  auto db = gen.Materialize(2).ValueOrAbort();
  CoappearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*gen.Materialize(3).ValueOrAbort())
                  .ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  const auto& groups = tool.groups();
  ASSERT_GT(groups.size(), 4u);

  Rng rng(12);
  std::vector<Modification> batch;
  std::set<std::pair<int, TupleId>> touched;
  while (batch.size() < 60) {
    const auto& grp = groups[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(groups.size()) - 1))];
    const size_t mi = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(grp.member_tables.size()) - 1));
    const size_t p = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(grp.parent_tables.size()) - 1));
    const Table& t = db->table(grp.member_tables[mi]);
    const Table& parent = db->table(grp.parent_tables[p]);
    const TupleId tid = rng.UniformInt(0, t.NumSlots() - 1);
    const TupleId to = rng.UniformInt(0, parent.NumSlots() - 1);
    if (!t.IsLive(tid) || !parent.IsLive(to) ||
        !touched.insert({grp.member_tables[mi], tid}).second) {
      continue;
    }
    batch.push_back(Modification::ReplaceValues(
        t.name(), {tid}, {grp.member_fk_cols[mi][p]}, {Value(to)}));
  }
  const double priced = tool.ValidationPenaltyBatch(batch);

  std::vector<FrequencyDistribution> before;
  for (size_t g = 0; g < groups.size(); ++g) {
    before.push_back(tool.CurrentXi(static_cast<int>(g)));
  }
  ASSERT_TRUE(db->ApplyBatch(batch).ok());
  double sum = 0;
  int terms = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    const FrequencyDistribution& after = tool.CurrentXi(static_cast<int>(g));
    const FrequencyDistribution& target = tool.TargetXi(static_cast<int>(g));
    std::set<CoappearPropertyTool::Key> keys;
    for (const auto& [v, c] : before[g].counts()) keys.insert(v);
    for (const auto& [v, c] : after.counts()) keys.insert(v);
    const auto n_fk =
        static_cast<double>(std::max<int64_t>(1, target.TotalMass()));
    for (const auto& v : keys) {
      const int64_t cur = before[g].Count(v);
      const int64_t delta = after.Count(v) - cur;
      if (delta == 0) continue;
      const int64_t tgt = target.Count(v);
      sum += static_cast<double>(std::llabs(cur + delta - tgt) -
                                 std::llabs(cur - tgt)) /
             n_fk;
      ++terms;
    }
  }
  EXPECT_GT(terms, 10);
  EXPECT_EQ(priced, sum / static_cast<double>(groups.size()));
  tool.Unbind();
}

// The tombstoned bucket and the intrusive tuple lists must keep the
// order that std::vector push_back + find/erase keeps: ConvertOne draws
// seeded ranks against them, so the tweaked output depends on it.
TEST(CoappearIndexTest, BucketAndListsKeepVectorEraseOrder) {
  constexpr int32_t kIds = 400;
  constexpr int32_t kLists = 7;
  Rng rng(20190401);
  TombstoneBucket bucket;
  std::vector<int32_t> slot_of(kIds, -1);
  std::vector<int32_t> ref;  // reference bucket
  SlotLists lists;
  lists.Reset(kLists, kIds);
  std::vector<std::vector<int64_t>> ref_lists(kLists);
  std::vector<int32_t> list_of(kIds, -1);
  int compactions = 0;
  for (int step = 0; step < 40000; ++step) {
    // Alternate growing and shrinking phases so buckets both fill up and
    // drain through many compactions.
    const bool grow = (step / 1500) % 2 == 0;
    const int64_t op = rng.UniformInt(0, 9);
    const int32_t id = static_cast<int32_t>(rng.UniformInt(0, kIds - 1));
    const auto in_ref = std::find(ref.begin(), ref.end(), id);
    if (op < 4) {
      // Bucket: append when growing, remove when shrinking.
      if (grow && in_ref == ref.end()) {
        slot_of[static_cast<size_t>(id)] = bucket.PushBack(id);
        ref.push_back(id);
      } else if (!grow && in_ref != ref.end()) {
        const int32_t slots = bucket.slots();
        bucket.Remove(slot_of[static_cast<size_t>(id)], &slot_of);
        ref.erase(in_ref);
        compactions += bucket.slots() < slots;
      }
    } else if (op < 6 && !ref.empty()) {
      // Rank pick: the probe sequence ConvertOne walks.
      const auto size = static_cast<int32_t>(ref.size());
      const auto offset =
          static_cast<int32_t>(rng.UniformInt(0, int64_t{size} - 1));
      int32_t slot = bucket.SlotOfRank(offset);
      for (int32_t j = 0; j < std::min(size, 16); ++j) {
        ASSERT_EQ(bucket.id(slot),
                  ref[static_cast<size_t>((offset + j) % size)])
            << "step " << step << " rank " << offset + j;
        slot = bucket.NextLive(slot);
      }
    } else {
      // Tuple lists: move slot `id` to a random list (or off lists).
      const auto list = static_cast<int32_t>(rng.UniformInt(0, kLists - 1));
      const int32_t old = list_of[static_cast<size_t>(id)];
      if (old >= 0) {
        lists.Unlink(old, id);
        auto& r = ref_lists[static_cast<size_t>(old)];
        r.erase(std::find(r.begin(), r.end(), id));
        list_of[static_cast<size_t>(id)] = -1;
      }
      if (grow || old < 0) {
        lists.PushBack(list, id);
        ref_lists[static_cast<size_t>(list)].push_back(id);
        list_of[static_cast<size_t>(id)] = list;
      }
      const auto& r = ref_lists[static_cast<size_t>(list)];
      ASSERT_EQ(lists.size(list), static_cast<int32_t>(r.size()));
      if (!r.empty()) {
        const auto offset = static_cast<int32_t>(
            rng.UniformInt(0, static_cast<int64_t>(r.size()) - 1));
        int64_t s = lists.AtRank(list, offset);
        for (size_t j = 0; j < r.size(); ++j) {
          ASSERT_EQ(s, r[(static_cast<size_t>(offset) + j) % r.size()])
              << "step " << step;
          s = lists.NextWrapped(list, s);
        }
      }
    }
    ASSERT_EQ(bucket.live(), static_cast<int32_t>(ref.size()));
    ASSERT_LE(bucket.slots() - bucket.live(), bucket.live());
  }
  EXPECT_GT(compactions, 20);
}

TEST(CoappearIndexTest, KeyInternerAssignsDenseStableIds) {
  KeyInterner interner(3);
  std::map<std::vector<int64_t>, int32_t> ref;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::vector<int64_t> key = {rng.UniformInt(-3, 3),
                                      rng.UniformInt(0, 40),
                                      rng.UniformInt(0, 1LL << 40)};
    const auto it = ref.find(key);
    const int32_t expect =
        it == ref.end() ? static_cast<int32_t>(ref.size()) : it->second;
    ASSERT_EQ(interner.Find(key), it == ref.end() ? -1 : expect);
    ASSERT_EQ(interner.Intern(key), expect);
    ref.emplace(key, expect);
  }
  ASSERT_EQ(interner.size(), static_cast<int32_t>(ref.size()));
  for (const auto& [key, id] : ref) {
    const auto k = interner.key(id);
    EXPECT_TRUE(std::equal(k.begin(), k.end(), key.begin(), key.end()));
    EXPECT_EQ(interner.Find(key), id);
  }
}

class CoappearTweakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoappearTweakTest, TweaksRandScaledDatasetToGroundTruth) {
  const uint64_t seed = GetParam();
  auto gen = GenerateDataset(DoubanMusicLike(0.3), seed).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(2).ValueOrAbort(),
                           gen.SnapshotSizes(4), seed)
                    .ValueOrAbort();

  CoappearPropertyTool tool(truth->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(scaled.get()).ok());
  // Same sizes, so the extracted target is feasible without repair.
  ASSERT_TRUE(tool.CheckTargetFeasible().ok()) << tool.CheckTargetFeasible();

  const double before = tool.Error();
  EXPECT_GT(before, 0.001);
  Rng rng(seed + 1);
  TweakContext ctx(scaled.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  const double after = tool.Error();
  EXPECT_LT(after, before / 20.0);
  EXPECT_LT(after, 1e-6);
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
  tool.Unbind();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoappearTweakTest,
                         ::testing::Values(41u, 42u, 43u));

TEST(CoappearTest, TweakPreservesTableSizes) {
  // Theorem 2 C1: the tweak must leave every member table's size
  // unchanged (insertions balance deletions).
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 55).ValueOrAbort();
  auto truth = gen.Materialize(3).ValueOrAbort();
  RandScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(2).ValueOrAbort(),
                           gen.SnapshotSizes(3), 55)
                    .ValueOrAbort();
  std::vector<int64_t> sizes_before;
  for (int t = 0; t < scaled->num_tables(); ++t) {
    sizes_before.push_back(scaled->table(t).NumTuples());
  }
  CoappearPropertyTool tool(truth->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(scaled.get()).ok());
  Rng rng(7);
  TweakContext ctx(scaled.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  for (int t = 0; t < scaled->num_tables(); ++t) {
    EXPECT_EQ(scaled->table(t).NumTuples(),
              sizes_before[static_cast<size_t>(t)])
        << scaled->table(t).name();
  }
  tool.Unbind();
}

TEST(CoappearTest, RepairEstablishesFeasibility) {
  // Scale to *different* sizes than the ground truth (like ReX does):
  // the raw target violates C1 until repaired.
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 61).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RexScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(2).ValueOrAbort(),
                           gen.SnapshotSizes(4), 61)
                    .ValueOrAbort();
  CoappearPropertyTool tool(truth->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(scaled.get()).ok());
  EXPECT_FALSE(tool.CheckTargetFeasible().ok());
  ASSERT_TRUE(tool.RepairTarget().ok());
  EXPECT_TRUE(tool.CheckTargetFeasible().ok()) << tool.CheckTargetFeasible();
  // And the repaired target is reachable.
  Rng rng(8);
  TweakContext ctx(scaled.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_LT(tool.Error(), 1e-6);
  tool.Unbind();
}

TEST(CoappearTest, ValidationPenaltySigns) {
  auto db = Fig10Db();
  CoappearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  // Moving a tuple of combo <k0,h1> to <k0,h0> splits the (3,3,1)
  // combo: positive penalty.
  const Modification bad = Modification::ReplaceValues(
      "A", {0}, {1}, {Value(int64_t{0})});
  EXPECT_GT(tool.ValidationPenalty(bad), 0.0);
  // Touching a non-FK column of an unrelated table: no penalty.
  const Modification neutral =
      Modification::ReplaceValues("K", {0}, {0}, {Value(int64_t{9})});
  EXPECT_DOUBLE_EQ(tool.ValidationPenalty(neutral), 0.0);
  tool.Unbind();
}

}  // namespace
}  // namespace aspect
