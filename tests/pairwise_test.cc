// Tests for the pairwise property: Definition 5 extraction, Theorem 4
// conditions/repair, Algorithm 3 tweaking (incl. post stealing and the
// self-response extension of Theorems 10-11).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "aspect/tweak_context.h"
#include "properties/pairwise.h"
#include "properties/pairwise_index.h"
#include "relational/integrity.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

// Fig. 11's sonSchema: User, Post (author), Response (responder, post).
Schema Fig11Schema() {
  Schema s;
  s.name = "fig11";
  s.tables.push_back({"User", {{"g", ColumnType::kInt64, ""}}});
  s.tables.push_back({"Post", {{"author", ColumnType::kForeignKey, "User"}}});
  s.tables.push_back({"Resp",
                      {{"post", ColumnType::kForeignKey, "Post"},
                       {"responder", ColumnType::kForeignKey, "User"}}});
  s.user_table = "User";
  ResponseSpec r;
  r.response_table = "Resp";
  r.post_col = 0;
  r.responder_col = 1;
  r.post_table = "Post";
  r.author_col = 0;
  s.responses.push_back(r);
  return s;
}

std::unique_ptr<Database> Fig11Db() {
  auto db = Database::Create(Fig11Schema()).ValueOrAbort();
  for (int i = 0; i < 4; ++i) {
    db->FindTable("User")->Append({Value(int64_t{0})}).status().Check();
  }
  // p0, p1 by u0; p2 by u1.
  for (const int64_t a : {0, 0, 1}) {
    db->FindTable("Post")->Append({Value(a)}).status().Check();
  }
  // u0 responds twice to u1's post p2; u1 responds 4 times to u0's
  // posts p0/p1 (Fig. 11): rho(2,4) pair.
  auto resp = [&](int64_t post, int64_t user) {
    db->FindTable("Resp")
        ->Append({Value(post), Value(user)})
        .status()
        .Check();
  };
  resp(2, 0);
  resp(2, 0);
  resp(0, 1);
  resp(0, 1);
  resp(1, 1);
  resp(1, 1);
  // u3 responds once to his own post... u3 has no post; give u2 a
  // self-response via p2's author u1 -> make u1 self-respond once.
  resp(2, 1);
  return db;
}

TEST(PairwiseTest, Fig11DistributionExtracted) {
  auto db = Fig11Db();
  PairwisePropertyTool tool(db->schema());
  ASSERT_EQ(tool.num_specs(), 1);
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  const FrequencyDistribution& rho = tool.TargetRho(0);
  // Ordered entries: (2,4) for (u0,u1) and (4,2) for (u1,u0).
  EXPECT_EQ(rho.Count({2, 4}), 1);
  EXPECT_EQ(rho.Count({4, 2}), 1);
  EXPECT_EQ(rho.NumKeys(), 2);
}

// A schema without sonSchema roles has no response2post instantiation:
// the tool binds, reads error 0, tweaks nothing and never objects.
TEST(PairwiseTest, SchemaWithoutResponsesIsTriviallyExact) {
  Schema schema = Fig11Schema();
  schema.user_table.clear();
  schema.responses.clear();
  auto db = Database::Create(schema).ValueOrAbort();
  db->FindTable("User")->Append({Value(int64_t{0})}).status().Check();
  db->FindTable("Post")->Append({Value(int64_t{0})}).status().Check();
  db->FindTable("Resp")
      ->Append({Value(int64_t{0}), Value(int64_t{0})})
      .status()
      .Check();
  PairwisePropertyTool tool(schema);
  EXPECT_EQ(tool.num_specs(), 0);
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  ASSERT_TRUE(tool.RepairTarget().ok());
  ASSERT_TRUE(tool.CheckTargetFeasible().ok());
  EXPECT_EQ(tool.Error(), 0.0);
  EXPECT_EQ(tool.ValidationPenalty(
                Modification::DeleteTuple("Resp", 0)),
            0.0);
  Rng rng(1);
  TweakContext ctx(db.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_EQ(db->FindTable("Resp")->NumTuples(), 1);
  tool.Unbind();
}

TEST(PairwiseTest, SelfResponsesSeparated) {
  auto db = Fig11Db();
  PairwisePropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  // u1 responded once to his own post p2.
  EXPECT_EQ(tool.CurrentRhoSelf(0).Count({1}), 1);
  // Self responses are not in the pair distribution.
  EXPECT_EQ(tool.CurrentRho(0).Count({1, 1}), 0);
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  EXPECT_TRUE(tool.CheckTargetFeasible().ok()) << tool.CheckTargetFeasible();
  tool.Unbind();
}

// The state a fresh Bind to `db` builds for its only spec.
PairwisePropertyTool::StateSnapshot FreshSnapshot(Database* db) {
  PairwisePropertyTool fresh(db->schema());
  fresh.Bind(db).Check();
  PairwisePropertyTool::StateSnapshot snap = fresh.Snapshot(0);
  fresh.Unbind();
  return snap;
}

TEST(PairwiseTest, IncrementalMatchesRebuild) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 91).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  PairwisePropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());

  Rng rng(12);
  const ResponseSpec& spec = db->schema().responses[0];
  Table* resp = db->FindTable(spec.response_table);
  Table* post = db->FindTable(spec.post_table);
  const int64_t users = db->FindTable("User")->NumTuples();
  for (int step = 0; step < 60; ++step) {
    const TupleId rid = rng.UniformInt(0, resp->NumTuples() - 1);
    if (step % 3 == 0) {
      // Re-aim a response at another post.
      ASSERT_TRUE(
          db->Apply(Modification::ReplaceValues(
                        spec.response_table, {rid}, {spec.post_col},
                        {Value(rng.UniformInt(0, post->NumTuples() - 1))}))
              .ok());
    } else if (step % 3 == 1) {
      // Change a responder.
      ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                                spec.response_table, {rid},
                                {spec.responder_col},
                                {Value(rng.UniformInt(0, users - 1))}))
                      .ok());
    } else {
      // Re-author a post (moves every response on it between pairs).
      const TupleId pid = rng.UniformInt(0, post->NumTuples() - 1);
      ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                                spec.post_table, {pid}, {spec.author_col},
                                {Value(rng.UniformInt(0, users - 1))}))
                      .ok());
    }
  }
  EXPECT_TRUE(tool.Snapshot(0) == FreshSnapshot(db.get()));

  // One mixed batch over distinct responses: re-aims, re-responders, a
  // delete, an insert, and a re-author of a post.
  std::vector<Modification> batch;
  for (TupleId rid = 0; rid < 8; ++rid) {
    ASSERT_TRUE(resp->IsLive(rid));
    switch (rid % 4) {
      case 0:
        batch.push_back(Modification::ReplaceValues(
            spec.response_table, {rid}, {spec.post_col},
            {Value(rng.UniformInt(0, post->NumTuples() - 1))}));
        break;
      case 1:
        batch.push_back(Modification::ReplaceValues(
            spec.response_table, {rid}, {spec.responder_col},
            {Value(rng.UniformInt(0, users - 1))}));
        break;
      case 2:
        batch.push_back(Modification::DeleteTuple(spec.response_table, rid));
        break;
      default: {
        std::vector<Value> row = resp->GetRow(rid);
        row[static_cast<size_t>(spec.responder_col)] =
            Value(rng.UniformInt(0, users - 1));
        batch.push_back(Modification::InsertTuple(spec.response_table, row));
      }
    }
  }
  batch.push_back(Modification::ReplaceValues(
      spec.post_table, {post->NumTuples() - 1}, {spec.author_col},
      {Value(rng.UniformInt(0, users - 1))}));
  ASSERT_TRUE(db->ApplyBatch(batch).ok());
  EXPECT_TRUE(tool.Snapshot(0) == FreshSnapshot(db.get()));

  // Delete a response, then insert its row again: the pair it counted
  // into falls by one and comes back.
  const TupleId victim = 9;
  const std::vector<Value> row = resp->GetRow(victim);
  ASSERT_TRUE(
      db->Apply(Modification::DeleteTuple(spec.response_table, victim)).ok());
  EXPECT_TRUE(tool.Snapshot(0) == FreshSnapshot(db.get()));
  ASSERT_TRUE(
      db->Apply(Modification::InsertTuple(spec.response_table, row)).ok());
  EXPECT_TRUE(tool.Snapshot(0) == FreshSnapshot(db.get()));

  PairwisePropertyTool fresh(db->schema());
  ASSERT_TRUE(fresh.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(fresh.Bind(db.get()).ok());
  EXPECT_EQ(tool.CurrentRho(0), fresh.CurrentRho(0));
  EXPECT_EQ(tool.CurrentRhoSelf(0), fresh.CurrentRhoSelf(0));
  fresh.Unbind();
  tool.Unbind();
}

// Users u0..u2; post p0 by u0 and post p1 whose author is NULL; u1
// responds to p0 and u2 to p1.
std::unique_ptr<Database> AuthorlessPostDb() {
  auto db = Database::Create(Fig11Schema()).ValueOrAbort();
  for (int i = 0; i < 3; ++i) {
    db->FindTable("User")->Append({Value(int64_t{0})}).status().Check();
  }
  db->FindTable("Post")->Append({Value(int64_t{0})}).status().Check();
  db->FindTable("Post")->Append({Value()}).status().Check();
  db->FindTable("Resp")
      ->Append({Value(int64_t{0}), Value(int64_t{1})})
      .status()
      .Check();
  db->FindTable("Resp")
      ->Append({Value(int64_t{1}), Value(int64_t{2})})
      .status()
      .Check();
  return db;
}

// A response counts iff its responder and its post's author are both
// non-NULL: target extraction and Bind skip the response to p1.
TEST(PairwiseTest, ResponsesToAuthorlessPostsDoNotCount) {
  auto db = AuthorlessPostDb();
  PairwisePropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  FrequencyDistribution want(2);
  want.Add({1, 0}, 1);  // (u1, u0)
  want.Add({0, 1}, 1);  // (u0, u1)
  EXPECT_EQ(tool.TargetRho(0), want);
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  EXPECT_EQ(tool.CurrentRho(0), want);
  EXPECT_EQ(tool.CurrentRhoSelf(0), FrequencyDistribution(1));
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  const PairwisePropertyTool::StateSnapshot snap = tool.Snapshot(0);
  EXPECT_EQ(snap.n.size(), 1u);
  EXPECT_EQ(snap.n.at({1, 0}), 1);
  EXPECT_EQ(snap.responses_by_post.at(1), std::set<TupleId>{1});
  EXPECT_EQ(snap.incoming.size(), 1u);

  // Giving p1 an author makes u2's response a self-response; a NULL or
  // empty author cell uncounts it again. Each priced penalty is the
  // error change the modification causes.
  auto apply = [&](const Modification& mod) {
    const double before = tool.Error();
    const double penalty = tool.ValidationPenalty(mod);
    ASSERT_TRUE(db->Apply(mod).ok());
    EXPECT_NEAR(tool.Error() - before, penalty, 1e-12);
    EXPECT_TRUE(tool.Snapshot(0) == FreshSnapshot(db.get()));
  };
  FrequencyDistribution self(1);
  self.Add({1}, 1);
  apply(Modification::ReplaceValues("Post", {1}, {0}, {Value(int64_t{2})}));
  EXPECT_EQ(tool.CurrentRhoSelf(0), self);
  apply(Modification::DeleteValues("Post", {1}, {0}));
  EXPECT_EQ(tool.CurrentRhoSelf(0), FrequencyDistribution(1));
  apply(Modification::InsertValues("Post", {1}, {0}, {Value(int64_t{2})}));
  EXPECT_EQ(tool.CurrentRhoSelf(0), self);
  apply(Modification::ReplaceValues("Post", {1}, {0}, {Value()}));
  EXPECT_EQ(tool.CurrentRhoSelf(0), FrequencyDistribution(1));
  EXPECT_EQ(tool.CurrentRho(0), want);
  tool.Unbind();
}

// deleteValues / insertValues on the author column move a post's
// responses between pairs just as replaceValues does.
TEST(PairwiseTest, AuthorCellOpsMoveResponses) {
  auto db = AuthorlessPostDb();
  PairwisePropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  const double deleted_penalty =
      tool.ValidationPenalty(Modification::DeleteValues("Post", {0}, {0}));
  EXPECT_GT(deleted_penalty, 0.0);
  ASSERT_TRUE(db->Apply(Modification::DeleteValues("Post", {0}, {0})).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), deleted_penalty);
  EXPECT_EQ(tool.CurrentRho(0), FrequencyDistribution(2));
  EXPECT_TRUE(tool.Snapshot(0) == FreshSnapshot(db.get()));
  // p0 now belongs to its responder u1: a self-response.
  ASSERT_TRUE(db->Apply(Modification::InsertValues("Post", {0}, {0},
                                                   {Value(int64_t{1})}))
                  .ok());
  EXPECT_EQ(tool.CurrentRho(0), FrequencyDistribution(2));
  FrequencyDistribution self(1);
  self.Add({1}, 1);
  EXPECT_EQ(tool.CurrentRhoSelf(0), self);
  EXPECT_TRUE(tool.Snapshot(0) == FreshSnapshot(db.get()));
  PairwisePropertyTool fresh(db->schema());
  ASSERT_TRUE(fresh.Bind(db.get()).ok());
  EXPECT_EQ(fresh.CurrentRhoSelf(0), self);
  fresh.Unbind();
  tool.Unbind();
}

// SwapLists keeps the element order of std::vector with push_back and
// find + swap-with-last removal, the order random picks index into.
TEST(PairwiseTest, SwapListsMatchEraseFromModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SwapLists lists;
    std::vector<std::vector<int64_t>> model(6);
    std::vector<int64_t> list_of(64, -1);  // element -> its list
    for (int op = 0; op < 2000; ++op) {
      const int64_t e = rng.UniformInt(0, 63);
      const int64_t l = list_of[static_cast<size_t>(e)];
      if (l < 0) {
        const int64_t to = rng.UniformInt(0, 5);
        lists.PushBack(to, e);
        model[static_cast<size_t>(to)].push_back(e);
        list_of[static_cast<size_t>(e)] = to;
      } else {
        // Removing from a list the element is not on changes nothing.
        EXPECT_FALSE(lists.Remove((l + 1) % 6, e));
        ASSERT_TRUE(lists.Remove(l, e));
        std::vector<int64_t>& v = model[static_cast<size_t>(l)];
        const auto it = std::find(v.begin(), v.end(), e);
        *it = v.back();
        v.pop_back();
        list_of[static_cast<size_t>(e)] = -1;
      }
      for (int64_t i = 0; i < 6; ++i) {
        const auto got = lists.list(i);
        ASSERT_EQ(std::vector<int64_t>(got.begin(), got.end()),
                  model[static_cast<size_t>(i)])
            << "seed " << seed << " op " << op;
      }
    }
  }
}

// PairIndex finds exactly the keys a std::map holds, across releases
// that shift probe runs back and ids that get reused; ids stay below
// the peak number of keys held at once.
TEST(PairwiseTest, PairIndexMatchesMapModel) {
  Rng rng(8);
  PairIndex index;
  std::map<uint64_t, int32_t> model;
  size_t peak = 0;
  for (int op = 0; op < 20000; ++op) {
    // Clustered keys collide on home slots and make long probe runs.
    const auto key = static_cast<uint64_t>(rng.UniformInt(0, 399)) << 32 |
                     static_cast<uint64_t>(rng.UniformInt(0, 3));
    if (model.count(key) == 0 && rng.UniformInt(0, 2) > 0) {
      const int32_t id = index.Intern(key);
      for (const auto& [k, other] : model) ASSERT_NE(id, other);
      model[key] = id;
    } else if (model.count(key) != 0) {
      index.Release(key);
      model.erase(key);
    } else {
      index.Release(key);  // not held: no-op
    }
    peak = std::max(peak, model.size());
    if (op % 50 != 0) continue;
    for (const auto& [k, id] : model) {
      ASSERT_EQ(index.Find(k), id) << "op " << op;
      ASSERT_TRUE(index.held(id));
      ASSERT_EQ(index.key(id), k);
    }
    ASSERT_EQ(index.Find(uint64_t{400} << 32), -1);
  }
  EXPECT_LE(static_cast<size_t>(index.bound()), peak);
}

// OrderedKeySet holds exactly the keys of a std::set, in order, across
// block splits and merges.
TEST(PairwiseTest, OrderedKeySetMatchesStdSet) {
  Rng rng(5);
  OrderedKeySet keys;
  std::set<uint64_t> model;
  for (int op = 0; op < 20000; ++op) {
    const auto k = static_cast<uint64_t>(rng.UniformInt(0, 1499));
    if (model.count(k) == 0) {
      keys.Insert(k);
      model.insert(k);
    } else {
      keys.Remove(k);
      model.erase(k);
    }
    if (op % 97 != 0) continue;
    ASSERT_EQ(keys.size(), model.size());
    std::vector<uint64_t> all;
    keys.ForEach([&](uint64_t x) { all.push_back(x); });
    ASSERT_EQ(all, std::vector<uint64_t>(model.begin(), model.end()));
    std::array<uint64_t, 28> front;
    const size_t got = keys.Front(front.size(), front.data());
    ASSERT_EQ(got, std::min<size_t>(28, model.size()));
    ASSERT_TRUE(std::equal(front.begin(), front.begin() + got, all.begin()));
  }
  // A bulk load (Bind's path) equals inserting the same keys one by
  // one, and stays equal under further edits.
  std::vector<uint64_t> sorted(model.begin(), model.end());
  std::vector<uint64_t> shuffled = sorted;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
  }
  OrderedKeySet loaded, inserted;
  loaded.Assign(sorted);
  for (const uint64_t k : shuffled) inserted.Insert(k);
  auto contents = [](const OrderedKeySet& set) {
    std::vector<uint64_t> all;
    set.ForEach([&](uint64_t x) { all.push_back(x); });
    return all;
  };
  ASSERT_EQ(contents(loaded), sorted);
  ASSERT_EQ(contents(inserted), sorted);
  for (int op = 0; op < 20000; ++op) {
    const auto k = static_cast<uint64_t>(rng.UniformInt(0, 1499));
    if (model.count(k) == 0) {
      loaded.Insert(k);
      inserted.Insert(k);
      model.insert(k);
    } else {
      loaded.Remove(k);
      inserted.Remove(k);
      model.erase(k);
    }
    if (op % 97 != 0) continue;
    ASSERT_EQ(loaded.size(), model.size());
    ASSERT_EQ(inserted.size(), model.size());
    const std::vector<uint64_t> all = contents(loaded);
    ASSERT_EQ(all, std::vector<uint64_t>(model.begin(), model.end()));
    ASSERT_EQ(contents(inserted), all);
    std::array<uint64_t, 28> a, b;
    const size_t got = loaded.Front(a.size(), a.data());
    ASSERT_EQ(inserted.Front(b.size(), b.data()), got);
    ASSERT_TRUE(std::equal(a.begin(), a.begin() + got, b.begin()));
  }
}

class PairwiseTweakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairwiseTweakTest, TweaksRandScaledDatasetToGroundTruth) {
  const uint64_t seed = GetParam();
  auto gen = GenerateDataset(DoubanMusicLike(0.3), seed).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(2).ValueOrAbort(),
                           gen.SnapshotSizes(4), seed)
                    .ValueOrAbort();

  PairwisePropertyTool tool(truth->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(scaled.get()).ok());
  ASSERT_TRUE(tool.CheckTargetFeasible().ok()) << tool.CheckTargetFeasible();

  const double before = tool.Error();
  EXPECT_GT(before, 1e-5);
  Rng rng(seed + 1);
  TweakContext ctx(scaled.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  const double after = tool.Error();
  EXPECT_LT(after, before / 10.0);
  EXPECT_LT(after, 1e-5);
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
  tool.Unbind();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairwiseTweakTest,
                         ::testing::Values(71u, 72u, 73u));

TEST(PairwiseTest, PostStealingGivesPostlessUsersAPost) {
  // Force a deficit pair whose target author has no posts: the tool
  // must steal or create a post (Theorem 5) without changing rho of
  // unrelated pairs.
  auto db = Fig11Db();
  auto truth = db->Clone();
  // Target: make u2 (who has no post) receive one response from u3.
  truth->FindTable("Post")->Append({Value(int64_t{2})}).status().Check();
  truth->FindTable("Resp")
      ->Append({Value(int64_t{3}), Value(int64_t{3})})
      .status()
      .Check();
  // Keep |Resp| equal between truth and db for P2: remove one of u1's
  // responses in the truth.
  truth->FindTable("Resp")->Delete(6).Check();

  PairwisePropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  ASSERT_TRUE(tool.CheckTargetFeasible().ok()) << tool.CheckTargetFeasible();
  Rng rng(3);
  TweakContext ctx(db.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_LT(tool.Error(), 1e-9);
  EXPECT_TRUE(CheckIntegrity(*db).ok());
  tool.Unbind();
}

TEST(PairwiseTest, RepairEstablishesFeasibility) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 81).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RexScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(2).ValueOrAbort(),
                           gen.SnapshotSizes(4), 81)
                    .ValueOrAbort();
  PairwisePropertyTool tool(truth->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(scaled.get()).ok());
  EXPECT_FALSE(tool.CheckTargetFeasible().ok());
  ASSERT_TRUE(tool.RepairTarget().ok());
  EXPECT_TRUE(tool.CheckTargetFeasible().ok()) << tool.CheckTargetFeasible();
  Rng rng(9);
  TweakContext ctx(scaled.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  EXPECT_LT(tool.Error(), 1e-5);
  tool.Unbind();
}

TEST(PairwiseTest, ValidationPenaltySigns) {
  auto db = Fig11Db();
  PairwisePropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  // Deleting a response breaks the enforced (2,4) pair: positive.
  EXPECT_GT(tool.ValidationPenalty(Modification::DeleteTuple("Resp", 0)),
            0.0);
  // Changing a user attribute: no penalty.
  EXPECT_DOUBLE_EQ(tool.ValidationPenalty(Modification::ReplaceValues(
                       "User", {0}, {0}, {Value(int64_t{1})})),
                   0.0);
  tool.Unbind();
}

}  // namespace
}  // namespace aspect
