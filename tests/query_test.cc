// Tests for the query engine and the per-dataset Q1-Q4 suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "query/engine.h"
#include "query/queries.h"
#include "workload/generator.h"

namespace aspect {
namespace {

// Tiny hand-checked dataset: User, Post(author), Comment(post, user).
Schema QSchema() {
  Schema s;
  s.name = "q";
  s.tables.push_back({"User", {{"g", ColumnType::kInt64, ""}}});
  s.tables.push_back({"Post", {{"author", ColumnType::kForeignKey, "User"}}});
  s.tables.push_back({"Comment",
                      {{"post", ColumnType::kForeignKey, "Post"},
                       {"user", ColumnType::kForeignKey, "User"}}});
  s.user_table = "User";
  ResponseSpec r;
  r.response_table = "Comment";
  r.post_col = 0;
  r.responder_col = 1;
  r.post_table = "Post";
  r.author_col = 0;
  s.responses.push_back(r);
  return s;
}

std::unique_ptr<Database> QDb() {
  auto db = Database::Create(QSchema()).ValueOrAbort();
  for (int i = 0; i < 5; ++i) {
    db->FindTable("User")->Append({Value(int64_t{0})}).status().Check();
  }
  // Posts: p0 by u0, p1 by u0, p2 by u1, p3 by u2.
  for (const int64_t a : {0, 0, 1, 2}) {
    db->FindTable("Post")->Append({Value(a)}).status().Check();
  }
  // Comments: (p0,u1), (p0,u2), (p2,u0), (p2,u0), (p3,u3).
  const std::pair<int64_t, int64_t> comments[] = {
      {0, 1}, {0, 2}, {2, 0}, {2, 0}, {3, 3}};
  for (const auto& [p, u] : comments) {
    db->FindTable("Comment")->Append({Value(p), Value(u)}).status().Check();
  }
  return db;
}

TEST(EngineTest, DistinctPerGroup) {
  auto db = QDb();
  const auto d =
      DistinctPerGroup(*db, "Comment", "post", "user").ValueOrAbort();
  const std::vector<std::pair<TupleId, int64_t>> want = {
      {0, 2},  // p0 commented by u1, u2
      {2, 1},  // p2 commented by u0 twice
      {3, 1}};
  EXPECT_EQ(d, want);
}

TEST(EngineTest, UsersWithRespondedPost) {
  auto db = QDb();
  // Authors of commented posts: u0 (p0), u1 (p2), u2 (p3) -> 3.
  EXPECT_EQ(CountUsersWithRespondedPost(*db, db->schema().responses[0])
                .ValueOrAbort(),
            3);
}

TEST(EngineTest, AtMostKUsers) {
  auto db = QDb();
  EXPECT_EQ(CountEntitiesWithAtMostKUsers(*db, "Comment", "post", "user", 1)
                .ValueOrAbort(),
            2);  // p2, p3
  EXPECT_EQ(CountEntitiesWithAtMostKUsers(*db, "Comment", "post", "user", 10)
                .ValueOrAbort(),
            3);
}

TEST(EngineTest, AvgDistinctUsersPerEntity) {
  auto db = QDb();
  // Distinct commenters: p0:2, p1:0, p2:1, p3:1 -> 4/4 = 1.0.
  EXPECT_DOUBLE_EQ(
      AvgDistinctUsersPerEntity(*db, "Post", "Comment", "post", "user")
          .ValueOrAbort(),
      1.0);
}

TEST(EngineTest, InteractingUserPairs) {
  auto db = QDb();
  // Pairs: {u1,u0} (p0 author u0), {u2,u0}, {u0,u1} (p2) = same as
  // {u0,u1}!, {u3,u2}. Unordered distinct: {0,1}, {0,2}, {2,3} -> 3.
  EXPECT_EQ(
      CountInteractingUserPairs(*db, db->schema().responses[0])
          .ValueOrAbort(),
      3);
}

// Brute-force oracle for the Q1-Q4 families: each query restated as
// nested loops over live tuples, with its tables and columns named
// here rather than taken from queries.cc.
class Oracle {
 public:
  explicit Oracle(const Database& db) : db_(db) {}

  // Live grandparents with a live parent that a live child refers to
  // (Q1: users with a responded post, movies with a commented trailer).
  double Grandparents(const std::string& child, const std::string& child_fk,
                      const std::string& parent, const std::string& parent_fk,
                      const std::string& grandparent) const {
    const Table& c = T(child);
    const Table& p = T(parent);
    int64_t n = 0;
    T(grandparent).ForEachLive([&](TupleId g) {
      n += Any(p, [&](TupleId pt) {
        return Refers(p, parent_fk, pt, g) &&
               Any(c, [&](TupleId ct) { return Refers(c, child_fk, ct, pt); });
      });
    });
    return static_cast<double>(n);
  }

  // Live entities that 1 to 10 distinct users reach through `activity`
  // (Q2), or their average distinct-user count (Q3).
  double AtMostTenUsers(const std::string& entity, const std::string& activity,
                        const std::string& entity_col,
                        const std::string& user_col) const {
    const std::vector<size_t> users =
        UsersPerEntity(entity, activity, entity_col, user_col);
    return static_cast<double>(std::count_if(
        users.begin(), users.end(),
        [](size_t n) { return n >= 1 && n <= 10; }));
  }
  double AvgUsers(const std::string& entity, const std::string& activity,
                  const std::string& entity_col,
                  const std::string& user_col) const {
    const std::vector<size_t> users =
        UsersPerEntity(entity, activity, entity_col, user_col);
    double total = 0;
    for (const size_t n : users) total += static_cast<double>(n);
    return users.empty() ? 0.0 : total / static_cast<double>(users.size());
  }

  // Unordered pairs {responder, author}, responder != author, of a
  // live response to a live post (Q4).
  double InteractingPairs(const std::string& response,
                          const std::string& response_post,
                          const std::string& responder,
                          const std::string& post,
                          const std::string& author) const {
    const Table& r = T(response);
    const Table& p = T(post);
    const Column& ru = r.column(r.ColumnIndex(responder));
    const Column& pa = p.column(p.ColumnIndex(author));
    std::set<std::pair<int64_t, int64_t>> pairs;
    r.ForEachLive([&](TupleId rt) {
      p.ForEachLive([&](TupleId pt) {
        if (!Refers(r, response_post, rt, pt) || !ru.IsValue(rt) ||
            !pa.IsValue(pt)) {
          return;
        }
        const int64_t u = ru.GetInt(rt);
        const int64_t v = pa.GetInt(pt);
        if (u != v) pairs.insert({std::min(u, v), std::max(u, v)});
      });
    });
    return static_cast<double>(pairs.size());
  }

 private:
  const Table& T(const std::string& name) const {
    return *db_.FindTable(name);
  }

  static bool Refers(const Table& t, const std::string& fk, TupleId row,
                     TupleId target) {
    const Column& c = t.column(t.ColumnIndex(fk));
    return c.IsValue(row) && c.GetInt(row) == target;
  }

  static bool Any(const Table& t, const std::function<bool(TupleId)>& pred) {
    bool found = false;
    t.ForEachLive([&](TupleId row) { found = found || pred(row); });
    return found;
  }

  // Distinct users per live entity, in entity order.
  std::vector<size_t> UsersPerEntity(const std::string& entity,
                                     const std::string& activity,
                                     const std::string& entity_col,
                                     const std::string& user_col) const {
    const Table& a = T(activity);
    const Column& u = a.column(a.ColumnIndex(user_col));
    std::vector<size_t> out;
    T(entity).ForEachLive([&](TupleId e) {
      std::set<int64_t> users;
      a.ForEachLive([&](TupleId t) {
        if (Refers(a, entity_col, t, e) && u.IsValue(t)) {
          users.insert(u.GetInt(t));
        }
      });
      out.push_back(users.size());
    });
    return out;
  }

  const Database& db_;
};

using OracleQuery = std::function<double(const Oracle&)>;
using std::placeholders::_1;

// What each served schema's Q1-Q4 mean, in the oracle's terms.
std::map<std::string, std::vector<OracleQuery>> OracleSuites() {
  const OracleQuery review_authors =
      std::bind(&Oracle::Grandparents, _1, "Review_Comment", "fk_Review_0",
                "Review", "fk_User_0", "User");
  const OracleQuery review_pairs =
      std::bind(&Oracle::InteractingPairs, _1, "Review_Comment",
                "fk_Review_0", "fk_User_1", "Review", "fk_User_0");
  return {
      {"XiamiLike",
       {std::bind(&Oracle::Grandparents, _1, "Photo_Comment", "fk_Photo_0",
                  "Photo", "fk_User_0", "User"),
        std::bind(&Oracle::AtMostTenUsers, _1, "MV", "MV_Comment", "fk_MV_0",
                  "fk_User_1"),
        std::bind(&Oracle::AvgUsers, _1, "Song", "Listen_Song", "fk_Song_0",
                  "fk_User_1"),
        std::bind(&Oracle::InteractingPairs, _1, "Space_Comment",
                  "fk_Space_0", "fk_User_1", "Space", "fk_User_0")}},
      {"DoubanMovieLike",
       {std::bind(&Oracle::Grandparents, _1, "Trailer_Comment",
                  "fk_Trailer_0", "Trailer", "fk_Movie_0", "Movie"),
        std::bind(&Oracle::AtMostTenUsers, _1, "Movie", "Movie_Comment",
                  "fk_Movie_0", "fk_User_1"),
        std::bind(&Oracle::AvgUsers, _1, "Movie", "Movie_Actor", "fk_Movie_1",
                  "fk_Star_0"),
        review_pairs}},
      {"DoubanMusicLike",
       {review_authors,
        std::bind(&Oracle::AtMostTenUsers, _1, "Artist", "Artist_Fan",
                  "fk_Artist_0", "fk_User_1"),
        std::bind(&Oracle::AvgUsers, _1, "Album", "Album_Wish", "fk_Album_0",
                  "fk_User_1"),
        review_pairs}},
      {"DoubanBookLike",
       {review_authors,
        std::bind(&Oracle::AtMostTenUsers, _1, "Diary", "Diary_Comment",
                  "fk_Diary_0", "fk_User_1"),
        std::bind(&Oracle::AtMostTenUsers, _1, "User", "User_Fan",
                  "fk_User_1", "fk_User_0"),
        review_pairs}},
      {"RetailLike",
       {std::bind(&Oracle::Grandparents, _1, "Lineitem", "fk_Orders_0",
                  "Orders", "fk_Customer_0", "Customer"),
        std::bind(&Oracle::AtMostTenUsers, _1, "Orders", "Lineitem",
                  "fk_Orders_0", "fk_Part_1"),
        std::bind(&Oracle::AvgUsers, _1, "Part", "Lineitem", "fk_Part_1",
                  "fk_Orders_0"),
        std::bind(&Oracle::AtMostTenUsers, _1, "Part", "PartSupp",
                  "fk_Part_0", "fk_Supplier_1")}}};
}

// Deletes every 13th live row of each table together with every row
// that refers to a deleted one, so the data stays FK-closed, then
// empties the leading FK cell of every 11th remaining row: the queries
// meet tombstones and missing values.
void Perturb(Database* db) {
  const std::vector<TableSpec>& tables = db->schema().tables;
  std::map<std::string, std::set<TupleId>> doomed;
  for (const TableSpec& spec : tables) {
    const std::vector<TupleId> live = db->FindTable(spec.name)->LiveTuples();
    for (size_t i = 3; i < live.size(); i += 13) {
      doomed[spec.name].insert(live[i]);
    }
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (const TableSpec& spec : tables) {
      const Table& t = *db->FindTable(spec.name);
      for (int c = 0; c < t.num_columns(); ++c) {
        if (!t.column(c).is_foreign_key()) continue;
        const std::set<TupleId>& gone = doomed[t.column(c).ref_table()];
        t.ForEachLive([&](TupleId r) {
          if (t.column(c).IsValue(r) && gone.count(t.column(c).GetInt(r))) {
            grew |= doomed[spec.name].insert(r).second;
          }
        });
      }
    }
  }
  // Children first: blueprints list a table after the ones it refers to.
  for (auto spec = tables.rbegin(); spec != tables.rend(); ++spec) {
    for (const TupleId r : doomed[spec->name]) {
      db->Apply(Modification::DeleteTuple(spec->name, r)).Check();
    }
  }
  for (const TableSpec& spec : tables) {
    const Table& t = *db->FindTable(spec.name);
    if (t.num_columns() == 0 || !t.column(0).is_foreign_key()) continue;
    const std::vector<TupleId> live = t.LiveTuples();
    for (size_t i = 5; i < live.size(); i += 11) {
      db->Apply(Modification::DeleteValues(spec.name, {live[i]}, {0}))
          .Check();
    }
  }
}

TEST(QuerySuiteTest, MatchesBruteForceOracle) {
  const auto suites = OracleSuites();
  for (const auto factory :
       {&XiamiLike, &DoubanMovieLike, &DoubanMusicLike, &DoubanBookLike,
        &RetailLike}) {
    auto gen = GenerateDataset(factory(0.5), 29).ValueOrAbort();
    for (const bool perturbed : {false, true}) {
      auto db = gen.Materialize(4).ValueOrAbort();
      if (perturbed) Perturb(db.get());
      const std::string& name = db->schema().name;
      const auto suite = QuerySuiteFor(db->schema()).ValueOrAbort();
      const std::vector<OracleQuery>& expected = suites.at(name);
      ASSERT_EQ(suite.size(), expected.size()) << name;
      const Oracle oracle(*db);
      for (size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name, "Q" + std::to_string(i + 1)) << name;
        const double want = expected[i](oracle);
        EXPECT_GT(want, 0.0) << name << " " << suite[i].name;
        EXPECT_EQ(suite[i].eval(*db).ValueOrAbort(), want)
            << name << " " << suite[i].name << " perturbed=" << perturbed;
      }
    }
  }
}

TEST(QuerySuiteTest, AllDatasetsHaveFourQueries) {
  for (const auto factory :
       {&XiamiLike, &DoubanMovieLike, &DoubanMusicLike, &DoubanBookLike,
        &RetailLike}) {
    const Schema schema = factory(0.3).ToSchema();
    const auto suite = QuerySuiteFor(schema).ValueOrAbort();
    ASSERT_EQ(suite.size(), 4u) << schema.name;
    auto gen = GenerateDataset(factory(0.3), 17).ValueOrAbort();
    auto db = gen.Materialize(2).ValueOrAbort();
    for (const NamedQuery& q : suite) {
      const auto v = q.eval(*db);
      ASSERT_TRUE(v.ok()) << schema.name << " " << q.name << ": "
                          << v.status();
      EXPECT_GE(v.ValueOrDie(), 0.0) << schema.name << " " << q.name;
    }
  }
}

TEST(QuerySuiteTest, UnknownSchemaRejected) {
  Schema s;
  s.name = "mystery";
  EXPECT_FALSE(QuerySuiteFor(s).ok());
}

TEST(QuerySuiteTest, QueryErrorRelative) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 23).ValueOrAbort();
  auto d2 = gen.Materialize(2).ValueOrAbort();
  auto d4 = gen.Materialize(4).ValueOrAbort();
  const auto suite = QuerySuiteFor(gen.schema()).ValueOrAbort();
  for (const NamedQuery& q : suite) {
    // Identical datasets: zero error.
    EXPECT_DOUBLE_EQ(QueryError(q, *d4, *d4).ValueOrAbort(), 0.0) << q.name;
    // Different snapshots: non-trivial error for counting queries.
    EXPECT_GE(QueryError(q, *d4, *d2).ValueOrAbort(), 0.0) << q.name;
  }
}

}  // namespace
}  // namespace aspect
