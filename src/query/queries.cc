#include "query/queries.h"

#include <cmath>

#include "common/string_util.h"
#include "query/engine.h"

namespace aspect {
namespace {

const ResponseSpec* FindSpec(const Schema& schema,
                             const std::string& response_table) {
  for (const ResponseSpec& r : schema.responses) {
    if (r.response_table == response_table) return &r;
  }
  return nullptr;
}

/// COUNT(DISTINCT grandparent): child -> parent -> grandparent, where
/// the child table marks "parents with at least one child".
Result<double> CountGrandparentsWithRespondedChild(
    const Database& db, const std::string& child,
    const std::string& child_fk, const std::string& parent,
    const std::string& parent_fk) {
  const Table* c = db.FindTable(child);
  const Table* p = db.FindTable(parent);
  if (c == nullptr || p == nullptr) {
    return Status::KeyError("missing table for grandparent query");
  }
  const int cfk = c->ColumnIndex(child_fk);
  const int pfk = p->ColumnIndex(parent_fk);
  if (cfk < 0 || pfk < 0) {
    return Status::KeyError("missing column for grandparent query");
  }
  const std::vector<uint8_t> parents = ReferencedSlots(*c, cfk, p->NumSlots());
  std::vector<int64_t> grandparents;
  for (TupleId pid = 0; pid < static_cast<TupleId>(parents.size()); ++pid) {
    if (parents[static_cast<size_t>(pid)] && p->IsLive(pid) &&
        p->column(pfk).IsValue(pid)) {
      grandparents.push_back(p->column(pfk).GetInt(pid));
    }
  }
  SortUnique(&grandparents);
  return static_cast<double>(grandparents.size());
}

NamedQuery UsersWithRespondedPost(const Schema& schema,
                                  const std::string& response_table,
                                  const std::string& label) {
  const ResponseSpec* spec = FindSpec(schema, response_table);
  NamedQuery q;
  q.name = "Q1";
  q.description = label;
  q.eval = [spec](const Database& db) -> Result<double> {
    if (spec == nullptr) return Status::KeyError("no response spec");
    ASPECT_ASSIGN_OR_RETURN(int64_t n, CountUsersWithRespondedPost(db, *spec));
    return static_cast<double>(n);
  };
  return q;
}

NamedQuery AtMostKUsers(const std::string& activity,
                        const std::string& entity_col,
                        const std::string& user_col,
                        const std::string& label) {
  NamedQuery q;
  q.name = "Q2";
  q.description = label;
  q.eval = [=](const Database& db) -> Result<double> {
    ASPECT_ASSIGN_OR_RETURN(
        int64_t n,
        CountEntitiesWithAtMostKUsers(db, activity, entity_col, user_col, 10));
    return static_cast<double>(n);
  };
  return q;
}

NamedQuery AvgUsers(const std::string& entity_table,
                    const std::string& activity,
                    const std::string& entity_col,
                    const std::string& user_col,
                    const std::string& label) {
  NamedQuery q;
  q.name = "Q3";
  q.description = label;
  q.eval = [=](const Database& db) -> Result<double> {
    return AvgDistinctUsersPerEntity(db, entity_table, activity, entity_col,
                                     user_col);
  };
  return q;
}

NamedQuery InteractingPairs(const Schema& schema,
                            const std::string& response_table,
                            const std::string& label) {
  const ResponseSpec* spec = FindSpec(schema, response_table);
  NamedQuery q;
  q.name = "Q4";
  q.description = label;
  q.eval = [spec](const Database& db) -> Result<double> {
    if (spec == nullptr) return Status::KeyError("no response spec");
    ASPECT_ASSIGN_OR_RETURN(int64_t n, CountInteractingUserPairs(db, *spec));
    return static_cast<double>(n);
  };
  return q;
}

}  // namespace

Result<std::vector<NamedQuery>> QuerySuiteFor(const Schema& schema) {
  std::vector<NamedQuery> out;
  if (schema.name == "XiamiLike") {
    out.push_back(UsersWithRespondedPost(
        schema, "Photo_Comment", "users who uploaded a photo with commenters"));
    out.push_back(AtMostKUsers("MV_Comment", "fk_MV_0", "fk_User_1",
                               "MVs commented on by at most 10 users"));
    out.push_back(AvgUsers("Song", "Listen_Song", "fk_Song_0", "fk_User_1",
                           "average listeners per song"));
    out.push_back(InteractingPairs(
        schema, "Space_Comment", "user pairs interacting via profile page"));
    return out;
  }
  if (schema.name == "DoubanMovieLike") {
    NamedQuery q1;
    q1.name = "Q1";
    q1.description = "movies with video clips that have commenters";
    q1.eval = [](const Database& db) {
      return CountGrandparentsWithRespondedChild(
          db, "Trailer_Comment", "fk_Trailer_0", "Trailer", "fk_Movie_0");
    };
    out.push_back(std::move(q1));
    out.push_back(AtMostKUsers("Movie_Comment", "fk_Movie_0", "fk_User_1",
                               "movies commented on by at most 10 users"));
    out.push_back(AvgUsers("Movie", "Movie_Actor", "fk_Movie_1", "fk_Star_0",
                           "average stars per movie"));
    out.push_back(InteractingPairs(schema, "Review_Comment",
                                   "user pairs interacting via reviews"));
    return out;
  }
  if (schema.name == "DoubanMusicLike") {
    out.push_back(UsersWithRespondedPost(
        schema, "Review_Comment", "users with a review that has commenters"));
    out.push_back(AtMostKUsers("Artist_Fan", "fk_Artist_0", "fk_User_1",
                               "artists with at most 10 fans"));
    out.push_back(AvgUsers("Album", "Album_Wish", "fk_Album_0", "fk_User_1",
                           "average interested listeners per album"));
    out.push_back(InteractingPairs(schema, "Review_Comment",
                                   "user pairs interacting via reviews"));
    return out;
  }
  if (schema.name == "DoubanBookLike") {
    out.push_back(UsersWithRespondedPost(
        schema, "Review_Comment", "users with a book review that has "
                                  "commenters"));
    out.push_back(AtMostKUsers("Diary_Comment", "fk_Diary_0", "fk_User_1",
                               "diaries with at most 10 commenters"));
    out.push_back(AtMostKUsers("User_Fan", "fk_User_1", "fk_User_0",
                               "users with at most 10 fans"));
    out.back().name = "Q3";
    out.back().description = "users with at most 10 fans";
    out.push_back(InteractingPairs(schema, "Review_Comment",
                                   "user pairs interacting via reviews"));
    return out;
  }
  if (schema.name == "RetailLike") {
    NamedQuery q1;
    q1.name = "Q1";
    q1.description = "customers with an order that has lineitems";
    q1.eval = [](const Database& db) {
      return CountGrandparentsWithRespondedChild(
          db, "Lineitem", "fk_Orders_0", "Orders", "fk_Customer_0");
    };
    out.push_back(std::move(q1));
    out.push_back(AtMostKUsers("Lineitem", "fk_Orders_0", "fk_Part_1",
                               "orders with at most 10 distinct parts"));
    out.push_back(AvgUsers("Part", "Lineitem", "fk_Part_1", "fk_Orders_0",
                           "average distinct orders per part"));
    out.push_back(AtMostKUsers("PartSupp", "fk_Part_0", "fk_Supplier_1",
                               "parts with at most 10 suppliers"));
    out.back().name = "Q4";
    return out;
  }
  return Status::Invalid(
      StrFormat("no query suite for schema '%s'", schema.name.c_str()));
}

Result<double> QueryError(const NamedQuery& q, const Database& truth,
                          const Database& scaled) {
  ASPECT_ASSIGN_OR_RETURN(const double qt, q.eval(truth));
  ASPECT_ASSIGN_OR_RETURN(const double qs, q.eval(scaled));
  if (qt == 0.0) return std::fabs(qs - qt);
  return std::fabs(qs - qt) / std::fabs(qt);
}

}  // namespace aspect
