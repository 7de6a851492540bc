#include "query/engine.h"

#include <algorithm>

#include "common/string_util.h"

namespace aspect {
namespace {

struct ColRef {
  const Table* table;
  int col;
};

Result<ColRef> Resolve(const Database& db, const std::string& table,
                       const std::string& col) {
  const Table* t = db.FindTable(table);
  if (t == nullptr) {
    return Status::KeyError(StrFormat("no table '%s'", table.c_str()));
  }
  const int c = t->ColumnIndex(col);
  if (c < 0) {
    return Status::KeyError(
        StrFormat("no column '%s.%s'", table.c_str(), col.c_str()));
  }
  return ColRef{t, c};
}

}  // namespace

Result<std::map<TupleId, int64_t>> DistinctPerGroup(
    const Database& db, const std::string& table,
    const std::string& group_col, const std::string& distinct_col) {
  ASPECT_ASSIGN_OR_RETURN(ColRef group, Resolve(db, table, group_col));
  ASPECT_ASSIGN_OR_RETURN(ColRef dist, Resolve(db, table, distinct_col));
  std::map<TupleId, std::set<int64_t>> sets;
  group.table->ForEachLive([&](TupleId t) {
    if (group.table->column(group.col).IsValue(t) &&
        dist.table->column(dist.col).IsValue(t)) {
      sets[group.table->column(group.col).GetInt(t)].insert(
          dist.table->column(dist.col).GetInt(t));
    }
  });
  std::map<TupleId, int64_t> out;
  for (const auto& [g, s] : sets) out[g] = static_cast<int64_t>(s.size());
  return out;
}

Result<int64_t> CountUsersWithRespondedPost(const Database& db,
                                            const ResponseSpec& spec) {
  const Table* resp = db.FindTable(spec.response_table);
  const Table* post = db.FindTable(spec.post_table);
  if (resp == nullptr || post == nullptr) {
    return Status::KeyError("response/post table missing");
  }
  std::set<TupleId> responded_posts;
  resp->ForEachLive([&](TupleId t) {
    if (resp->column(spec.post_col).IsValue(t)) {
      responded_posts.insert(resp->column(spec.post_col).GetInt(t));
    }
  });
  std::set<TupleId> users;
  for (const TupleId p : responded_posts) {
    if (post->IsLive(p) && post->column(spec.author_col).IsValue(p)) {
      users.insert(post->column(spec.author_col).GetInt(p));
    }
  }
  return static_cast<int64_t>(users.size());
}

Result<int64_t> CountEntitiesWithAtMostKUsers(const Database& db,
                                              const std::string& activity,
                                              const std::string& entity_col,
                                              const std::string& user_col,
                                              int64_t k) {
  auto counts_res = DistinctPerGroup(db, activity, entity_col, user_col);
  if (!counts_res.ok()) return counts_res.status();
  const auto& counts = counts_res.ValueOrDie();
  int64_t n = 0;
  for (const auto& [entity, distinct_users] : counts) {
    if (distinct_users >= 1 && distinct_users <= k) ++n;
  }
  return n;
}

Result<double> AvgDistinctUsersPerEntity(const Database& db,
                                         const std::string& entity_table,
                                         const std::string& activity,
                                         const std::string& entity_col,
                                         const std::string& user_col) {
  const Table* entities = db.FindTable(entity_table);
  if (entities == nullptr) {
    return Status::KeyError("no table " + entity_table);
  }
  auto counts_res = DistinctPerGroup(db, activity, entity_col, user_col);
  if (!counts_res.ok()) return counts_res.status();
  const auto& counts = counts_res.ValueOrDie();
  if (entities->NumTuples() == 0) return 0.0;
  double total = 0;
  for (const auto& [entity, distinct_users] : counts) {
    total += static_cast<double>(distinct_users);
  }
  return total / static_cast<double>(entities->NumTuples());
}

Result<int64_t> CountInteractingUserPairs(const Database& db,
                                          const ResponseSpec& spec) {
  const Table* resp = db.FindTable(spec.response_table);
  const Table* post = db.FindTable(spec.post_table);
  if (resp == nullptr || post == nullptr) {
    return Status::KeyError("response/post table missing");
  }
  std::set<std::pair<TupleId, TupleId>> pairs;
  resp->ForEachLive([&](TupleId t) {
    if (!resp->column(spec.responder_col).IsValue(t) ||
        !resp->column(spec.post_col).IsValue(t)) {
      return;
    }
    const TupleId u = resp->column(spec.responder_col).GetInt(t);
    const TupleId p = resp->column(spec.post_col).GetInt(t);
    if (!post->IsLive(p) || !post->column(spec.author_col).IsValue(p)) {
      return;
    }
    const TupleId v = post->column(spec.author_col).GetInt(p);
    if (u == v) return;
    pairs.insert({std::min(u, v), std::max(u, v)});
  });
  return static_cast<int64_t>(pairs.size());
}

}  // namespace aspect
