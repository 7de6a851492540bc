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

std::vector<uint8_t> ReferencedSlots(const Table& child, int fk_col,
                                     int64_t slots) {
  std::vector<uint8_t> marked(static_cast<size_t>(slots), 0);
  const Column& fk = child.column(fk_col);
  child.ForEachLive([&](TupleId t) {
    if (!fk.IsValue(t)) return;
    const int64_t v = fk.GetInt(t);
    if (v >= 0 && v < slots) marked[static_cast<size_t>(v)] = 1;
  });
  return marked;
}

Result<std::vector<std::pair<TupleId, int64_t>>> DistinctPerGroup(
    const Database& db, const std::string& table,
    const std::string& group_col, const std::string& distinct_col) {
  ASPECT_ASSIGN_OR_RETURN(ColRef group, Resolve(db, table, group_col));
  ASPECT_ASSIGN_OR_RETURN(ColRef dist, Resolve(db, table, distinct_col));
  const Column& g = group.table->column(group.col);
  const Column& d = dist.table->column(dist.col);
  std::vector<std::pair<int64_t, int64_t>> rows;
  rows.reserve(static_cast<size_t>(group.table->NumTuples()));
  group.table->ForEachLive([&](TupleId t) {
    if (g.IsValue(t) && d.IsValue(t)) {
      rows.emplace_back(g.GetInt(t), d.GetInt(t));
    }
  });
  SortUnique(&rows);
  std::vector<std::pair<TupleId, int64_t>> out;
  for (const auto& [grp, value] : rows) {
    if (out.empty() || out.back().first != grp) out.emplace_back(grp, 0);
    ++out.back().second;
  }
  return out;
}

Result<int64_t> CountUsersWithRespondedPost(const Database& db,
                                            const ResponseSpec& spec) {
  const Table* resp = db.FindTable(spec.response_table);
  const Table* post = db.FindTable(spec.post_table);
  if (resp == nullptr || post == nullptr) {
    return Status::KeyError("response/post table missing");
  }
  const std::vector<uint8_t> responded =
      ReferencedSlots(*resp, spec.post_col, post->NumSlots());
  std::vector<int64_t> users;
  for (TupleId p = 0; p < static_cast<TupleId>(responded.size()); ++p) {
    if (responded[static_cast<size_t>(p)] && post->IsLive(p) &&
        post->column(spec.author_col).IsValue(p)) {
      users.push_back(post->column(spec.author_col).GetInt(p));
    }
  }
  SortUnique(&users);
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
  std::vector<std::pair<TupleId, TupleId>> pairs;
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
    pairs.emplace_back(std::min(u, v), std::max(u, v));
  });
  SortUnique(&pairs);
  return static_cast<int64_t>(pairs.size());
}

}  // namespace aspect
