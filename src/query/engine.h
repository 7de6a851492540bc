// Minimal aggregate query engine over the relational layer: the
// primitives needed by the paper's query-similarity experiments
// (Sec. VII-B): hash-join style traversals, COUNT(DISTINCT ...),
// group-by-having and averages over FK fan-outs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/database.h"

namespace aspect {

/// Sorts `v` and drops repeated elements.
template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// marked[s] = 1 for each slot s in [0, slots) that the FK column
/// `fk_col` of some live row of `child` holds.
std::vector<uint8_t> ReferencedSlots(const Table& child, int fk_col,
                                     int64_t slots);

/// Per-parent distinct-secondary counts: for each value of `group_col`
/// (ascending) the number of distinct values of `distinct_col` among
/// its tuples.
Result<std::vector<std::pair<TupleId, int64_t>>> DistinctPerGroup(
    const Database& db, const std::string& table,
    const std::string& group_col, const std::string& distinct_col);

/// COUNT of users who authored at least one post that received at
/// least one response (the Q1 family: "users who uploaded a photo with
/// commenters").
Result<int64_t> CountUsersWithRespondedPost(const Database& db,
                                            const ResponseSpec& spec);

/// COUNT of entities referenced by [1, k] distinct users through an
/// activity table (the Q2 family: "MVs commented on by at most 10
/// different users").
Result<int64_t> CountEntitiesWithAtMostKUsers(const Database& db,
                                              const std::string& activity,
                                              const std::string& entity_col,
                                              const std::string& user_col,
                                              int64_t k);

/// AVG over all entities of the number of distinct users interacting
/// with them (the Q3 family: "average number of listeners per song").
/// Entities without interactions count as zero.
Result<double> AvgDistinctUsersPerEntity(const Database& db,
                                         const std::string& entity_table,
                                         const std::string& activity,
                                         const std::string& entity_col,
                                         const std::string& user_col);

/// COUNT of unordered user pairs {u, v}, u != v, interacting through a
/// response2post table (the Q4 family).
Result<int64_t> CountInteractingUserPairs(const Database& db,
                                          const ResponseSpec& spec);

}  // namespace aspect
