// Dataset blueprints: declarative descriptions of the synthetic
// social-network datasets that stand in for the paper's proprietary
// Xiami and Douban crawls (see DESIGN.md, substitution table).
//
// Each blueprint describes table kinds, FK wiring, per-table base size
// and growth rate (growth is deliberately non-uniform across tables,
// as in the real datasets - Sec. VI-B), and popularity skew. The
// factories below reproduce the structural counts the paper reports:
//
//   dataset          tables  chains  coappear  pairwise   (paper)
//   XiamiLike          31      42       12        4       28/38/12/4
//   DoubanMovieLike    17      24        6        2       17/24/6/2
//   DoubanBookLike     12      16        4        2       12/15/4/2
//   DoubanMusicLike    11      15        4        1       11/14/4/1
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "relational/schema.h"

namespace aspect {

/// How a table's tuples are generated.
enum class TableKind : int {
  kRoot = 0,      // no FKs (User, Movie, Artist, ...)
  kEntity = 1,    // item referencing other items (Song -> Album)
  kPost = 2,      // user-generated content; first parent is the author
  kActivity = 3,  // user-item interaction (Listen_Song, Movie_Seen, ...)
  kResponse = 4,  // response2post; parents are (post table, user table)
};

/// Blueprint for one table.
struct TableBlueprint {
  std::string name;
  TableKind kind = TableKind::kRoot;
  /// Referenced tables, one FK column per entry, in column order.
  /// Must name tables that appear earlier in the blueprint.
  std::vector<std::string> parents;
  /// Live tuples at snapshot 1.
  int64_t base_size = 100;
  /// Multiplicative size growth per snapshot.
  double growth = 1.5;
  /// Zipf skew used when picking each parent tuple (0 = uniform).
  double parent_zipf = 0.8;
  /// Extra non-FK attribute columns appended after the FK columns.
  std::vector<ColumnSpec> attributes;
};

/// Blueprint for a whole dataset.
struct DatasetBlueprint {
  std::string name;
  std::string user_table;
  std::vector<TableBlueprint> tables;
  int num_snapshots = 6;
  /// Probability that a response is a self-response (responder equals
  /// the post author), exercising the rho_S extension of Sec. X-C3.
  double self_response_rate = 0.02;

  /// Builds the relational Schema (with sonSchema annotations) that
  /// this blueprint generates.
  Schema ToSchema() const;
};

/// Music social network modelled on Xiami (Fig. 24): 30 tables,
/// Song -> Album -> Artist hierarchy, 4 response2post tables.
/// `scale` multiplies every base size.
DatasetBlueprint XiamiLike(double scale = 1.0);

/// Movie social network modelled on DoubanMovie (Fig. 23): 17 tables.
DatasetBlueprint DoubanMovieLike(double scale = 1.0);

/// Book social network modelled on DoubanBook (Fig. 22): 12 tables.
DatasetBlueprint DoubanBookLike(double scale = 1.0);

/// Music social network modelled on DoubanMusic (Fig. 21): 11 tables.
DatasetBlueprint DoubanMusicLike(double scale = 1.0);

}  // namespace aspect
