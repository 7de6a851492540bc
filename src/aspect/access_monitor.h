// AccessMonitor: records which cells each tool modified, implementing
// observation O2 of the paper - because every tweak flows through the
// uniform API, ASPECT knows when two tools touched the same tuples and
// can build the tool-overlap graph.
#pragma once

#include <cstdint>
#include <vector>

#include "aspect/access_scope.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "relational/database.h"

namespace aspect {

/// Thread-safe: every method locks mu_, so a monitor may be shared
/// between the coordinating thread and task threads (the parallel pass
/// today keeps one private monitor per task and merges after the pool
/// barrier, but the ROADMAP's shared-database design records into one
/// monitor concurrently). The guard contracts are enforced at compile
/// time by Clang's -Wthread-safety analysis.
class AccessMonitor {
 public:
  AccessMonitor(int num_tools, const Schema& schema);

  int num_tools() const { return num_tools_; }

  /// Records the cells written by `mod` on behalf of tool `tool_id`;
  /// `inserted` is the id a kInsertTuple produced. Writes outside the
  /// schema's tables and columns are ignored.
  void Record(int tool_id, const Modification& mod,
              TupleId inserted = kInvalidTuple) ASPECT_EXCLUDES(mu_);

  /// Unions another monitor's records into this one (same shape) and
  /// leaves `other` empty. The parallel pass records each task into a
  /// private monitor and merges the successful ones, so a discarded
  /// attempt leaves no phantom cells behind.
  void MergeFrom(AccessMonitor&& other) ASPECT_EXCLUDES(mu_);

  /// True if the two tools wrote at least one common cell. Row
  /// insert/delete counts as touching every column of that tuple.
  bool Overlaps(int a, int b) const ASPECT_EXCLUDES(mu_);

  /// Number of distinct cells tool `tool_id` wrote; a row insert or
  /// delete counts every column of its table.
  int64_t CellsTouched(int tool_id) const ASPECT_EXCLUDES(mu_);

  /// Adjacency matrix of the overlap graph (see overlap.h).
  std::vector<std::vector<bool>> OverlapGraph() const ASPECT_EXCLUDES(mu_);

  /// The coarse (table, column) scope tool `tool_id` was observed to
  /// write (O2's empirical answer to "what does this tool access?").
  /// Row inserts/deletes coarsen to (table, kWholeTable). The monitor
  /// only sees modifications, so the scope's read set is just a copy
  /// of the writes and is marked incomplete (reads_complete == false):
  /// read-side checks must not treat it as the tool's full read set.
  /// Unknown (scope.known == false) until the tool records something.
  AccessScope ObservedScope(int tool_id) const ASPECT_EXCLUDES(mu_);

 private:
  /// The tuple slots one tool wrote in one column, or as whole rows:
  /// bit t is tuple id t. `written` is set by any record naming the
  /// column, even one with no tuples, and feeds ObservedScope.
  struct Slots {
    bool written = false;
    std::vector<uint64_t> words;
    void Mark(TupleId t);
    bool Meets(const Slots& other) const;
    uint64_t Word(size_t w) const { return w < words.size() ? words[w] : 0; }
  };
  /// One tool's writes to one table, indexed by column + 1: index 0
  /// (column kWholeTable) holds row inserts and deletes.
  using TableWrites = std::vector<Slots>;
  using ToolWrites = std::vector<TableWrites>;  // one per schema table

  bool OverlapsLocked(int a, int b) const ASPECT_REQUIRES(mu_);

  const int num_tools_;
  const Schema schema_;
  mutable Mutex mu_;
  std::vector<ToolWrites> writes_ ASPECT_GUARDED_BY(mu_);
};

}  // namespace aspect
