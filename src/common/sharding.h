// Row-shard partitioning for the parallel columnar stage-1 pipeline
// (synthetic generation, size scaling, integrity verification —
// DESIGN.md Sec. 12).
//
// The output of a sharded producer must be bitwise identical at every
// thread count, so shard boundaries are a pure function of the row
// count (a fixed grain, never derived from the thread count) and each
// shard derives its own RNG stream from a stable label (Rng::Fork).
// Threads only decide how many shards run at once.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace aspect {

class ThreadPool;

/// Options for the stage-1 generation/scaling/verification paths.
struct GenOptions {
  /// Worker threads for row-shard execution: 1 (default) runs the
  /// shards inline on the caller — still the sharded algorithm, so
  /// the produced bytes are identical at every setting — and 0 means
  /// one per hardware thread.
  int threads = 1;
};

/// Fixed shard grain in rows. Deliberately a constant: the shard
/// decomposition (and therefore the per-shard RNG stream tree) must
/// depend only on the row count for thread-count-independent output.
inline constexpr int64_t kGenShardRows = 2048;

/// One contiguous row range [begin, end) plus its stable index — the
/// shard's position in the decomposition and its RNG fork label.
struct RowShard {
  int64_t begin = 0;
  int64_t end = 0;
  uint64_t index = 0;
};

/// GenOptions::threads resolution: 0 -> hardware concurrency,
/// anything else clamped to at least 1.
int ResolveGenThreads(int threads);

/// Splits [0, rows) into fixed-grain shards (empty for rows <= 0).
std::vector<RowShard> PartitionRows(int64_t rows,
                                    int64_t grain = kGenShardRows);

/// Runs `fn` over every shard: inline in shard order when `pool` is
/// null, otherwise concurrently on the pool (blocking until every
/// shard has finished). `fn` must confine its writes to shard-private
/// state (its own staging block, its own status slot); callers splice
/// the per-shard results together in shard order afterwards.
void RunShards(const std::vector<RowShard>& shards, ThreadPool* pool,
               const std::function<void(const RowShard&)>& fn);

}  // namespace aspect
