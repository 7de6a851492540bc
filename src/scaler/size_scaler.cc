#include "scaler/size_scaler.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "relational/refgraph.h"
#include "relational/rowgen.h"

namespace aspect {
namespace {

/// Tables in parents-first order (fails on cyclic FK graphs). This
/// ordering is what makes the sharded generators coordination-free: a
/// child table's FK domain is its parents' final tuple counts, which
/// are constants by the time the child's shards run.
Result<std::vector<int>> TopoOrder(const Database& db) {
  ReferenceGraph graph(db.schema());
  if (!graph.IsAcyclic()) {
    return Status::Invalid("size scaling requires an acyclic FK graph");
  }
  const int n = db.num_tables();
  std::vector<int> out_degree(static_cast<size_t>(n), 0);
  std::vector<int> order, ready;
  for (int t = 0; t < n; ++t) {
    out_degree[static_cast<size_t>(t)] =
        static_cast<int>(graph.OutEdges(t).size());
    if (out_degree[static_cast<size_t>(t)] == 0) ready.push_back(t);
  }
  while (!ready.empty()) {
    const int t = ready.back();
    ready.pop_back();
    order.push_back(t);
    for (const FkEdge& e : graph.InEdges(t)) {
      if (--out_degree[static_cast<size_t>(e.child_table)] == 0) {
        ready.push_back(e.child_table);
      }
    }
  }
  return order;
}

Status CheckTargets(const Database& source,
                    const std::vector<int64_t>& target_sizes) {
  if (static_cast<int>(target_sizes.size()) != source.num_tables()) {
    return Status::Invalid(
        StrFormat("expected %d target sizes, got %zu", source.num_tables(),
                  target_sizes.size()));
  }
  for (const int64_t s : target_sizes) {
    if (s < 1) return Status::Invalid("target sizes must be positive");
  }
  return Status::OK();
}

/// Shard pool for one Scale call: null (inline execution) unless more
/// than one worker was requested.
ThreadPool* MakeGenPool(const GenOptions& gen) {
  const int threads = ResolveGenThreads(gen.threads);
  if (threads <= 1) return nullptr;
  return ThreadPool::Shared(threads);
}

}  // namespace

Result<std::unique_ptr<Database>> RandScaler::Scale(
    const Database& source, const std::vector<int64_t>& target_sizes,
    uint64_t seed, const GenOptions& gen) const {
  ASPECT_RETURN_NOT_OK(CheckTargets(source, target_sizes));
  ASPECT_ASSIGN_OR_RETURN(std::vector<int> order, TopoOrder(source));
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<Database> out,
                          Database::Create(source.schema()));
  ThreadPool* pool = MakeGenPool(gen);
  const Rng root(seed);
  for (const int ti : order) {
    const Table& src = source.table(ti);
    Table* dst = out->FindTable(src.name());
    const std::vector<TupleId> live = src.LiveTuples();
    if (live.empty()) {
      return Status::Invalid(
          StrFormat("source table '%s' is empty", src.name().c_str()));
    }
    // FK domains are the parents' final sizes — constants here thanks
    // to the topological order, so shards need no coordination.
    std::vector<int64_t> parent_size(
        static_cast<size_t>(src.num_columns()), 0);
    for (int ci = 0; ci < src.num_columns(); ++ci) {
      const Column& col = src.column(ci);
      if (!col.is_foreign_key()) continue;
      const int pi = source.schema().TableIndex(col.ref_table());
      parent_size[static_cast<size_t>(ci)] = out->table(pi).NumTuples();
    }
    const int64_t n_live = static_cast<int64_t>(live.size());
    const Rng table_stream = root.Fork(static_cast<uint64_t>(ti));
    ASPECT_RETURN_NOT_OK(GenerateRowsSharded(
        dst, target_sizes[static_cast<size_t>(ti)], table_stream,
        pool,
        [&](int64_t /*row*/, Rng* rng, std::vector<Value>* row_out) {
          for (int ci = 0; ci < src.num_columns(); ++ci) {
            const Column& col = src.column(ci);
            if (col.is_foreign_key()) {
              (*row_out)[static_cast<size_t>(ci)] = Value(rng->UniformInt(
                  0, parent_size[static_cast<size_t>(ci)] - 1));
            } else {
              // Sample the attribute from a random source tuple, so
              // value domains stay realistic even though joint
              // structure is lost.
              const TupleId t = live[static_cast<size_t>(
                  rng->UniformInt(0, n_live - 1))];
              (*row_out)[static_cast<size_t>(ci)] = col.Get(t);
            }
          }
          return Status::OK();
        }));
  }
  return out;
}

int64_t RexScaler::Factor(const Database& source,
                          const std::vector<int64_t>& target_sizes) {
  double sum = 0;
  int counted = 0;
  for (int ti = 0; ti < source.num_tables(); ++ti) {
    const int64_t n = source.table(ti).NumTuples();
    if (n == 0 || ti >= static_cast<int>(target_sizes.size())) continue;
    sum += static_cast<double>(target_sizes[static_cast<size_t>(ti)]) /
           static_cast<double>(n);
    ++counted;
  }
  if (counted == 0) return 1;
  const int64_t s = static_cast<int64_t>(std::llround(sum / counted));
  return std::max<int64_t>(1, s);
}

Result<std::unique_ptr<Database>> RexScaler::Scale(
    const Database& source, const std::vector<int64_t>& target_sizes,
    uint64_t seed, const GenOptions& gen) const {
  (void)seed;  // ReX is deterministic.
  ASPECT_RETURN_NOT_OK(CheckTargets(source, target_sizes));
  ASPECT_ASSIGN_OR_RETURN(std::vector<int> order, TopoOrder(source));
  const int64_t s = Factor(source, target_sizes);
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<Database> out,
                          Database::Create(source.schema()));
  ThreadPool* pool = MakeGenPool(gen);
  // Position of each live source tuple within its table (for key
  // remapping: replica r of source index i gets id i*s + r).
  std::vector<std::vector<int64_t>> index_of(
      static_cast<size_t>(source.num_tables()));
  for (int ti = 0; ti < source.num_tables(); ++ti) {
    const Table& src = source.table(ti);
    auto& idx = index_of[static_cast<size_t>(ti)];
    idx.assign(static_cast<size_t>(src.NumSlots()), -1);
    int64_t next = 0;
    src.ForEachLive([&](TupleId t) {
      idx[static_cast<size_t>(t)] = next++;
    });
  }
  const Rng root(0);  // ReX draws nothing; streams exist for the driver.
  for (const int ti : order) {
    const Table& src = source.table(ti);
    Table* dst = out->FindTable(src.name());
    const std::vector<TupleId> live = src.LiveTuples();
    // Row j is replica r = j % s of source index i = j / s — the same
    // (source index, replica) interleaving as the serial append loop,
    // so replica r of source index i keeps the predictable id i*s + r.
    ASPECT_RETURN_NOT_OK(GenerateRowsSharded(
        dst, static_cast<int64_t>(live.size()) * s, root.Fork(0),
        pool,
        [&](int64_t j, Rng* /*rng*/, std::vector<Value>* row_out) {
          const TupleId t = live[static_cast<size_t>(j / s)];
          const int64_t r = j % s;
          std::vector<Value> row = src.GetRow(t);
          for (int ci = 0; ci < src.num_columns(); ++ci) {
            const Column& col = src.column(ci);
            if (!col.is_foreign_key() ||
                row[static_cast<size_t>(ci)].is_null()) {
              continue;
            }
            const int pi = source.schema().TableIndex(col.ref_table());
            const int64_t parent_index =
                index_of[static_cast<size_t>(pi)]
                        [static_cast<size_t>(row[static_cast<size_t>(ci)]
                                                 .int64())];
            row[static_cast<size_t>(ci)] = Value(parent_index * s + r);
          }
          *row_out = std::move(row);
          return Status::OK();
        }));
  }
  return out;
}

Result<std::unique_ptr<Database>> DscalerScaler::Scale(
    const Database& source, const std::vector<int64_t>& target_sizes,
    uint64_t seed, const GenOptions& gen) const {
  ASPECT_RETURN_NOT_OK(CheckTargets(source, target_sizes));
  ASPECT_ASSIGN_OR_RETURN(std::vector<int> order, TopoOrder(source));
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<Database> out,
                          Database::Create(source.schema()));
  ThreadPool* pool = MakeGenPool(gen);
  const Rng root(seed);
  for (const int ti : order) {
    const Table& src = source.table(ti);
    Table* dst = out->FindTable(src.name());
    const std::vector<TupleId> live = src.LiveTuples();
    if (live.empty()) {
      return Status::Invalid(
          StrFormat("source table '%s' is empty", src.name().c_str()));
    }
    const int64_t n_src = static_cast<int64_t>(live.size());
    const int64_t n_dst = target_sizes[static_cast<size_t>(ti)];
    // Source and scaled parent domain sizes per FK column — constants
    // by topological order (parents are already complete).
    std::vector<int64_t> par_src(static_cast<size_t>(src.num_columns()), 0);
    std::vector<int64_t> par_dst(static_cast<size_t>(src.num_columns()), 0);
    for (int ci = 0; ci < src.num_columns(); ++ci) {
      const Column& col = src.column(ci);
      if (!col.is_foreign_key()) continue;
      const int pi = source.schema().TableIndex(col.ref_table());
      par_src[static_cast<size_t>(ci)] = source.table(pi).NumTuples();
      par_dst[static_cast<size_t>(ci)] = out->table(pi).NumTuples();
    }
    const Rng table_stream = root.Fork(static_cast<uint64_t>(ti));
    ASPECT_RETURN_NOT_OK(GenerateRowsSharded(
        dst, n_dst, table_stream, pool,
        [&](int64_t j, Rng* rng, std::vector<Value>* row_out) {
          // Template tuple: cycle through the source so every source
          // tuple contributes (this is the per-tuple correlation
          // database: synthetic tuple j inherits the joint
          // FK/attribute pattern of its template).
          const TupleId tmpl = live[static_cast<size_t>(j % n_src)];
          const int64_t round = j / n_src;
          std::vector<Value> row = src.GetRow(tmpl);
          for (int ci = 0; ci < src.num_columns(); ++ci) {
            const Column& col = src.column(ci);
            if (!col.is_foreign_key() ||
                row[static_cast<size_t>(ci)].is_null()) {
              continue;
            }
            const int64_t p_src = row[static_cast<size_t>(ci)].int64();
            const int64_t n_par_src = par_src[static_cast<size_t>(ci)];
            const int64_t n_par_dst = par_dst[static_cast<size_t>(ci)];
            // Proportional remap of the parent id into the scaled
            // parent domain. Round 0 is deterministic (keeps the
            // strongest correlation); later rounds jitter within the
            // stratum so replicas spread over the enlarged domain.
            double pos = static_cast<double>(p_src);
            if (round > 0) pos += rng->UniformDouble();
            int64_t p_dst = static_cast<int64_t>(
                pos * static_cast<double>(n_par_dst) /
                static_cast<double>(n_par_src));
            p_dst = std::clamp<int64_t>(p_dst, 0, n_par_dst - 1);
            row[static_cast<size_t>(ci)] = Value(p_dst);
          }
          *row_out = std::move(row);
          return Status::OK();
        }));
  }
  return out;
}

std::vector<std::unique_ptr<SizeScaler>> BuiltinScalers() {
  std::vector<std::unique_ptr<SizeScaler>> out;
  out.push_back(std::make_unique<DscalerScaler>());
  out.push_back(std::make_unique<RexScaler>());
  out.push_back(std::make_unique<RandScaler>());
  return out;
}

Result<std::unique_ptr<SizeScaler>> MakeScaler(const std::string& name) {
  std::vector<std::string> names;
  for (std::unique_ptr<SizeScaler>& scaler : BuiltinScalers()) {
    if (scaler->name() == name) return std::move(scaler);
    names.push_back(scaler->name());
  }
  return Status::Invalid(StrFormat("unknown scaler '%s' (valid: %s)",
                                   name.c_str(), Join(names, ", ").c_str()));
}

}  // namespace aspect
