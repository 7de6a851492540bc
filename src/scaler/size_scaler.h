// SizeScaler: stage 1 of ASPECT (Sec. III-A). A size-scaler turns the
// empirical dataset D into a synthetic D~0 with the requested per-table
// tuple counts and no invalid foreign keys; anything beyond that
// contract (correlation, join structure) is technique-specific and is
// what the property-enforcement stage then repairs.
//
// Every scaler generates through the sharded columnar pipeline
// (relational/rowgen.h, DESIGN.md §12): tables are produced in
// parents-first topological order, each table's rows are partitioned
// into fixed-grain shards with private RNG streams, and shards run on
// a thread pool when GenOptions::threads > 1. The output is bitwise
// identical at every thread count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sharding.h"
#include "relational/database.h"

namespace aspect {

class SizeScaler {
 public:
  virtual ~SizeScaler() = default;

  virtual std::string name() const = 0;

  /// Scales `source` to a new database. `target_sizes` gives the
  /// desired live tuple count per table in schema order. Techniques
  /// that cannot hit arbitrary sizes (ReX scales every table by one
  /// integer factor) produce their nearest achievable sizes instead.
  /// `gen` controls shard parallelism; the result does not depend on
  /// it (callers through a base pointer note that default arguments
  /// bind statically, so every override re-declares the same default).
  virtual Result<std::unique_ptr<Database>> Scale(
      const Database& source, const std::vector<int64_t>& target_sizes,
      uint64_t seed, const GenOptions& gen = {}) const = 0;
};

/// Rand (Sec. VI-B): random tuples subject to (i) expected table sizes
/// and (ii) valid foreign keys. The weakest baseline.
class RandScaler : public SizeScaler {
 public:
  std::string name() const override { return "Rand"; }
  Result<std::unique_ptr<Database>> Scale(
      const Database& source, const std::vector<int64_t>& target_sizes,
      uint64_t seed, const GenOptions& gen = {}) const override;
};

/// ReX [8]: representative extrapolation by a single integer factor s;
/// every source tuple is cloned s times and replica r of a child
/// references replica r of its parent.
class RexScaler : public SizeScaler {
 public:
  std::string name() const override { return "ReX"; }

  /// The integer factor ReX will use for the given targets: the
  /// rounded mean of target/source size ratios, at least 1.
  static int64_t Factor(const Database& source,
                        const std::vector<int64_t>& target_sizes);

  Result<std::unique_ptr<Database>> Scale(
      const Database& source, const std::vector<int64_t>& target_sizes,
      uint64_t seed, const GenOptions& gen = {}) const override;
};

/// Dscaler [37]: non-uniform scaling driven by a per-tuple correlation
/// database. Each synthetic tuple is extrapolated from a source
/// template tuple, and FK values are remapped proportionally into the
/// scaled parent domain (with stratified jitter across replica
/// rounds), preserving joint inter-column correlation and approximate
/// per-parent fan-out.
class DscalerScaler : public SizeScaler {
 public:
  std::string name() const override { return "Dscaler"; }
  Result<std::unique_ptr<Database>> Scale(
      const Database& source, const std::vector<int64_t>& target_sizes,
      uint64_t seed, const GenOptions& gen = {}) const override;
};

/// All three built-in scalers, in the order the paper plots them.
std::vector<std::unique_ptr<SizeScaler>> BuiltinScalers();

/// The built-in scaler called `name`; an Invalid status listing the
/// valid names otherwise.
Result<std::unique_ptr<SizeScaler>> MakeScaler(const std::string& name);

}  // namespace aspect
