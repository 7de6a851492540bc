// FrequencyDistribution: a sparse frequency distribution over integer
// vectors. This is the common representation of the paper's property
// statistics:
//   - the coappear distribution xi(v1..vk)   (Definition 4),
//   - the pairwise distribution rho(x, y)    (Definition 5),
//   - single-column frequency distributions  (Theorems 6-8).
//
// Keys are vectors of int64 of a fixed dimension; values are signed
// counts (signed so tools can form difference distributions like
// xi* = xi - xi~). Entries reaching zero are erased, so iteration only
// visits non-zero keys. Iteration order is deterministic
// (lexicographic), which keeps every randomized experiment reproducible.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace aspect {

class FrequencyDistribution {
 public:
  using Key = std::vector<int64_t>;
  using Map = std::map<Key, int64_t>;

  /// Creates a distribution over keys of the given dimension.
  explicit FrequencyDistribution(int dim = 1) : dim_(dim) {}

  int dim() const { return dim_; }

  /// Adds `delta` to the count of `key` (erasing the entry at zero).
  void Add(const Key& key, int64_t delta = 1);

  /// Count of `key` (0 when absent).
  int64_t Count(const Key& key) const;

  /// Number of distinct non-zero keys.
  int64_t NumKeys() const { return static_cast<int64_t>(counts_.size()); }

  /// Sum of counts over all stored keys.
  int64_t TotalMass() const;

  /// Sum of |count| over all stored keys.
  int64_t TotalAbsMass() const;

  /// Weighted sum over dimension d: sum_v v[d] * f(v).
  int64_t WeightedSum(int d) const;

  /// L1 distance: sum_v |f(v) - g(v)|. Dimensions must match.
  int64_t L1Distance(const FrequencyDistribution& other) const;

  /// this - other, key-wise.
  FrequencyDistribution Difference(const FrequencyDistribution& other) const;

  /// Reads the underlying map (non-zero entries only).
  const Map& counts() const { return counts_; }

  void Clear() { counts_.clear(); }

  bool operator==(const FrequencyDistribution& other) const {
    return dim_ == other.dim_ && counts_ == other.counts_;
  }

  /// "{(v1,..,vk): n, ...}" for debugging; large distributions truncate.
  std::string ToString(int64_t max_entries = 16) const;

  /// Serializes as lines "v1 v2 ... vk count" preceded by a header
  /// "dist <dim> <entries>"; Read parses the same format and rejects a
  /// header whose dim is not the caller's `dim`.
  void Write(std::ostream* out) const;
  static Result<FrequencyDistribution> Read(std::istream* in, int dim);

 private:
  int dim_;
  Map counts_;
};

/// Manhattan (L1) distance between two keys of equal dimension.
int64_t ManhattanDistance(const FrequencyDistribution::Key& a,
                          const FrequencyDistribution::Key& b);

}  // namespace aspect
