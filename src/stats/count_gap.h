// Flat distributions of fixed-width integer keys held against a target
// (DESIGN.md §15):
//   - KeyOrder: a counting sort of fixed-width int64 keys, for bulk
//     builds that need keys in lexicographic order,
//   - KeyInterner: fixed-width int64 keys interned as dense int32 ids,
//   - CountGapTable: the current and target count of every interned
//     key, the implicit all-zero key, the L1 gap between the two, and
//     the deficit-to-surplus conversion loop that Algorithm 2 (coappear
//     xi) and Algorithm 3 (pairwise rho and rho_S) share.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <span>
#include <vector>

#include "stats/freq_dist.h"

namespace aspect {

/// Indices 0..n-1 of the n keys in `keys` (key i is keys[i * width ..
/// (i + 1) * width)) in lexicographic key order, equal keys in index
/// order. A stable LSD radix sort: columns are taken relative to their
/// minimum and packed into as few 64-bit words as their value ranges
/// allow, and each word takes one counting pass per digit of up to 16
/// bits. Keys of dense ids or small counts fit one word: two tuple ids
/// below 2^16 take two passes, a vector of six counts below 4 one.
std::vector<int32_t> KeyOrder(std::span<const int64_t> keys, int width);

/// Interns fixed-width keys of int64 values as dense ids 0, 1, 2, ...
/// Ids are never freed: a key keeps its id for the table's lifetime.
class KeyInterner {
 public:
  explicit KeyInterner(int width = 1);

  int width() const { return width_; }
  int32_t size() const { return size_; }

  /// Sizes the table for `n` keys in all, so interning up to `n` keys
  /// neither rehashes nor reallocates.
  void Reserve(int32_t n);

  /// Id of `key` (width() values), or -1 if it was never interned.
  int32_t Find(std::span<const int64_t> key) const;
  /// Id of `key`, interning it first if needed.
  int32_t Intern(std::span<const int64_t> key);
  /// Replaces the contents with the distinct keys laid out flat in
  /// `keys` (key i at [i * width(), (i + 1) * width()) gets id i) and
  /// builds the index in one pass, without Intern's lookups. The ids
  /// equal interning the keys one by one after Reserve.
  void AssignDistinct(std::vector<int64_t> keys);
  std::span<const int64_t> key(int32_t id) const {
    return {keys_.data() + static_cast<size_t>(id) * width_,
            static_cast<size_t>(width_)};
  }

 private:
  uint64_t Hash(std::span<const int64_t> key) const;
  void Rehash(size_t capacity);

  int width_;
  int32_t size_ = 0;
  std::vector<int64_t> keys_;   // size_ * width_ values
  std::vector<int32_t> index_;  // open addressing; -1 = empty slot
};

/// One distribution of fixed-width keys against its target. Every
/// non-zero key is interned and stored with its current and target
/// count; the all-zero key is implicit: its count is the total mass
/// (the "space", set by the owner) minus the stored keys' mass. Every
/// target key is interned when the target is set, so a key without an
/// id has current and target count zero. Reads are const and
/// allocation-free, so concurrent validators may price against one
/// table while no one writes it.
class CountGapTable {
 public:
  using Keys = std::span<const int64_t>;

  explicit CountGapTable(int width = 1) : keys_(width) {}

  int width() const { return keys_.width(); }
  int32_t size() const { return keys_.size(); }
  /// Id of `key`, or -1 if it was never interned.
  int32_t Find(Keys key) const { return keys_.Find(key); }
  /// Id of `key`, interning it with both counts zero if needed.
  int32_t Intern(Keys key);
  Keys key(int32_t id) const { return keys_.key(id); }

  int64_t count(int32_t id) const { return count_[static_cast<size_t>(id)]; }
  int64_t target(int32_t id) const {
    return target_[static_cast<size_t>(id)];
  }
  /// Summed current / target counts of the stored (non-zero) keys.
  int64_t mass() const { return mass_; }
  int64_t target_mass() const { return target_mass_; }
  /// sum |count - target| over the stored keys (zero key excluded):
  /// the numerator of the property's error.
  int64_t gap() const { return gap_; }
  /// gap() plus the zero key's |count - target|.
  int64_t full_gap() const {
    return gap_ + std::llabs(zero_count() - zero_target());
  }

  /// Pricing term |count + d - target| - |count - target| of key `id`
  /// (-1: never interned, so both counts are zero).
  int64_t Term(int32_t id, int64_t d) const {
    const int64_t cur = id < 0 ? 0 : count(id);
    const int64_t tgt = id < 0 ? 0 : target(id);
    return std::llabs(cur + d - tgt) - std::llabs(cur - tgt);
  }

  /// Adds `d` to the current count of key `id`.
  void Add(int32_t id, int64_t d);
  /// Replaces every target count with `target`'s (an all-zero key in it
  /// is ignored: that count is implicit) and sets the target's space.
  void SetTarget(const FrequencyDistribution& target, int64_t space);
  /// Sets the current space (total mass including the zero key).
  void SetSpace(int64_t space) { space_ = space; }

  /// The current counts as a distribution (zero key implicit).
  FrequencyDistribution Current() const;

  /// Converts one unit of mass from key `from` to key `to`; false if
  /// it could not. Conversions reach the table through its owner.
  using Convert = std::function<bool(Keys from, Keys to)>;
  /// The Algorithm 2/3 loop. Up to `guard` times: take the first
  /// deficit (count < target) that is not stuck, target keys in
  /// lexicographic order and then the zero key; order every surplus
  /// (count > target, zero key included) by (Manhattan distance to the
  /// deficit, key) and call `convert` on each until one succeeds. A
  /// deficit none converts into is stuck for the rest of the loop.
  /// The surplus set is taken once per deficit, before any conversion,
  /// and visited lazily through a heap in that order.
  void ConvertDeficits(int64_t guard, const Convert& convert);

 private:
  int64_t zero_count() const { return space_ - mass_; }
  int64_t zero_target() const { return target_space_ - target_mass_; }
  /// Brings id's deficit bit and surplus-list membership in line with
  /// its current and target counts.
  void Track(int32_t id);

  KeyInterner keys_;
  std::vector<int64_t> count_;
  std::vector<int64_t> target_;
  std::vector<int32_t> by_key_;  // ids with a positive target, key order
  std::vector<int32_t> key_pos_;   // id -> index in by_key_, -1: none
  std::vector<uint64_t> deficit_;  // bit i: by_key_[i] has count < target
  // Ids with count > max(0, target) in no particular order, and each
  // id's index in it (-1: not a surplus).
  std::vector<int32_t> surplus_;
  std::vector<int32_t> surplus_pos_;
  int64_t mass_ = 0;
  int64_t target_mass_ = 0;
  int64_t space_ = 0;
  int64_t target_space_ = 0;
  int64_t gap_ = 0;
};

}  // namespace aspect
