// Flat containers behind PairwisePropertyTool's bound statistics
// (DESIGN.md §15); its keys and counts live in stats/count_gap.h:
//   - PairIndex: dense ids for 64-bit user-pair keys, reused once a
//     pair is released,
//   - SwapLists: lists over dense ids whose removal moves the last
//     element into the hole, found through a per-element position
//     index instead of a scan,
//   - OrderedKeySet: a set of 64-bit keys kept in ascending order in
//     sorted blocks, so insert and erase never walk the whole set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace aspect {

/// Dense int32 ids for 64-bit keys. Unlike KeyInterner, an id can be
/// released: a later Intern reuses it, so ids stay below the peak
/// number of keys held at once rather than the number ever seen.
/// Linear probing over a power-of-two table; Release closes the probe
/// run by backward shifting, so lookups never meet a tombstone.
class PairIndex {
 public:
  PairIndex() : index_(16, -1) {}

  /// Id of `key`, or -1 if it is not held.
  int32_t Find(uint64_t key) const;
  /// Id of `key`, taking a free id (or a new one) if it is not held.
  int32_t Intern(uint64_t key);
  /// Frees `key`'s id for reuse; no-op if `key` is not held.
  void Release(uint64_t key);

  /// One past the largest id handed out; each id below is held or free.
  int32_t bound() const { return static_cast<int32_t>(keys_.size()); }
  bool held(int32_t id) const {
    return keys_[static_cast<size_t>(id)] != kFree;
  }
  uint64_t key(int32_t id) const { return keys_[static_cast<size_t>(id)]; }

 private:
  static constexpr uint64_t kFree = UINT64_MAX;
  size_t Home(uint64_t key) const;
  void Rehash(size_t capacity);

  std::vector<uint64_t> keys_;  // by id; kFree once released
  std::vector<int32_t> free_;   // released ids, reused last in, first out
  std::vector<int32_t> index_;  // open addressing; -1 = empty slot
  size_t held_ = 0;
};

/// Lists 0, 1, 2, ... of non-negative element ids, each element on at
/// most one list at a time. PushBack appends; Remove moves the list's
/// last element into the removed one's place, so every list keeps
/// exactly the order that push_back plus find + swap-with-last gives,
/// but finds the element through its stored position in O(1).
class SwapLists {
 public:
  /// List `l`'s elements in order (empty for a list never pushed to).
  /// Invalidated by any later PushBack or Remove.
  std::span<const int64_t> list(int64_t l) const {
    if (l < 0 || static_cast<size_t>(l) >= lists_.size()) return {};
    return lists_[static_cast<size_t>(l)];
  }
  size_t size(int64_t l) const { return list(l).size(); }

  void PushBack(int64_t l, int64_t e);
  /// Removes `e` from list `l`; false (and no change) if it is not on
  /// that list.
  bool Remove(int64_t l, int64_t e);

 private:
  std::vector<std::vector<int64_t>> lists_;
  std::vector<int32_t> pos_;  // element -> index on its list; -1 = none
};

/// A set of distinct uint64 keys in ascending order, held as a list of
/// sorted blocks of at most kMaxBlock keys. Insert and Remove binary-
/// search the block and then the key, and shift keys within one block;
/// the smallest keys are read from the front blocks.
class OrderedKeySet {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts `key`, which must be absent.
  void Insert(uint64_t key);
  /// Removes `key`, which must be present.
  void Remove(uint64_t key);
  /// Replaces the contents with `sorted` (ascending, distinct).
  void Assign(std::span<const uint64_t> sorted);
  /// Copies the min(n, size()) smallest keys, ascending, to `out`;
  /// returns how many.
  size_t Front(size_t n, uint64_t* out) const;

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::vector<uint64_t>& block : blocks_) {
      for (const uint64_t key : block) fn(key);
    }
  }

 private:
  static constexpr size_t kMaxBlock = 256;
  /// Index of the block that holds, or would hold, `key`.
  size_t BlockOf(uint64_t key) const;

  std::vector<std::vector<uint64_t>> blocks_;  // non-empty, ascending
  size_t size_ = 0;
};

}  // namespace aspect
