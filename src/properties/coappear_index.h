// Flat containers behind CoappearPropertyTool's bound statistics
// (DESIGN.md §15); its keys and counts live in stats/count_gap.h:
//   - TombstoneBucket: an ordered id array whose removals clear a live
//     bit in O(log n) and whose live entries are addressable by rank,
//   - SlotLists: intrusive doubly-linked lists over tuple slots.
// Each keeps the order the old std::vector find+erase code kept, so a
// random rank drawn against them picks the same element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aspect {

/// An append-ordered array of ids in which removal leaves a tombstone.
/// Live entries keep their relative order, exactly as with
/// std::vector::erase, and are addressable by rank through a Fenwick
/// tree over the live bits. Once dead entries outnumber live ones the
/// array is compacted in order.
class TombstoneBucket {
 public:
  /// Number of live entries.
  int32_t live() const { return live_; }
  /// Number of slots, live or dead (what compaction bounds).
  int32_t slots() const { return static_cast<int32_t>(ids_.size()); }

  /// Appends `id` at the end; returns its slot.
  int32_t PushBack(int32_t id);
  /// Tombstones `slot`. If that makes dead entries outnumber live
  /// ones, compacts and writes every moved id's new slot to
  /// (*slot_of)[id].
  void Remove(int32_t slot, std::vector<int32_t>* slot_of);

  /// Slot of the live entry at 0-based `rank` (rank < live()).
  int32_t SlotOfRank(int32_t rank) const;
  /// Next live slot after `slot`, wrapping to the first live slot.
  int32_t NextLive(int32_t slot) const;
  int32_t id(int32_t slot) const { return ids_[static_cast<size_t>(slot)]; }

 private:
  void Compact(std::vector<int32_t>* slot_of);

  std::vector<int32_t> ids_;   // -1 marks a tombstone
  std::vector<int32_t> tree_;  // 1-based Fenwick tree of live bits
  int32_t live_ = 0;
};

/// Intrusive doubly-linked lists over slots 0..n-1: every slot is on
/// at most one list. PushBack appends at the tail and Unlink keeps the
/// others' relative order, so list order equals the order of a vector
/// kept with push_back and find+erase.
class SlotLists {
 public:
  void Reset(size_t lists, size_t slots);
  void EnsureLists(size_t n);
  void EnsureSlots(size_t n);

  void PushBack(int32_t list, int64_t slot);
  void Unlink(int32_t list, int64_t slot);

  int32_t size(int32_t list) const {
    return static_cast<size_t>(list) < len_.size()
               ? len_[static_cast<size_t>(list)]
               : 0;
  }
  /// Successor of `slot` on its list, wrapping to the list's head.
  int64_t NextWrapped(int32_t list, int64_t slot) const;
  /// Slot at 0-based `rank` (rank < size(list)); walks from the head.
  int64_t AtRank(int32_t list, int32_t rank) const;

 private:
  std::vector<int32_t> head_, tail_;  // per list; -1 = empty
  std::vector<int32_t> len_;          // per list
  std::vector<int32_t> next_, prev_;  // per slot; -1 = none
};

}  // namespace aspect
