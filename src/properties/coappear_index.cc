#include "properties/coappear_index.h"

#include <algorithm>
#include <cassert>

namespace aspect {

int32_t TombstoneBucket::PushBack(int32_t id) {
  ids_.push_back(id);
  if (tree_.empty()) tree_.push_back(0);
  // Fenwick append: position n covers (n - lowbit(n), n], i.e. itself
  // plus the nodes n-1, n-2, n-4, ... below its low bit.
  const size_t n = ids_.size();
  const size_t low = n & (~n + 1);
  int32_t covered = 1;
  for (size_t j = 1; j < low; j <<= 1) covered += tree_[n - j];
  tree_.push_back(covered);
  ++live_;
  return static_cast<int32_t>(n - 1);
}

void TombstoneBucket::Remove(int32_t slot, std::vector<int32_t>* slot_of) {
  assert(ids_[static_cast<size_t>(slot)] >= 0);
  ids_[static_cast<size_t>(slot)] = -1;
  for (size_t i = static_cast<size_t>(slot) + 1; i < tree_.size();
       i += i & (~i + 1)) {
    --tree_[i];
  }
  --live_;
  if (slots() - live_ > live_) Compact(slot_of);
}

void TombstoneBucket::Compact(std::vector<int32_t>* slot_of) {
  size_t n = 0;
  for (const int32_t id : ids_) {
    if (id < 0) continue;
    (*slot_of)[static_cast<size_t>(id)] = static_cast<int32_t>(n);
    ids_[n++] = id;
  }
  ids_.resize(n);
  // Linear-time Fenwick build over all-live bits.
  tree_.assign(n + 1, 1);
  tree_[0] = 0;
  for (size_t i = 1; i <= n; ++i) {
    const size_t parent = i + (i & (~i + 1));
    if (parent <= n) tree_[parent] += tree_[i];
  }
}

int32_t TombstoneBucket::SlotOfRank(int32_t rank) const {
  assert(rank >= 0 && rank < live_);
  const size_t n = ids_.size();
  size_t step = 1;
  while (step * 2 <= n) step *= 2;
  size_t pos = 0;
  int32_t rem = rank + 1;
  for (; step > 0; step >>= 1) {
    if (pos + step <= n && tree_[pos + step] < rem) {
      pos += step;
      rem -= tree_[pos];
    }
  }
  return static_cast<int32_t>(pos);  // 1-based position pos + 1
}

int32_t TombstoneBucket::NextLive(int32_t slot) const {
  const int32_t n = slots();
  for (int32_t s = slot + 1;; ++s) {
    if (s == n) s = 0;
    if (ids_[static_cast<size_t>(s)] >= 0) return s;
  }
}

void SlotLists::Reset(size_t lists, size_t slots) {
  head_.assign(lists, -1);
  tail_.assign(lists, -1);
  len_.assign(lists, 0);
  next_.assign(slots, -1);
  prev_.assign(slots, -1);
}

void SlotLists::EnsureLists(size_t n) {
  if (head_.size() >= n) return;
  head_.resize(n, -1);
  tail_.resize(n, -1);
  len_.resize(n, 0);
}

void SlotLists::EnsureSlots(size_t n) {
  if (next_.size() >= n) return;
  next_.resize(n, -1);
  prev_.resize(n, -1);
}

void SlotLists::PushBack(int32_t list, int64_t slot) {
  const size_t l = static_cast<size_t>(list);
  const auto s = static_cast<int32_t>(slot);
  prev_[static_cast<size_t>(s)] = tail_[l];
  next_[static_cast<size_t>(s)] = -1;
  if (tail_[l] >= 0) {
    next_[static_cast<size_t>(tail_[l])] = s;
  } else {
    head_[l] = s;
  }
  tail_[l] = s;
  ++len_[l];
}

void SlotLists::Unlink(int32_t list, int64_t slot) {
  const size_t l = static_cast<size_t>(list);
  const size_t s = static_cast<size_t>(slot);
  const int32_t p = prev_[s];
  const int32_t n = next_[s];
  if (p >= 0) {
    next_[static_cast<size_t>(p)] = n;
  } else {
    head_[l] = n;
  }
  if (n >= 0) {
    prev_[static_cast<size_t>(n)] = p;
  } else {
    tail_[l] = p;
  }
  prev_[s] = -1;
  next_[s] = -1;
  --len_[l];
}

int64_t SlotLists::NextWrapped(int32_t list, int64_t slot) const {
  const int32_t n = next_[static_cast<size_t>(slot)];
  return n >= 0 ? n : head_[static_cast<size_t>(list)];
}

int64_t SlotLists::AtRank(int32_t list, int32_t rank) const {
  int32_t s = head_[static_cast<size_t>(list)];
  while (rank-- > 0) s = next_[static_cast<size_t>(s)];
  return s;
}

}  // namespace aspect
