#include "properties/pairwise_index.h"

#include <algorithm>
#include <cassert>

namespace aspect {

size_t PairIndex::Home(uint64_t key) const {
  // MurmurHash3's 64-bit finalizer: both packed halves reach the low
  // bits the mask keeps.
  uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & (index_.size() - 1);
}

int32_t PairIndex::Find(uint64_t key) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    const int32_t id = index_[i];
    if (id < 0 || keys_[static_cast<size_t>(id)] == key) return id;
  }
}

int32_t PairIndex::Intern(uint64_t key) {
  assert(key != kFree);
  const int32_t found = Find(key);
  if (found >= 0) return found;
  if ((held_ + 1) * 2 > index_.size()) Rehash(index_.size() * 2);
  int32_t id;
  if (free_.empty()) {
    id = static_cast<int32_t>(keys_.size());
    keys_.push_back(key);
  } else {
    id = free_.back();
    free_.pop_back();
    keys_[static_cast<size_t>(id)] = key;
  }
  const size_t mask = index_.size() - 1;
  size_t i = Home(key);
  while (index_[i] >= 0) i = (i + 1) & mask;
  index_[i] = id;
  ++held_;
  return id;
}

void PairIndex::Release(uint64_t key) {
  const size_t mask = index_.size() - 1;
  size_t hole = Home(key);
  for (;; hole = (hole + 1) & mask) {
    const int32_t id = index_[hole];
    if (id < 0) return;
    if (keys_[static_cast<size_t>(id)] == key) {
      keys_[static_cast<size_t>(id)] = kFree;
      free_.push_back(id);
      --held_;
      break;
    }
  }
  // Backward shift: pull later entries of the probe run into the hole
  // when the hole lies between their home slot and where they sit.
  for (size_t j = (hole + 1) & mask; index_[j] >= 0; j = (j + 1) & mask) {
    const size_t home = Home(keys_[static_cast<size_t>(index_[j])]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = -1;
}

void PairIndex::Rehash(size_t capacity) {
  index_.assign(capacity, -1);
  const size_t mask = capacity - 1;
  for (size_t id = 0; id < keys_.size(); ++id) {
    if (keys_[id] == kFree) continue;
    size_t i = Home(keys_[id]);
    while (index_[i] >= 0) i = (i + 1) & mask;
    index_[i] = static_cast<int32_t>(id);
  }
}

void SwapLists::PushBack(int64_t l, int64_t e) {
  assert(l >= 0 && e >= 0);
  if (static_cast<size_t>(l) >= lists_.size()) {
    lists_.resize(static_cast<size_t>(l) + 1);
  }
  if (static_cast<size_t>(e) >= pos_.size()) {
    pos_.resize(static_cast<size_t>(e) + 1, -1);
  }
  std::vector<int64_t>& list = lists_[static_cast<size_t>(l)];
  pos_[static_cast<size_t>(e)] = static_cast<int32_t>(list.size());
  list.push_back(e);
}

bool SwapLists::Remove(int64_t l, int64_t e) {
  if (l < 0 || static_cast<size_t>(l) >= lists_.size() || e < 0 ||
      static_cast<size_t>(e) >= pos_.size()) {
    return false;
  }
  std::vector<int64_t>& list = lists_[static_cast<size_t>(l)];
  const int32_t at = pos_[static_cast<size_t>(e)];
  if (at < 0 || static_cast<size_t>(at) >= list.size() ||
      list[static_cast<size_t>(at)] != e) {
    return false;
  }
  const int64_t last = list.back();
  list[static_cast<size_t>(at)] = last;
  pos_[static_cast<size_t>(last)] = at;
  list.pop_back();
  pos_[static_cast<size_t>(e)] = -1;
  return true;
}

size_t OrderedKeySet::BlockOf(uint64_t key) const {
  // The first block whose largest key is >= key, else the last block.
  const auto it = std::partition_point(
      blocks_.begin(), blocks_.end(),
      [key](const std::vector<uint64_t>& b) { return b.back() < key; });
  const auto b = static_cast<size_t>(it - blocks_.begin());
  return b == blocks_.size() ? b - 1 : b;
}

void OrderedKeySet::Insert(uint64_t key) {
  ++size_;
  if (blocks_.empty()) {
    blocks_.push_back({key});
    return;
  }
  const size_t b = BlockOf(key);
  std::vector<uint64_t>& block = blocks_[b];
  const auto at = std::lower_bound(block.begin(), block.end(), key);
  assert(at == block.end() || *at != key);
  block.insert(at, key);
  if (block.size() > kMaxBlock) {
    // Split in halves; the upper half becomes the next block.
    std::vector<uint64_t> upper(block.begin() + kMaxBlock / 2, block.end());
    block.resize(kMaxBlock / 2);
    blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(b) + 1,
                   std::move(upper));
  }
}

void OrderedKeySet::Remove(uint64_t key) {
  assert(size_ > 0);
  const size_t b = BlockOf(key);
  std::vector<uint64_t>& block = blocks_[b];
  const auto at = std::lower_bound(block.begin(), block.end(), key);
  assert(at != block.end() && *at == key);
  block.erase(at);
  --size_;
  if (block.empty()) {
    blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(b));
    return;
  }
  // Fold a thinned block into its successor while both fit in half a
  // block, so erasures do not leave runs of near-empty blocks.
  if (b + 1 < blocks_.size() &&
      block.size() + blocks_[b + 1].size() <= kMaxBlock / 2) {
    std::vector<uint64_t>& next = blocks_[b + 1];
    block.insert(block.end(), next.begin(), next.end());
    blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(b) + 1);
  }
}

void OrderedKeySet::Assign(std::span<const uint64_t> sorted) {
  blocks_.clear();
  for (size_t i = 0; i < sorted.size(); i += kMaxBlock / 2) {
    const size_t end = std::min(sorted.size(), i + kMaxBlock / 2);
    blocks_.emplace_back(sorted.begin() + static_cast<ptrdiff_t>(i),
                         sorted.begin() + static_cast<ptrdiff_t>(end));
  }
  size_ = sorted.size();
}

size_t OrderedKeySet::Front(size_t n, uint64_t* out) const {
  size_t got = 0;
  for (const std::vector<uint64_t>& block : blocks_) {
    for (const uint64_t key : block) {
      if (got == n) return got;
      out[got++] = key;
    }
  }
  return got;
}

}  // namespace aspect
