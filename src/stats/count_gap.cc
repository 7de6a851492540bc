#include "stats/count_gap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <numeric>

namespace aspect {

std::vector<int32_t> KeyOrder(std::span<const int64_t> keys, int width) {
  const auto w = static_cast<size_t>(width);
  const size_t n = w == 0 ? 0 : keys.size() / w;
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n == 0) return order;
  // Each column as an offset from its minimum, in as few bits as its
  // range needs.
  std::vector<int64_t> lo(keys.begin(), keys.begin() + std::ptrdiff_t(w));
  std::vector<int64_t> hi = lo;
  for (size_t i = 1; i < n; ++i) {
    for (size_t c = 0; c < w; ++c) {
      lo[c] = std::min(lo[c], keys[i * w + c]);
      hi[c] = std::max(hi[c], keys[i * w + c]);
    }
  }
  std::vector<int> bits(w);
  for (size_t c = 0; c < w; ++c) {
    bits[c] = std::bit_width(static_cast<uint64_t>(hi[c]) -
                             static_cast<uint64_t>(lo[c]));
  }
  // Adjacent columns are packed into words of at most 64 bits, the
  // first column most significant, so a word compares as its columns
  // do. Words are sorted last first.
  std::vector<uint64_t> word(n);
  std::vector<int32_t> next(n), count;
  for (size_t last = w; last > 0;) {
    size_t first = last - 1;
    int total = bits[first];
    while (first > 0 && total + bits[first - 1] <= 64) total += bits[--first];
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      for (size_t c = first; c < last; ++c) {
        const uint64_t x = static_cast<uint64_t>(keys[i * w + c]) -
                           static_cast<uint64_t>(lo[c]);
        v = bits[c] < 64 ? v << bits[c] | x : x;
      }
      word[i] = v;
    }
    last = first;
    const int passes = (total + 15) / 16;
    if (passes == 0) continue;  // one value: already in order
    const int digit_bits = (total + passes - 1) / passes;
    const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * digit_bits;
      auto digit = [&](int32_t i) {
        return static_cast<size_t>((word[static_cast<size_t>(i)] >> shift) &
                                   mask);
      };
      count.assign(static_cast<size_t>(mask) + 2, 0);
      for (const int32_t i : order) ++count[digit(i) + 1];
      for (size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
      for (const int32_t i : order) {
        next[static_cast<size_t>(count[digit(i)]++)] = i;
      }
      order.swap(next);
    }
  }
  return order;
}

KeyInterner::KeyInterner(int width) : width_(width) { Rehash(16); }

void KeyInterner::Reserve(int32_t n) {
  keys_.reserve(static_cast<size_t>(n) * static_cast<size_t>(width_));
  const size_t capacity = std::bit_ceil(static_cast<size_t>(n) * 2);
  if (capacity > index_.size()) Rehash(capacity);
}

uint64_t KeyInterner::Hash(std::span<const int64_t> key) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const int64_t x : key) {
    h ^= static_cast<uint64_t>(x);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 29);
}

int32_t KeyInterner::Find(std::span<const int64_t> key) const {
  assert(static_cast<int>(key.size()) == width_);
  const size_t mask = index_.size() - 1;
  for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
    const int32_t id = index_[i];
    if (id < 0) return -1;
    if (std::equal(key.begin(), key.end(), this->key(id).begin())) return id;
  }
}

int32_t KeyInterner::Intern(std::span<const int64_t> key) {
  const int32_t found = Find(key);
  if (found >= 0) return found;
  if (static_cast<size_t>(size_ + 1) * 2 > index_.size()) {
    Rehash(index_.size() * 2);
  }
  const size_t mask = index_.size() - 1;
  size_t i = Hash(key) & mask;
  while (index_[i] >= 0) i = (i + 1) & mask;
  keys_.insert(keys_.end(), key.begin(), key.end());
  index_[i] = size_;
  return size_++;
}

void KeyInterner::AssignDistinct(std::vector<int64_t> keys) {
  assert(keys.size() % static_cast<size_t>(width_) == 0);
  keys_ = std::move(keys);
  size_ = static_cast<int32_t>(keys_.size() / static_cast<size_t>(width_));
  Rehash(std::max<size_t>(16, std::bit_ceil(static_cast<size_t>(size_) * 2)));
}

void KeyInterner::Rehash(size_t capacity) {
  index_.assign(capacity, -1);
  const size_t mask = capacity - 1;
  for (int32_t id = 0; id < size_; ++id) {
    size_t i = Hash(key(id)) & mask;
    while (index_[i] >= 0) i = (i + 1) & mask;
    index_[i] = id;
  }
}

int32_t CountGapTable::Intern(Keys key) {
  const int32_t id = keys_.Intern(key);
  if (static_cast<size_t>(id) == count_.size()) {
    count_.push_back(0);
    target_.push_back(0);
    key_pos_.push_back(-1);
    surplus_pos_.push_back(-1);
  }
  return id;
}

void CountGapTable::Add(int32_t id, int64_t d) {
  gap_ += Term(id, d);
  mass_ += d;
  count_[static_cast<size_t>(id)] += d;
  Track(id);
}

void CountGapTable::Track(int32_t id) {
  const auto i = static_cast<size_t>(id);
  const int32_t k = key_pos_[i];
  if (k >= 0) {
    const uint64_t bit = uint64_t{1} << (k % 64);
    uint64_t& word = deficit_[static_cast<size_t>(k / 64)];
    word = count_[i] < target_[i] ? word | bit : word & ~bit;
  }
  const bool surplus = count_[i] > std::max<int64_t>(0, target_[i]);
  const int32_t pos = surplus_pos_[i];
  if (surplus && pos < 0) {
    surplus_pos_[i] = static_cast<int32_t>(surplus_.size());
    surplus_.push_back(id);
  } else if (!surplus && pos >= 0) {
    const int32_t last = surplus_.back();
    surplus_[static_cast<size_t>(pos)] = last;
    surplus_pos_[static_cast<size_t>(last)] = pos;
    surplus_.pop_back();
    surplus_pos_[i] = -1;
  }
}

void CountGapTable::SetTarget(const FrequencyDistribution& target,
                              int64_t space) {
  assert(target.dim() == width());
  std::fill(target_.begin(), target_.end(), 0);
  target_mass_ = 0;
  by_key_.clear();
  for (const auto& [key, c] : target.counts()) {  // key order
    if (std::all_of(key.begin(), key.end(),
                    [](int64_t x) { return x == 0; })) {
      continue;
    }
    const int32_t id = Intern(key);
    target_[static_cast<size_t>(id)] = c;
    target_mass_ += c;
    if (c > 0) by_key_.push_back(id);
  }
  target_space_ = space;
  gap_ = 0;
  for (size_t id = 0; id < count_.size(); ++id) {
    gap_ += std::llabs(count_[id] - target_[id]);
  }
  std::fill(key_pos_.begin(), key_pos_.end(), -1);
  for (size_t k = 0; k < by_key_.size(); ++k) {
    key_pos_[static_cast<size_t>(by_key_[k])] = static_cast<int32_t>(k);
  }
  deficit_.assign((by_key_.size() + 63) / 64, 0);
  surplus_.clear();
  std::fill(surplus_pos_.begin(), surplus_pos_.end(), -1);
  for (int32_t id = 0; id < size(); ++id) Track(id);
}

FrequencyDistribution CountGapTable::Current() const {
  FrequencyDistribution out(width());
  for (int32_t id = 0; id < size(); ++id) {
    const auto k = key(id);
    out.Add(FrequencyDistribution::Key(k.begin(), k.end()), count(id));
  }
  return out;
}

void CountGapTable::ConvertDeficits(int64_t guard, const Convert& convert) {
  const auto width = static_cast<size_t>(this->width());
  const std::vector<int64_t> zero(width, 0);
  // Id -1 stands for the implicit zero key.
  auto key_of = [&](int32_t id) -> Keys {
    return id < 0 ? Keys(zero) : key(id);
  };
  // Stuck deficits: bits over by_key_ positions, and the zero key.
  std::vector<uint64_t> stuck(deficit_.size(), 0);
  bool zero_stuck = false;
  std::vector<int64_t> deficit(width), surplus(width);
  std::vector<std::pair<int64_t, int32_t>> heap;  // (distance, id)
  // Heap order: the front is the surplus that sorts first by
  // (distance, key). Keys are distinct, so the order is total.
  auto after = [&](const std::pair<int64_t, int32_t>& a,
                   const std::pair<int64_t, int32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    const Keys ka = key_of(a.second), kb = key_of(b.second);
    return std::lexicographical_compare(kb.begin(), kb.end(), ka.begin(),
                                        ka.end());
  };
  while (guard-- > 0) {
    int64_t pos = -1;  // by_key_ position of the deficit
    for (size_t w = 0; w < deficit_.size(); ++w) {
      const uint64_t open = deficit_[w] & ~stuck[w];
      if (open != 0) {
        pos = static_cast<int64_t>(w * 64) + std::countr_zero(open);
        break;
      }
    }
    if (pos < 0 && (zero_stuck || zero_count() >= zero_target())) break;
    const int32_t d = pos < 0 ? -1 : by_key_[static_cast<size_t>(pos)];
    const Keys dk = key_of(d);
    std::copy(dk.begin(), dk.end(), deficit.begin());

    auto distance = [&](Keys k) {
      int64_t sum = 0;
      for (size_t i = 0; i < width; ++i) sum += std::llabs(k[i] - deficit[i]);
      return sum;
    };
    heap.clear();
    for (const int32_t id : surplus_) heap.emplace_back(distance(key(id)), id);
    if (zero_count() > zero_target()) heap.emplace_back(distance(zero), -1);
    std::make_heap(heap.begin(), heap.end(), after);
    bool converted = false;
    while (!converted && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), after);
      // A copy: a conversion may intern keys and move the interner's.
      const Keys sk = key_of(heap.back().second);
      heap.pop_back();
      std::copy(sk.begin(), sk.end(), surplus.begin());
      converted = convert(surplus, deficit);
    }
    if (converted) continue;
    if (pos < 0) {
      zero_stuck = true;
    } else {
      stuck[static_cast<size_t>(pos / 64)] |= uint64_t{1} << (pos % 64);
    }
  }
}

}  // namespace aspect
