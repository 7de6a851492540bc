#include "stats/count_gap.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace aspect {

KeyInterner::KeyInterner(int width) : width_(width) { Rehash(16); }

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
  }
  return id;
}

void CountGapTable::Add(int32_t id, int64_t d) {
  gap_ += Term(id, d);
  mass_ += d;
  count_[static_cast<size_t>(id)] += d;
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
  std::vector<char> stuck(static_cast<size_t>(size()) + 1, 0);  // id + 1
  std::vector<int64_t> deficit(width), surplus(width);
  std::vector<std::pair<int64_t, int32_t>> surpluses;  // (distance, id)
  auto before = [&](const std::pair<int64_t, int32_t>& a,
                    const std::pair<int64_t, int32_t>& b) {
    if (a.first != b.first) return a.first < b.first;
    const Keys ka = key_of(a.second), kb = key_of(b.second);
    return std::lexicographical_compare(ka.begin(), ka.end(), kb.begin(),
                                        kb.end());
  };
  while (guard-- > 0) {
    int32_t d = -2;  // none
    for (const int32_t id : by_key_) {
      if (stuck[static_cast<size_t>(id) + 1] == 0 && count(id) < target(id)) {
        d = id;
        break;
      }
    }
    if (d == -2 && stuck[0] == 0 && zero_count() < zero_target()) d = -1;
    if (d == -2) break;
    const Keys dk = key_of(d);
    std::copy(dk.begin(), dk.end(), deficit.begin());

    surpluses.clear();
    auto distance = [&](Keys k) {
      int64_t sum = 0;
      for (size_t i = 0; i < width; ++i) sum += std::llabs(k[i] - deficit[i]);
      return sum;
    };
    for (int32_t id = 0; id < size(); ++id) {
      if (count(id) > std::max<int64_t>(0, target(id))) {
        surpluses.emplace_back(distance(key(id)), id);
      }
    }
    if (zero_count() > zero_target()) {
      surpluses.emplace_back(distance(zero), -1);
    }
    std::sort(surpluses.begin(), surpluses.end(), before);
    bool converted = false;
    for (size_t i = 0; !converted && i < surpluses.size(); ++i) {
      // A copy: a conversion may intern keys and move the interner's.
      const Keys sk = key_of(surpluses[i].second);
      std::copy(sk.begin(), sk.end(), surplus.begin());
      converted = convert(surplus, deficit);
    }
    if (!converted) stuck[static_cast<size_t>(d + 1)] = 1;
  }
}

}  // namespace aspect
