#include "stats/freq_dist.h"

#include <cassert>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"

namespace aspect {

void FrequencyDistribution::Add(const Key& key, int64_t delta) {
  assert(static_cast<int>(key.size()) == dim_);
  if (delta == 0) return;
  auto [it, inserted] = counts_.try_emplace(key, 0);
  it->second += delta;
  if (it->second == 0) counts_.erase(it);
}

int64_t FrequencyDistribution::Count(const Key& key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

int64_t FrequencyDistribution::TotalMass() const {
  int64_t total = 0;
  for (const auto& [k, c] : counts_) total += c;
  return total;
}

int64_t FrequencyDistribution::TotalAbsMass() const {
  int64_t total = 0;
  for (const auto& [k, c] : counts_) total += std::llabs(c);
  return total;
}

int64_t FrequencyDistribution::WeightedSum(int d) const {
  assert(d >= 0 && d < dim_);
  int64_t total = 0;
  for (const auto& [k, c] : counts_) {
    total += k[static_cast<size_t>(d)] * c;
  }
  return total;
}

int64_t FrequencyDistribution::L1Distance(
    const FrequencyDistribution& other) const {
  assert(dim_ == other.dim_);
  int64_t total = 0;
  auto a = counts_.begin();
  auto b = other.counts_.begin();
  while (a != counts_.end() || b != other.counts_.end()) {
    if (b == other.counts_.end() ||
        (a != counts_.end() && a->first < b->first)) {
      total += std::llabs(a->second);
      ++a;
    } else if (a == counts_.end() || b->first < a->first) {
      total += std::llabs(b->second);
      ++b;
    } else {
      total += std::llabs(a->second - b->second);
      ++a;
      ++b;
    }
  }
  return total;
}

FrequencyDistribution FrequencyDistribution::Difference(
    const FrequencyDistribution& other) const {
  assert(dim_ == other.dim_);
  FrequencyDistribution out(dim_);
  out.counts_ = counts_;
  for (const auto& [k, c] : other.counts_) out.Add(k, -c);
  return out;
}

std::string FrequencyDistribution::ToString(int64_t max_entries) const {
  std::ostringstream os;
  os << "{";
  int64_t shown = 0;
  for (const auto& [k, c] : counts_) {
    if (shown++ == max_entries) {
      os << " ...";
      break;
    }
    if (shown > 1) os << ", ";
    os << "(";
    for (size_t i = 0; i < k.size(); ++i) {
      if (i > 0) os << ",";
      os << k[i];
    }
    os << "):" << c;
  }
  os << "}";
  return os.str();
}

void FrequencyDistribution::Write(std::ostream* out) const {
  *out << "dist " << dim_ << " " << counts_.size() << "\n";
  for (const auto& [k, c] : counts_) {
    for (const int64_t v : k) *out << v << " ";
    *out << c << "\n";
  }
}

Result<FrequencyDistribution> FrequencyDistribution::Read(std::istream* in,
                                                         int dim) {
  std::string tag;
  int file_dim = 0;
  int64_t entries = 0;
  if (!(*in >> tag >> file_dim >> entries) || tag != "dist" ||
      entries < 0) {
    return Status::IoError("bad distribution header");
  }
  if (file_dim != dim) {
    return Status::IoError(StrFormat("distribution dim %d, expected %d",
                                     file_dim, dim));
  }
  FrequencyDistribution out(dim);
  Key key(static_cast<size_t>(dim));
  for (int64_t e = 0; e < entries; ++e) {
    for (int64_t& v : key) {
      if (!(*in >> v)) return Status::IoError("truncated distribution");
    }
    int64_t count = 0;
    if (!(*in >> count)) return Status::IoError("truncated distribution");
    out.Add(key, count);
  }
  return out;
}

int64_t ManhattanDistance(const FrequencyDistribution::Key& a,
                          const FrequencyDistribution::Key& b) {
  assert(a.size() == b.size());
  int64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) total += std::llabs(a[i] - b[i]);
  return total;
}

}  // namespace aspect
