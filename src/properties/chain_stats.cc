#include "properties/chain_stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace aspect {

double JoinMatrix::ErrorAgainst(const JoinMatrix& target) const {
  assert(k_ == target.k_);
  if (k_ < 2) return 0.0;
  double sum = 0;
  int n = 0;
  for (int j = 1; j < k_; ++j) {
    for (int i = 0; i < j; ++i) {
      const double t = static_cast<double>(target.at(j, i));
      const double v = static_cast<double>(at(j, i));
      sum += std::fabs(v - t) / std::max(t, 1.0);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

std::string JoinMatrix::ToString() const {
  std::ostringstream os;
  for (int j = 1; j < k_; ++j) {
    os << "[";
    for (int i = 0; i < j; ++i) {
      if (i > 0) os << " ";
      os << at(j, i);
    }
    os << "]";
  }
  return os.str();
}

ChainStats::ChainStats(ReferenceChain chain)
    : chain_(std::move(chain)), h_(static_cast<int>(chain_.tables.size())) {}

int ChainStats::LevelOfTable(int table_index) const {
  for (size_t l = 0; l < chain_.tables.size(); ++l) {
    if (chain_.tables[l] == table_index) return static_cast<int>(l);
  }
  return -1;
}

int32_t ChainStats::Cnt(int level, TupleId t, int j) const {
  assert(j > level && j < k());
  const int width = k() - 1 - level;
  return cnt_[static_cast<size_t>(level)]
             [static_cast<size_t>(t) * static_cast<size_t>(width) +
              static_cast<size_t>(j - level - 1)];
}

int ChainStats::MaxReach(int level, TupleId t) const {
  int r = level;
  for (int j = level + 1; j < k(); ++j) {
    if (Cnt(level, t, j) > 0) {
      r = j;
    } else {
      break;  // reach sets are contiguous
    }
  }
  return r;
}

TupleId ChainStats::AncestorAt(int level, TupleId t, int target_level) const {
  assert(target_level <= level);
  TupleId cur = t;
  for (int l = level; l > target_level; --l) {
    cur = Parent(l, cur);
    if (cur == kInvalidTuple) return kInvalidTuple;
  }
  return cur;
}

TupleId ChainStats::DescendantAt(int level, TupleId t,
                                 int target_level) const {
  assert(target_level >= level);
  TupleId cur = t;
  for (int l = level; l < target_level; ++l) {
    const auto& kids = Children(l, cur);
    TupleId next = kInvalidTuple;
    for (const TupleId c : kids) {
      if (Reaches(l + 1, c, target_level)) {
        next = c;
        break;
      }
    }
    if (next == kInvalidTuple) return kInvalidTuple;
    cur = next;
  }
  return cur;
}

void ChainStats::Propagate(int level, TupleId t, int j, int delta) {
  // Adjusts cnt(level, t, j) by delta and, when the tuple's reach to j
  // flips, updates h(j, level) and recurses to the parent.
  int l = level;
  TupleId cur = t;
  while (true) {
    const int width = k() - 1 - l;
    int32_t& c = cnt_[static_cast<size_t>(l)]
                     [static_cast<size_t>(cur) * static_cast<size_t>(width) +
                      static_cast<size_t>(j - l - 1)];
    c += static_cast<int32_t>(delta);
    assert(c >= 0);
    const bool flipped =
        (delta > 0 && c == 1) || (delta < 0 && c == 0);
    if (!flipped) return;
    h_.add(j, l, delta);
    if (l == 0) return;
    const TupleId p = Parent(l, cur);
    if (p == kInvalidTuple) return;
    cur = p;
    --l;
  }
}

void ChainStats::Attach(int level, TupleId child, TupleId parent) {
  assert(level >= 1 && level < k());
  assert(Parent(level, child) == kInvalidTuple);
  parent_[static_cast<size_t>(level)][static_cast<size_t>(child)] = parent;
  auto& kids = children_[static_cast<size_t>(level - 1)]
                        [static_cast<size_t>(parent)];
  child_pos_[static_cast<size_t>(level)][static_cast<size_t>(child)] =
      static_cast<int32_t>(kids.size());
  kids.push_back(child);
  // The child contributes its whole (contiguous) reach set upward.
  const int max_reach = MaxReach(level, child);
  for (int j = level; j <= max_reach; ++j) {
    Propagate(level - 1, parent, j, +1);
  }
}

void ChainStats::Detach(int level, TupleId child) {
  assert(level >= 1 && level < k());
  const TupleId parent =
      parent_[static_cast<size_t>(level)][static_cast<size_t>(child)];
  if (parent == kInvalidTuple) return;
  const int max_reach = MaxReach(level, child);
  for (int j = level; j <= max_reach; ++j) {
    Propagate(level - 1, parent, j, -1);
  }
  // Swap-remove from the parent's children list.
  auto& kids = children_[static_cast<size_t>(level - 1)]
                        [static_cast<size_t>(parent)];
  const int32_t pos =
      child_pos_[static_cast<size_t>(level)][static_cast<size_t>(child)];
  const TupleId last = kids.back();
  kids[static_cast<size_t>(pos)] = last;
  child_pos_[static_cast<size_t>(level)][static_cast<size_t>(last)] = pos;
  kids.pop_back();
  parent_[static_cast<size_t>(level)][static_cast<size_t>(child)] =
      kInvalidTuple;
}

void ChainStats::EnsureSlotCount(int level, int64_t slots) {
  const int kk = k();
  const size_t n = static_cast<size_t>(slots);
  const size_t l = static_cast<size_t>(level);
  if (level >= 1) {
    if (parent_[l].size() < n) parent_[l].resize(n, kInvalidTuple);
    if (child_pos_[l].size() < n) child_pos_[l].resize(n, -1);
  }
  if (level <= kk - 2 && children_[l].size() < n) {
    children_[l].resize(n);
  }
  const size_t width = static_cast<size_t>(kk - 1 - level);
  if (cnt_[l].size() < n * width) cnt_[l].resize(n * width, 0);
}

void ChainStats::EnsureCapacity(const Database& db) {
  const int kk = k();
  parent_.resize(static_cast<size_t>(kk));
  children_.resize(static_cast<size_t>(kk));
  child_pos_.resize(static_cast<size_t>(kk));
  cnt_.resize(static_cast<size_t>(kk));
  for (int l = 0; l < kk; ++l) {
    const Table& t = db.table(chain_.tables[static_cast<size_t>(l)]);
    const size_t slots = static_cast<size_t>(t.NumSlots());
    if (l >= 1) {
      parent_[static_cast<size_t>(l)].resize(slots, kInvalidTuple);
      child_pos_[static_cast<size_t>(l)].resize(slots, -1);
    }
    if (l <= kk - 2) {
      children_[static_cast<size_t>(l)].resize(slots);
    }
    const size_t width = static_cast<size_t>(kk - 1 - l);
    cnt_[static_cast<size_t>(l)].resize(slots * width, 0);
  }
}

namespace {

/// Deepest level each slot of each level of `chain` reaches in `db`:
/// reach[L][t] = max(L, reach of t's children at L+1), where a child is
/// a live tuple whose FK cell holds t. One pass per level, bottom up.
std::vector<std::vector<int8_t>> ReachArrays(const Database& db,
                                             const ReferenceChain& chain) {
  const int kk = static_cast<int>(chain.tables.size());
  assert(kk <= INT8_MAX);
  std::vector<std::vector<int8_t>> reach(static_cast<size_t>(kk));
  for (int l = kk - 1; l >= 0; --l) {
    const Table& t = db.table(chain.tables[static_cast<size_t>(l)]);
    reach[static_cast<size_t>(l)].assign(static_cast<size_t>(t.NumSlots()),
                                         static_cast<int8_t>(l));
    if (l == kk - 1) continue;
    const Table& child = db.table(chain.tables[static_cast<size_t>(l + 1)]);
    const Column& fk = child.column(chain.fk_cols[static_cast<size_t>(l)]);
    std::vector<int8_t>& up = reach[static_cast<size_t>(l)];
    const std::vector<int8_t>& down = reach[static_cast<size_t>(l + 1)];
    child.ForEachLive([&](TupleId c) {
      if (!fk.IsValue(c)) return;
      int8_t& r = up[static_cast<size_t>(fk.GetInt(c))];
      r = std::max(r, down[static_cast<size_t>(c)]);
    });
  }
  return reach;
}

/// h(j, i) = number of level-i slots whose reach is at least j.
JoinMatrix MatrixOfReach(const std::vector<std::vector<int8_t>>& reach) {
  const int kk = static_cast<int>(reach.size());
  JoinMatrix h(kk);
  std::vector<int64_t> at_least(static_cast<size_t>(kk) + 1);
  for (int i = 0; i < kk; ++i) {
    std::fill(at_least.begin(), at_least.end(), 0);
    for (const int8_t r : reach[static_cast<size_t>(i)]) {
      ++at_least[static_cast<size_t>(r)];
    }
    for (int j = kk - 1; j > i; --j) {
      at_least[static_cast<size_t>(j)] += at_least[static_cast<size_t>(j) + 1];
      h.set(j, i, at_least[static_cast<size_t>(j)]);
    }
  }
  return h;
}

}  // namespace

void ChainStats::Build(const Database& db) {
  const int kk = k();
  const std::vector<std::vector<int8_t>> reach = ReachArrays(db, chain_);
  h_ = MatrixOfReach(reach);
  parent_.assign(static_cast<size_t>(kk), {});
  children_.assign(static_cast<size_t>(kk), {});
  child_pos_.assign(static_cast<size_t>(kk), {});
  cnt_.assign(static_cast<size_t>(kk), {});
  EnsureCapacity(db);
  // Every live child with an FK value is attached to its parent, in
  // slot order (the order Attach one tuple at a time would leave), and
  // counted at every level it reaches: cnt(L-1, p, j)++ for j in
  // [L, reach(t)].
  for (int l = 1; l < kk; ++l) {
    const auto ls = static_cast<size_t>(l);
    const Table& t = db.table(chain_.tables[ls]);
    const Column& fk = t.column(chain_.fk_cols[ls - 1]);
    std::vector<std::vector<TupleId>>& kids = children_[ls - 1];
    std::vector<int32_t> fanout(kids.size(), 0);
    t.ForEachLive([&](TupleId c) {
      if (fk.IsValue(c)) ++fanout[static_cast<size_t>(fk.GetInt(c))];
    });
    for (size_t p = 0; p < kids.size(); ++p) {
      kids[p].reserve(static_cast<size_t>(fanout[p]));
    }
    const auto width = static_cast<size_t>(kk - l);
    t.ForEachLive([&](TupleId c) {
      if (!fk.IsValue(c)) return;
      const TupleId p = fk.GetInt(c);
      auto& list = kids[static_cast<size_t>(p)];
      parent_[ls][static_cast<size_t>(c)] = p;
      child_pos_[ls][static_cast<size_t>(c)] =
          static_cast<int32_t>(list.size());
      list.push_back(c);
      int32_t* counts = cnt_[ls - 1].data() + static_cast<size_t>(p) * width;
      for (int j = l; j <= reach[ls][static_cast<size_t>(c)]; ++j) {
        ++counts[j - l];
      }
    });
  }
}

JoinMatrix ComputeJoinMatrix(const Database& db,
                             const ReferenceChain& chain) {
  return MatrixOfReach(ReachArrays(db, chain));
}

}  // namespace aspect
