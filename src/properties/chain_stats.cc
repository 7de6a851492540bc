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

namespace {

/// Block room for `n` children after a build or a compaction.
int32_t Slack(int32_t n) { return n + n / 4 + 1; }

}  // namespace

void EdgeLists::Reset(int64_t child_slots, int64_t parent_slots) {
  parent_.assign(static_cast<size_t>(child_slots), -1);
  parent_slots_ = parent_slots;
  ReleaseLists();
}

void EdgeLists::Fill(const Table& child, const Column& fk) {
  child.ForEachLive([&](TupleId c) {
    if (fk.IsValue(c)) {
      parent_[static_cast<size_t>(c)] = static_cast<int32_t>(fk.GetInt(c));
    }
  });
}

void EdgeLists::BuildLists() {
  listed_ = true;
  pos_.assign(parent_.size(), -1);
  block_.assign(static_cast<size_t>(parent_slots_), Block{});
  for (const int32_t p : parent_) {
    if (p >= 0) ++block_[static_cast<size_t>(p)].size;
  }
  uint32_t begin = 0;
  for (Block& b : block_) {
    b.begin = begin;
    b.cap = Slack(b.size);
    begin += static_cast<uint32_t>(b.cap);
    b.size = 0;
  }
  arena_.assign(begin, -1);
  dead_ = 0;
  for (size_t c = 0; c < parent_.size(); ++c) {
    if (parent_[c] < 0) continue;
    Block& b = block_[static_cast<size_t>(parent_[c])];
    arena_[b.begin + static_cast<uint32_t>(b.size)] = static_cast<int32_t>(c);
    pos_[c] = b.size++;
  }
}

void EdgeLists::ReleaseLists() {
  listed_ = false;
  pos_ = {};
  block_ = {};
  arena_ = {};
  dead_ = 0;
}

void EdgeLists::EnsureChildSlots(int64_t n) {
  if (parent_.size() < static_cast<size_t>(n)) {
    parent_.resize(static_cast<size_t>(n), -1);
    if (listed_) pos_.resize(static_cast<size_t>(n), -1);
  }
}

void EdgeLists::EnsureParentSlots(int64_t n) {
  parent_slots_ = std::max(parent_slots_, n);
  if (listed_ && block_.size() < static_cast<size_t>(n)) {
    block_.resize(static_cast<size_t>(n), Block{});
  }
}

void EdgeLists::Link(TupleId c, TupleId p) {
  assert(Parent(c) == kInvalidTuple);
  parent_[static_cast<size_t>(c)] = static_cast<int32_t>(p);
  if (!listed_) return;
  if (block_[static_cast<size_t>(p)].size ==
      block_[static_cast<size_t>(p)].cap) {
    Grow(p);
  }
  Block& b = block_[static_cast<size_t>(p)];
  arena_[b.begin + static_cast<uint32_t>(b.size)] = static_cast<int32_t>(c);
  pos_[static_cast<size_t>(c)] = b.size++;
}

void EdgeLists::Unlink(TupleId c) {
  const int32_t p = parent_[static_cast<size_t>(c)];
  if (p < 0) return;
  parent_[static_cast<size_t>(c)] = -1;
  if (!listed_) return;
  Block& b = block_[static_cast<size_t>(p)];
  const int32_t pos = pos_[static_cast<size_t>(c)];
  const int32_t last = arena_[b.begin + static_cast<uint32_t>(b.size) - 1];
  arena_[b.begin + static_cast<uint32_t>(pos)] = last;
  pos_[static_cast<size_t>(last)] = pos;
  --b.size;
}

int64_t EdgeLists::LiveCells() const {
  int64_t n = 0;
  for (const Block& b : block_) n += b.cap;
  return n;
}

void EdgeLists::Grow(TupleId p) {
  if (dead_ * 2 > arena_.size()) {
    Compact();  // leaves every block with room for one more
    return;
  }
  Block& b = block_[static_cast<size_t>(p)];
  const int32_t cap = std::max(2 * b.cap, 2);
  if (b.begin + static_cast<uint32_t>(b.cap) == arena_.size()) {
    arena_.resize(b.begin + static_cast<uint32_t>(cap));  // last block
  } else {
    const auto begin = static_cast<uint32_t>(arena_.size());
    arena_.resize(arena_.size() + static_cast<size_t>(cap));
    std::copy_n(arena_.begin() + b.begin, b.size, arena_.begin() + begin);
    dead_ += static_cast<size_t>(b.cap);
    b.begin = begin;
  }
  b.cap = cap;
}

void EdgeLists::Compact() {
  std::vector<int32_t> arena;
  size_t cells = 0;
  for (const Block& b : block_) cells += static_cast<size_t>(Slack(b.size));
  arena.resize(cells);
  uint32_t begin = 0;
  for (Block& b : block_) {
    std::copy_n(arena_.begin() + b.begin, b.size, arena.begin() + begin);
    b.begin = begin;
    b.cap = Slack(b.size);
    begin += static_cast<uint32_t>(b.cap);
  }
  arena_.swap(arena);
  dead_ = 0;
}

ChainStats::ChainStats(ReferenceChain chain)
    : chain_(std::move(chain)),
      h_(static_cast<int>(chain_.tables.size())),
      edge_id_(chain_.tables.size(), -1),
      edge_(chain_.tables.size(), nullptr),
      cnt_(chain_.tables.size()) {}

int ChainStats::LevelOfTable(int table_index) const {
  for (size_t l = 0; l < chain_.tables.size(); ++l) {
    if (chain_.tables[l] == table_index) return static_cast<int>(l);
  }
  return -1;
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
    TupleId next = kInvalidTuple;
    for (const TupleId c : Children(l, cur)) {
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

void ChainStats::Propagate(int level, TupleId t, int j, int delta,
                           int64_t* h, int stride) {
  int l = level;
  TupleId cur = t;
  while (true) {
    const auto width = static_cast<size_t>(k() - 1 - l);
    int32_t& c = cnt_[static_cast<size_t>(l)]
                     [static_cast<size_t>(cur) * width +
                      static_cast<size_t>(j - l - 1)];
    c += static_cast<int32_t>(delta);
    assert(c >= 0);
    const bool flipped = (delta > 0 && c == 1) || (delta < 0 && c == 0);
    if (!flipped) return;
    if (h != nullptr) h[j * stride + l] += delta;
    if (l == 0) return;
    const TupleId p = Parent(l, cur);
    if (p == kInvalidTuple) return;
    cur = p;
    --l;
  }
}

void ChainStats::AddReach(int level, TupleId child, TupleId parent,
                          int delta, int64_t* h, int stride) {
  EnsureRows(level, child + 1);
  EnsureRows(level - 1, parent + 1);
  // The child contributes its whole (contiguous) reach set upward.
  const int max_reach = MaxReach(level, child);
  for (int j = level; j <= max_reach; ++j) {
    Propagate(level - 1, parent, j, delta, h, stride);
  }
}

LinearStats::LinearStats(std::vector<ReferenceChain> chains) {
  for (ReferenceChain& c : chains) {
    max_k_ = std::max(max_k_, c.length());
    chains_.push_back(ChainStats(std::move(c)));
  }
  // Edges in order of first use; each edge's uses in chain order.
  std::vector<std::vector<Use>> uses;
  for (size_t ci = 0; ci < chains_.size(); ++ci) {
    ChainStats& s = chains_[ci];
    for (int l = 1; l < s.k(); ++l) {
      const int table = s.chain_.tables[static_cast<size_t>(l)];
      const int col = s.chain_.fk_cols[static_cast<size_t>(l) - 1];
      int e = EdgeOf(table, col);
      if (e < 0) {
        e = static_cast<int>(edge_table_.size());
        edge_table_.push_back(table);
        edge_col_.push_back(col);
        edge_parent_.push_back(s.chain_.tables[static_cast<size_t>(l) - 1]);
        uses.emplace_back();
        if (col_edge_.size() <= static_cast<size_t>(table)) {
          col_edge_.resize(static_cast<size_t>(table) + 1);
        }
        std::vector<int>& cols = col_edge_[static_cast<size_t>(table)];
        if (cols.size() <= static_cast<size_t>(col)) {
          cols.resize(static_cast<size_t>(col) + 1, -1);
        }
        cols[static_cast<size_t>(col)] = e;
      }
      s.edge_id_[static_cast<size_t>(l)] = e;
      uses[static_cast<size_t>(e)].push_back({static_cast<int>(ci), l});
    }
  }
  use_begin_.push_back(0);
  for (const std::vector<Use>& u : uses) {
    uses_.insert(uses_.end(), u.begin(), u.end());
    use_begin_.push_back(static_cast<int>(uses_.size()));
  }
  edges_.resize(edge_table_.size());
  WireEdges();
}

LinearStats::LinearStats(const LinearStats& other)
    : chains_(other.chains_),
      edges_(other.edges_),
      edge_table_(other.edge_table_),
      edge_col_(other.edge_col_),
      edge_parent_(other.edge_parent_),
      col_edge_(other.col_edge_),
      uses_(other.uses_),
      use_begin_(other.use_begin_),
      max_k_(other.max_k_) {
  WireEdges();
}

LinearStats& LinearStats::operator=(const LinearStats& other) {
  if (this != &other) {
    *this = LinearStats(other);
  }
  return *this;
}

void LinearStats::WireEdges() {
  for (ChainStats& s : chains_) {
    for (int l = 1; l < s.k(); ++l) {
      s.edge_[static_cast<size_t>(l)] =
          &edges_[static_cast<size_t>(s.edge_id_[static_cast<size_t>(l)])];
    }
  }
}

int LinearStats::EdgeOf(int table, int col) const {
  if (table < 0 || static_cast<size_t>(table) >= col_edge_.size()) return -1;
  const std::vector<int>& cols = col_edge_[static_cast<size_t>(table)];
  return col >= 0 && static_cast<size_t>(col) < cols.size()
             ? cols[static_cast<size_t>(col)]
             : -1;
}

void LinearStats::Reset(const Database& db) {
  for (size_t e = 0; e < edges_.size(); ++e) {
    edges_[e].Reset(db.table(edge_table_[e]).NumSlots(),
                    db.table(edge_parent_[e]).NumSlots());
  }
  for (ChainStats& s : chains_) {
    s.h_ = JoinMatrix(s.k());
    for (int l = 0; l < s.k(); ++l) {
      const auto slots = static_cast<size_t>(
          db.table(s.chain_.tables[static_cast<size_t>(l)]).NumSlots());
      s.cnt_[static_cast<size_t>(l)].assign(
          slots * static_cast<size_t>(s.k() - 1 - l), 0);
    }
  }
}

void LinearStats::BuildLists() {
  for (EdgeLists& e : edges_) e.BuildLists();
}

void LinearStats::ReleaseLists() {
  for (EdgeLists& e : edges_) e.ReleaseLists();
}

void LinearStats::EnsureTableSlots(int table, int64_t slots) {
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (edge_table_[e] == table) edges_[e].EnsureChildSlots(slots);
    if (edge_parent_[e] == table) edges_[e].EnsureParentSlots(slots);
  }
  for (ChainStats& s : chains_) {
    const int l = s.LevelOfTable(table);
    if (l >= 0) s.EnsureRows(l, slots);
  }
}

void LinearStats::Relink(int e, TupleId child, TupleId parent) {
  EdgeLists& edge = edges_[static_cast<size_t>(e)];
  edge.EnsureChildSlots(child + 1);
  edge.Unlink(child);
  if (parent == kInvalidTuple) return;
  edge.EnsureParentSlots(parent + 1);
  edge.Link(child, parent);
}

void LinearStats::AddReach(int c, int level, TupleId child, TupleId parent,
                           int delta) {
  ChainStats& s = chains_[static_cast<size_t>(c)];
  s.AddReach(level, child, parent, delta, s.h_.data(), s.k());
}

void LinearStats::Attach(int e, TupleId child, TupleId parent) {
  Relink(e, child, parent);
  for (const Use& u : Uses(e)) AddReach(u.chain, u.level, child, parent, +1);
}

void LinearStats::Detach(int e, TupleId child) {
  EdgeLists& edge = edges_[static_cast<size_t>(e)];
  edge.EnsureChildSlots(child + 1);
  const TupleId parent = edge.Parent(child);
  if (parent == kInvalidTuple) return;
  for (const Use& u : Uses(e)) AddReach(u.chain, u.level, child, parent, -1);
  Relink(e, child, kInvalidTuple);
}

void LinearStats::EvaluateMove(int e, std::span<const TupleId> children,
                               TupleId parent, MoveDelta* out) {
  EdgeLists& edge = edges_[static_cast<size_t>(e)];
  const std::span<const Use> uses = Uses(e);
  out->stride = max_k_;
  const size_t block = static_cast<size_t>(max_k_ * max_k_);
  out->h.assign(uses.size() * block, 0);
  out->moved.clear();
  for (const TupleId c : children) {
    const TupleId old = edge.Parent(c);
    if (old != parent) out->moved.emplace_back(c, old);
  }
  // Counters: apply every move, recording the matrix flips, then
  // revert them without recording. Flips only depend on the final
  // counts, so the record is the net change.
  for (size_t u = 0; u < uses.size(); ++u) {
    ChainStats& s = chains_[static_cast<size_t>(uses[u].chain)];
    const int level = uses[u].level;
    int64_t* h = out->h.data() + u * block;
    for (const auto& [c, old] : out->moved) {
      if (old != kInvalidTuple) s.AddReach(level, c, old, -1, h, max_k_);
      s.AddReach(level, c, parent, +1, h, max_k_);
    }
    for (auto it = out->moved.rbegin(); it != out->moved.rend(); ++it) {
      s.AddReach(level, it->first, parent, -1, nullptr, 0);
      if (it->second != kInvalidTuple) {
        s.AddReach(level, it->first, it->second, +1, nullptr, 0);
      }
    }
  }
  // Lists: the new parent's list would grow and shrink back; each old
  // parent's list sees the swap-remove and the re-append.
  if (!edge.listed()) return;
  for (const auto& [c, old] : out->moved) {
    if (old != kInvalidTuple) edge.Unlink(c);
  }
  for (auto it = out->moved.rbegin(); it != out->moved.rend(); ++it) {
    if (it->second != kInvalidTuple) edge.Link(it->first, it->second);
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

void LinearStats::Build(const Database& db) {
  Reset(db);
  for (size_t e = 0; e < edges_.size(); ++e) {
    const Table& child = db.table(edge_table_[e]);
    edges_[e].Fill(child, child.column(edge_col_[e]));
  }
  // Every attached child is counted at every level it reaches:
  // cnt(L-1, p, j)++ for j in [L, reach(c)].
  for (ChainStats& s : chains_) {
    const int kk = s.k();
    const std::vector<std::vector<int8_t>> reach = ReachArrays(db, s.chain_);
    s.h_ = MatrixOfReach(reach);
    for (int l = 1; l < kk; ++l) {
      const auto ls = static_cast<size_t>(l);
      const std::vector<int32_t>& parent = s.edge_[ls]->parent_;
      const std::vector<int8_t>& r = reach[ls];
      std::vector<int32_t>& rows = s.cnt_[ls - 1];
      const auto width = static_cast<size_t>(kk - l);
      for (size_t c = 0; c < parent.size(); ++c) {
        if (parent[c] < 0) continue;
        int32_t* counts = rows.data() + static_cast<size_t>(parent[c]) * width;
        for (int j = l; j <= r[c]; ++j) ++counts[j - l];
      }
    }
  }
}

JoinMatrix ComputeJoinMatrix(const Database& db,
                             const ReferenceChain& chain) {
  return MatrixOfReach(ReachArrays(db, chain));
}

}  // namespace aspect
