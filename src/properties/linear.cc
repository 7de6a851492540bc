#include "properties/linear.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/string_util.h"

namespace aspect {
namespace {

/// Sliding-window minimum of sizes[i..j] inclusive.
int64_t WindowMin(const std::vector<int64_t>& sizes, int i, int j) {
  int64_t m = sizes[static_cast<size_t>(i)];
  for (int n = i + 1; n <= j; ++n) {
    m = std::min(m, sizes[static_cast<size_t>(n)]);
  }
  return m;
}

}  // namespace

struct LinearPropertyTool::Scratch {
  std::vector<EdgeChange> changes;
  std::vector<int> affected;  // ascending chain ids
  std::vector<double> chain_move;
  std::vector<double> suffix;
  std::vector<std::pair<int, TupleId>> inserts;  // (table, seen so far)
  MoveDelta delta;
};

LinearPropertyTool::Scratch& LinearPropertyTool::ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

LinearPropertyTool::LinearPropertyTool(const Schema& schema)
    : schema_(schema) {
  ReferenceGraph graph(schema_);
  chains_ = graph.MaximalChains();
  stats_ = LinearStats(chains_);
  for (const ReferenceChain& c : chains_) targets_.emplace_back(c.length());
}

Status LinearPropertyTool::SetTargetFromDataset(
    const Database& ground_truth) {
  for (size_t ci = 0; ci < chains_.size(); ++ci) {
    targets_[ci] = ComputeJoinMatrix(ground_truth, chains_[ci]);
  }
  return Status::OK();
}

Status LinearPropertyTool::SetTargetMatrices(
    std::vector<JoinMatrix> targets) {
  if (targets.size() != chains_.size()) {
    return Status::Invalid(
        StrFormat("expected %zu matrices, got %zu", chains_.size(),
                  targets.size()));
  }
  for (size_t ci = 0; ci < chains_.size(); ++ci) {
    if (targets[ci].k() != chains_[ci].length()) {
      return Status::Invalid(StrFormat("matrix %zu has wrong size", ci));
    }
  }
  targets_ = std::move(targets);
  return Status::OK();
}

Status LinearPropertyTool::CheckMatrixFeasible(
    const JoinMatrix& m, const std::vector<int64_t>& sizes) {
  const int k = m.k();
  for (int j = 1; j < k; ++j) {
    for (int i = 0; i < j; ++i) {
      if (m.at(j, i) < 1) {
        return Status::Infeasible(
            StrFormat("entry (%d,%d) below 1", j, i));
      }
      if (m.at(j, i) > WindowMin(sizes, i, j)) {
        return Status::Infeasible(
            StrFormat("L1 violated at (%d,%d)", j, i));  // h <= min |Tn|
      }
    }
  }
  for (int i = 0; i < k - 1; ++i) {
    for (int j = i + 2; j < k; ++j) {
      if (m.at(j, i) > m.at(j - 1, i)) {
        return Status::Infeasible(
            StrFormat("L2 violated at (%d,%d)", j, i));
      }
    }
  }
  for (int j = 2; j < k; ++j) {
    for (int i = 1; i < j; ++i) {
      if (m.at(j, i) < m.at(j, i - 1)) {
        return Status::Infeasible(
            StrFormat("L3 violated at (%d,%d)", j, i));
      }
    }
  }
  for (int j = 1; j + 1 < k; ++j) {
    for (int i = 0; i + 1 < j; ++i) {
      if (m.at(j, i) - m.at(j + 1, i) >
          m.at(j, i + 1) - m.at(j + 1, i + 1)) {
        return Status::Infeasible(
            StrFormat("L4 violated at (%d,%d)", j, i));
      }
    }
  }
  return Status::OK();
}

void LinearPropertyTool::RepairMatrix(JoinMatrix* m,
                                      const std::vector<int64_t>& sizes) {
  const int k = m->k();
  for (int round = 0; round < 200; ++round) {
    bool changed = false;
    auto clamp = [&](int j, int i, int64_t lo, int64_t hi) {
      const int64_t v = m->at(j, i);
      const int64_t c = std::clamp(v, lo, hi);
      if (c != v) {
        m->set(j, i, c);
        changed = true;
      }
    };
    // L1 and >= 1.
    for (int j = 1; j < k; ++j) {
      for (int i = 0; i < j; ++i) {
        clamp(j, i, 1, std::max<int64_t>(1, WindowMin(sizes, i, j)));
      }
    }
    // L2: columns non-increasing in j.
    for (int i = 0; i < k - 1; ++i) {
      for (int j = i + 2; j < k; ++j) {
        clamp(j, i, 1, m->at(j - 1, i));
      }
    }
    // L3: rows non-decreasing in i.
    for (int j = 2; j < k; ++j) {
      for (int i = 1; i < j; ++i) {
        if (m->at(j, i) < m->at(j, i - 1)) {
          m->set(j, i, m->at(j, i - 1));
          changed = true;
        }
      }
    }
    // L4: clamp h[j+1][i+1] <= h[j][i+1] - h[j][i] + h[j+1][i].
    for (int j = 1; j + 1 < k; ++j) {
      for (int i = 0; i + 1 < j; ++i) {
        const int64_t bound =
            m->at(j, i + 1) - m->at(j, i) + m->at(j + 1, i);
        if (m->at(j + 1, i + 1) > bound) {
          m->set(j + 1, i + 1, std::max<int64_t>(1, bound));
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  if (!CheckMatrixFeasible(*m, sizes).ok()) {
    // Guaranteed-feasible fallback: the window-minimum matrix (the
    // fully connected shape), which satisfies L1-L4 by construction.
    for (int j = 1; j < k; ++j) {
      for (int i = 0; i < j; ++i) {
        m->set(j, i, std::max<int64_t>(1, WindowMin(sizes, i, j)));
      }
    }
  }
}

Status LinearPropertyTool::RepairTarget() {
  if (!bound()) return Status::Invalid("linear: RepairTarget needs Bind");
  for (size_t ci = 0; ci < chains_.size(); ++ci) {
    std::vector<int64_t> sizes;
    for (const int t : chains_[ci].tables) {
      sizes.push_back(db_->table(t).NumTuples());
    }
    RepairMatrix(&targets_[ci], sizes);
  }
  return Status::OK();
}

Status LinearPropertyTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("linear: needs Bind");
  for (size_t ci = 0; ci < chains_.size(); ++ci) {
    std::vector<int64_t> sizes;
    for (const int t : chains_[ci].tables) {
      sizes.push_back(db_->table(t).NumTuples());
    }
    Status st = CheckMatrixFeasible(targets_[ci], sizes);
    if (!st.ok()) {
      return Status::Infeasible(
          StrFormat("chain %zu: %s", ci, st.message().c_str()));
    }
  }
  return Status::OK();
}

Status LinearPropertyTool::Bind(Database* db) {
  if (db->schema().TableIndex(schema_.tables[0].name) < 0) {
    return Status::Invalid("linear: schema mismatch");
  }
  db_ = db;
  stats_.Build(*db_);
  db_->AddListener(this);
  return Status::OK();
}

void LinearPropertyTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
}

double LinearPropertyTool::Error() const {
  if (chains_.empty()) return 0.0;
  double sum = 0;
  for (size_t ci = 0; ci < chains_.size(); ++ci) {
    sum += stats_.chain(static_cast<int>(ci)).matrix().ErrorAgainst(
        targets_[ci]);
  }
  return sum / static_cast<double>(chains_.size());
}

void LinearPropertyTool::CollectEdgeChanges(
    const Modification& mod, const std::vector<Value>* old_values,
    TupleId new_tuple, std::vector<EdgeChange>* out) const {
  const int table = db_->schema().TableIndex(mod.table);
  if (table < 0) return;

  auto parent_of = [](const Value& v) {
    return v.is_null() ? kInvalidTuple : v.int64();
  };
  // One share per chain through the edge, in chain order.
  auto push = [&](int edge, TupleId child, TupleId old_parent,
                  TupleId new_parent) {
    bool first = true;
    for (const LinearStats::Use& u : stats_.Uses(edge)) {
      out->push_back({edge, u.chain, u.level, first, child, old_parent,
                      new_parent});
      first = false;
    }
  };

  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues: {
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        const int edge = stats_.EdgeOf(table, mod.cols[cj]);
        if (edge < 0) continue;
        const TupleId new_parent = mod.kind == OpKind::kDeleteValues
                                       ? kInvalidTuple
                                       : parent_of(mod.values[cj]);
        for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
          const TupleId t = mod.tuples[tj];
          const TupleId old_parent =
              old_values != nullptr
                  ? parent_of((*old_values)[tj * mod.cols.size() + cj])
                  : parent_of(db_->table(table).column(mod.cols[cj]).Get(t));
          push(edge, t, old_parent, new_parent);
        }
      }
      break;
    }
    case OpKind::kInsertTuple: {
      const TupleId t = new_tuple != kInvalidTuple
                            ? new_tuple
                            : db_->table(table).NumSlots();
      for (size_t col = 0; col < mod.values.size(); ++col) {
        const int edge = stats_.EdgeOf(table, static_cast<int>(col));
        if (edge < 0) continue;
        push(edge, t, kInvalidTuple, parent_of(mod.values[col]));
      }
      break;
    }
    case OpKind::kDeleteTuple: {
      const TupleId t = mod.tuples[0];
      const Table& tbl = db_->table(table);
      for (int col = 0; col < tbl.num_columns(); ++col) {
        const int edge = stats_.EdgeOf(table, col);
        if (edge < 0) continue;
        const TupleId old_parent =
            old_values != nullptr && !old_values->empty()
                ? parent_of((*old_values)[static_cast<size_t>(col)])
                : parent_of(tbl.column(col).Get(t));
        push(edge, t, old_parent, kInvalidTuple);
      }
      break;
    }
  }
}

void LinearPropertyTool::ApplyEdgeChanges(
    std::span<const EdgeChange> changes) {
  for (const EdgeChange& c : changes) {
    if (c.first) stats_.Relink(c.edge, c.child, c.new_parent);
    if (c.old_parent != kInvalidTuple) {
      stats_.AddReach(c.chain, c.level, c.child, c.old_parent, -1);
    }
    if (c.new_parent != kInvalidTuple) {
      stats_.AddReach(c.chain, c.level, c.child, c.new_parent, +1);
    }
  }
}

void LinearPropertyTool::RevertEdgeChanges(
    std::span<const EdgeChange> changes) {
  for (auto it = changes.rbegin(); it != changes.rend(); ++it) {
    if (it->new_parent != kInvalidTuple) {
      stats_.AddReach(it->chain, it->level, it->child, it->new_parent, -1);
    }
    if (it->old_parent != kInvalidTuple) {
      stats_.AddReach(it->chain, it->level, it->child, it->old_parent, +1);
    }
    if (it->first) stats_.Relink(it->edge, it->child, it->old_parent);
  }
}

void LinearPropertyTool::OnApplied(const Modification& mod,
                                   const std::vector<Value>& old_values,
                                   TupleId new_tuple) {
  if (db_ == nullptr) return;
  if (mod.kind == OpKind::kInsertTuple && new_tuple != kInvalidTuple) {
    // Every level of the new row's table gets its rows, also where no
    // edge of this row attaches it (the search samples any live slot).
    stats_.EnsureTableSlots(db_->schema().TableIndex(mod.table),
                            new_tuple + 1);
  }
  std::vector<EdgeChange>& changes = ThreadScratch().changes;
  changes.clear();
  CollectEdgeChanges(mod, &old_values, new_tuple, &changes);
  ApplyEdgeChanges(changes);
}

double LinearPropertyTool::ValidationPenalty(const Modification& mod) const {
  if (db_ == nullptr) return 0.0;
  Scratch& s = ThreadScratch();
  s.changes.clear();
  CollectEdgeChanges(mod, nullptr, kInvalidTuple, &s.changes);
  return PenaltyOfChanges(&s, kNoPenaltyCap);
}

double LinearPropertyTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  if (db_ == nullptr) return 0.0;
  Scratch& s = ThreadScratch();
  s.changes.clear();
  // ApplyBatch appends inserts in order, so the k-th insert into a
  // table lands at NumSlots() + k. Each insert must be simulated at
  // its own predicted id: letting CollectEdgeChanges default them all
  // to NumSlots() would attach several children at one slot, and the
  // second attach corrupts the statistics.
  s.inserts.clear();
  for (const Modification& mod : mods) {
    TupleId predicted = kInvalidTuple;
    if (mod.kind == OpKind::kInsertTuple) {
      const int table = db_->schema().TableIndex(mod.table);
      if (table >= 0) {
        auto it = std::find_if(s.inserts.begin(), s.inserts.end(),
                               [&](const auto& e) { return e.first == table; });
        if (it == s.inserts.end()) {
          s.inserts.emplace_back(table, 0);
          it = s.inserts.end() - 1;
        }
        predicted = db_->table(table).NumSlots() + it->second;
        ++it->second;
      }
    }
    CollectEdgeChanges(mod, nullptr, predicted, &s.changes);
  }
  return PenaltyOfChanges(&s, veto_cap);
}

double LinearPropertyTool::PenaltyOfChanges(Scratch* s,
                                            double veto_cap) const {
  const std::vector<EdgeChange>& changes = s->changes;
  if (changes.empty()) return 0.0;
  std::vector<int>& affected = s->affected;
  affected.clear();
  for (const EdgeChange& c : changes) affected.push_back(c.chain);
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  auto measure = [&] {
    double sum = 0;
    for (const int ci : affected) {
      sum += stats_.chain(ci).matrix().ErrorAgainst(
          targets_[static_cast<size_t>(ci)]);
    }
    return sum;
  };
  const double before = measure();
  auto* self = const_cast<LinearPropertyTool*>(this);
  const std::span<const EdgeChange> all(changes);
  if (veto_cap != kNoPenaltyCap && changes.size() > 1) {
    // Per-chain bound on how much ONE edge change can move that
    // chain's ErrorAgainst: every matrix entry moves by at most 2
    // (only the single ancestor above the re-parented child at a
    // level can flip its reach to a deeper level, once for the detach
    // and once for the attach), so the mean over entries moves by at
    // most (sum over entries of 2/max(t,1)) / n_entries.
    std::vector<double>& chain_move = s->chain_move;
    chain_move.assign(chains_.size(), 0.0);
    for (const int ci : affected) {
      const JoinMatrix& t = targets_[static_cast<size_t>(ci)];
      double sum = 0;
      int n = 0;
      for (int j = 1; j < t.k(); ++j) {
        for (int i = 0; i < j; ++i) {
          sum += 2.0 / std::max(static_cast<double>(t.at(j, i)), 1.0);
          ++n;
        }
      }
      chain_move[static_cast<size_t>(ci)] =
          n == 0 ? 0.0 : sum / static_cast<double>(n);
    }
    // suffix[i] bounds the error movement of changes[i..).
    std::vector<double>& suffix = s->suffix;
    suffix.assign(changes.size() + 1, 0.0);
    for (size_t i = changes.size(); i-- > 0;) {
      suffix[i] =
          suffix[i + 1] + chain_move[static_cast<size_t>(changes[i].chain)];
    }
    const double exit_cap =
        veto_cap + kPenaltyCapSlack * (1.0 + std::fabs(veto_cap));
    constexpr size_t kChunk = 32;
    size_t applied = 0;
    while (applied + kChunk < changes.size()) {
      self->ApplyEdgeChanges(all.subspan(applied, kChunk));
      applied += kChunk;
      const double floor_penalty = (measure() - suffix[applied] - before) /
                                   static_cast<double>(chains_.size());
      if (floor_penalty > exit_cap) {
        self->RevertEdgeChanges(all.first(applied));
        return floor_penalty;
      }
    }
    // Finish the tail: the statistics now match a single full apply,
    // so the measurement below is the uncapped result, bit for bit.
    self->ApplyEdgeChanges(all.subspan(applied));
  } else {
    self->ApplyEdgeChanges(all);
  }
  const double after = measure();
  self->RevertEdgeChanges(all);
  return (after - before) / static_cast<double>(chains_.size());
}

AccessScope LinearPropertyTool::DeclaredScope() const {
  AccessScope scope;
  scope.known = true;
  for (const ReferenceChain& c : chains_) {
    // Reach counts depend on which root tuples are live, and row
    // inserts/deletes record whole-table writes, so a whole-table read
    // on the root is what makes them conflict here.
    scope.AddRead(c.tables[0], AccessScope::kWholeTable);
    for (size_t l = 1; l < c.tables.size(); ++l) {
      scope.AddWrite(c.tables[l], c.fk_cols[l - 1]);
      // Victim scans walk each level's slot/liveness structure, and
      // the join matrices count per live tuple, so row membership of
      // every level is part of the read contract.
      scope.AddRead(c.tables[l], AccessScope::kRowStructure);
    }
  }
  return scope;
}

const MoveDelta& LinearPropertyTool::EvaluateMove(
    int edge, std::span<const TupleId> children, TupleId new_parent) const {
  MoveDelta& delta = ThreadScratch().delta;
  stats_.EvaluateMove(edge, children, new_parent, &delta);
  return delta;
}

bool LinearPropertyTool::MoveDamagesProtected(const MoveDelta& delta,
                                              int edge, int current,
                                              int protected_upto,
                                              int row_limit,
                                              int entry_limit) const {
  const std::span<const LinearStats::Use> uses = stats_.Uses(edge);
  for (size_t u = 0; u < uses.size(); ++u) {
    const int chain = uses[u].chain;
    if (chain != current && chain >= protected_upto) continue;
    const int k = chains_[static_cast<size_t>(chain)].length();
    for (int j = 1; j < k; ++j) {
      for (int i = 0; i < j; ++i) {
        if (delta.at(static_cast<int>(u), j, i) == 0) continue;
        if (chain != current || j < row_limit ||
            (j == row_limit && i < entry_limit)) {
          return true;
        }
      }
    }
  }
  return false;
}

const Modification& LinearPropertyTool::Proposal(
    int ci, int level, std::span<const TupleId> children,
    TupleId new_parent) {
  const ReferenceChain& chain = chains_[static_cast<size_t>(ci)];
  Modification& mod = proposal_;
  mod.kind = OpKind::kReplaceValues;
  mod.table = db_->table(chain.tables[static_cast<size_t>(level)]).name();
  mod.tuples.assign(children.begin(), children.end());
  mod.cols.assign(1, chain.fk_cols[static_cast<size_t>(level - 1)]);
  mod.values.assign(1, Value(static_cast<int64_t>(new_parent)));
  return mod;
}

Status LinearPropertyTool::ProposeMove(TweakContext* ctx, int ci, int level,
                                       TupleId child, TupleId new_parent,
                                       int* veto_budget) {
  const Modification& mod =
      Proposal(ci, level, std::span<const TupleId>(&child, 1), new_parent);
  Status st = ctx->TryApply(mod);
  if (st.IsValidationFailed()) {
    if (*veto_budget > 0) {
      --*veto_budget;
      return st;  // caller tries an alternative
    }
    return ctx->ForceApply(mod);
  }
  return st;
}

template <typename Pred>
TupleId LinearPropertyTool::FindTuple(TweakContext* ctx, int ci, int level,
                                      Pred pred) const {
  const Table& t = db_->table(
      chains_[static_cast<size_t>(ci)].tables[static_cast<size_t>(level)]);
  const int64_t slots = t.NumSlots();
  if (slots == 0) return kInvalidTuple;
  for (int tries = 0; tries < 128; ++tries) {
    const TupleId cand = ctx->rng()->UniformInt(0, slots - 1);
    if (t.IsLive(cand) && pred(cand)) return cand;
  }
  const TupleId start = ctx->rng()->UniformInt(0, slots - 1);
  for (int64_t off = 0; off < slots; ++off) {
    const TupleId cand = (start + off) % slots;
    if (t.IsLive(cand) && pred(cand)) return cand;
  }
  return kInvalidTuple;
}

bool LinearPropertyTool::ReduceOnce(TweakContext* ctx, int ci, int J, int i,
                                    int protected_upto) {
  const ChainStats& s = stats_.chain(ci);
  // Pick a level-i tuple x reaching J whose removal from S_{J,i} does
  // not disturb earlier entries: its parent must keep reach to J
  // through another child (Lemma 3's R_y representatives stay put).
  const TupleId x = FindTuple(ctx, ci, i, [&](TupleId cand) {
    if (!s.Reaches(i, cand, J)) return false;
    if (i == 0) return true;
    const TupleId p = s.Parent(i, cand);
    return p != kInvalidTuple && s.Cnt(i - 1, p, J) >= 2;
  });
  if (x == kInvalidTuple) return false;

  // Collect x's descendants at level J (Leaf Tuple Plucking).
  std::vector<TupleId>& q_set = leaves_;
  q_set.clear();
  dfs_.assign(1, {i, x});
  while (!dfs_.empty()) {
    const auto [lev, t] = dfs_.back();
    dfs_.pop_back();
    if (lev == J) {
      q_set.push_back(t);
      continue;
    }
    for (const TupleId c : s.Children(lev, t)) {
      if (s.Reaches(lev + 1, c, J)) dfs_.emplace_back(lev + 1, c);
    }
  }
  if (q_set.empty()) return false;

  // Re-attach every q elsewhere (Leaf Tuple Attaching). Two candidate
  // kinds, both outside x's subtree: the parent of an existing anchor
  // q' (guaranteed not to flip any reach on), or a random level J-1
  // tuple - the latter lets one move net-compensate flips in chains
  // that share this edge (flip r_old off, flip dest on). The exact
  // per-move evaluation decides which candidates are safe.
  const int edge = stats_.EdgeAt(ci, J);
  int veto_budget = max_attempts_;

  auto find_dest = [&](int attempt, TupleId q) {
    TupleId dest = kInvalidTuple;
    if (attempt % 2 == 0) {
      const TupleId anchor = FindTuple(ctx, ci, J, [&](TupleId cand) {
        if (cand == q) return false;
        const TupleId anc = s.AncestorAt(J, cand, i);
        return anc != kInvalidTuple && anc != x;
      });
      if (anchor != kInvalidTuple) dest = s.Parent(J, anchor);
    } else {
      dest = FindTuple(ctx, ci, J - 1, [&](TupleId cand) {
        const TupleId anc = s.AncestorAt(J - 1, cand, i);
        return anc != kInvalidTuple && anc != x;
      });
    }
    return dest;
  };
  // The move must not damage protected entries nor push the entry being
  // reduced upward.
  auto move_ok = [&](std::span<const TupleId> moved, TupleId dest) {
    const MoveDelta& delta = EvaluateMove(edge, moved, dest);
    if (MoveDamagesProtected(delta, edge, ci, protected_upto, J, i)) {
      return false;
    }
    const std::span<const LinearStats::Use> uses = stats_.Uses(edge);
    for (size_t u = 0; u < uses.size(); ++u) {
      if (uses[u].chain == ci && delta.at(static_cast<int>(u), J, i) > 0) {
        return false;
      }
    }
    return true;
  };

  if (ctx->batch_hint() > 1) {
    // Grouped Leaf Tuple Attaching: pluck a run of leaves onto one
    // destination with a single multi-tuple modification (columnar
    // apply, one validator vote, one notification). The combined move
    // is re-simulated exactly at every extension, so the group obeys
    // the same damage rules as its serial equivalent.
    const size_t hint = static_cast<size_t>(ctx->batch_hint());
    size_t qi = 0;
    while (qi < q_set.size()) {
      const TupleId q = q_set[qi];
      bool moved = false;
      size_t consumed = 1;
      for (int attempt = 0; attempt < 64 && !moved; ++attempt) {
        const TupleId dest = find_dest(attempt, q);
        if (dest == kInvalidTuple || dest == s.Parent(J, q)) continue;
        std::vector<TupleId>& group = group_;
        group.assign(1, q);
        if (!move_ok(group, dest)) continue;
        while (group.size() < hint && qi + group.size() < q_set.size()) {
          const TupleId qn = q_set[qi + group.size()];
          if (dest == s.Parent(J, qn)) break;
          group.push_back(qn);
          if (!move_ok(group, dest)) {
            group.pop_back();
            break;
          }
        }
        const Modification& mod = Proposal(ci, J, group, dest);
        Status st = ctx->TryApply(mod);
        if (st.IsValidationFailed() && group.size() > 1) {
          // The grouped proposal was vetoed; retry the leading leaf
          // alone through the serial escalation path.
          st = ProposeMove(ctx, ci, J, q, dest, &veto_budget);
          if (st.ok()) moved = true;
          continue;
        }
        if (st.IsValidationFailed()) {
          if (veto_budget > 0) {
            --veto_budget;
            continue;
          }
          st = ctx->ForceApply(mod);
        }
        if (st.ok()) {
          moved = true;
          consumed = group.size();
        }
      }
      if (!moved) return false;
      qi += consumed;
    }
    return true;
  }

  for (const TupleId q : q_set) {
    bool moved = false;
    for (int attempt = 0; attempt < 64 && !moved; ++attempt) {
      const TupleId dest = find_dest(attempt, q);
      if (dest == kInvalidTuple || dest == s.Parent(J, q)) continue;
      if (!move_ok(std::span<const TupleId>(&q, 1), dest)) continue;
      const Status st = ProposeMove(ctx, ci, J, q, dest, &veto_budget);
      if (st.ok()) moved = true;
    }
    if (!moved) return false;
  }
  return true;
}

bool LinearPropertyTool::IncreaseOnce(TweakContext* ctx, int ci, int J,
                                      int i, int protected_upto) {
  const ChainStats& s = stats_.chain(ci);

  auto ancestors_reach_J = [&](TupleId y) {
    TupleId cur = y;
    for (int lev = i; lev >= 1; --lev) {
      cur = s.Parent(lev, cur);
      if (cur == kInvalidTuple || !s.Reaches(lev - 1, cur, J)) return false;
    }
    return true;
  };
  auto reaches_jm1_not_j = [&](TupleId cand) {
    return s.Reaches(i, cand, J - 1) && !s.Reaches(i, cand, J);
  };

  // Find y at level i to become a new member of S_{J,i}: it must reach
  // J-1 (so a leaf can be attached under it) and its ancestors must
  // already reach J (so no earlier entry moves).
  TupleId y = FindTuple(ctx, ci, i, [&](TupleId cand) {
    return reaches_jm1_not_j(cand) && (i == 0 || ancestors_reach_J(cand));
  });
  int veto_budget = max_attempts_;
  if (y == kInvalidTuple && i > 0) {
    // Isomorphic adjustment (Lemma 2 / Fig. 19): re-home a candidate y0
    // under a parent that already reaches J without changing any join
    // matrix, then proceed with it.
    const TupleId y0 = FindTuple(ctx, ci, i, [&](TupleId cand) {
      if (!reaches_jm1_not_j(cand)) return false;
      const TupleId p = s.Parent(i, cand);
      // The old parent must keep all its reaches through other kids.
      return p != kInvalidTuple &&
             s.Cnt(i - 1, p, s.MaxReach(i, cand)) >= 2;
    });
    if (y0 == kInvalidTuple) return false;
    const int edge = stats_.EdgeAt(ci, i);
    bool adjusted = false;
    for (int attempt = 0; attempt < 96 && !adjusted; ++attempt) {
      const TupleId p_new = FindTuple(ctx, ci, i - 1, [&](TupleId cand) {
        return cand != s.Parent(i, y0) && s.Reaches(i - 1, cand, J) &&
               (i - 1 == 0 ||
                (s.Parent(i - 1, cand) != kInvalidTuple));
      });
      if (p_new == kInvalidTuple) break;
      // The adjustment must be isomorphic for every chain.
      const MoveDelta& delta =
          EvaluateMove(edge, std::span<const TupleId>(&y0, 1), p_new);
      if (std::any_of(delta.h.begin(), delta.h.end(),
                      [](int64_t d) { return d != 0; })) {
        continue;
      }
      if (ProposeMove(ctx, ci, i, y0, p_new, &veto_budget).ok()) {
        adjusted = true;
      }
    }
    if (!adjusted) return false;
    y = y0;
    if (!ancestors_reach_J(y)) return false;
  }
  if (y == kInvalidTuple) return false;

  // Attach point: a descendant of y at level J-1.
  const TupleId d = s.DescendantAt(i, y, J - 1);
  if (d == kInvalidTuple) return false;

  // Spare leaf at level J whose removal flips no level <= i (so fixed
  // entries of row J stay put; earlier rows are untouched by J-level
  // edges by construction).
  const int edge = stats_.EdgeAt(ci, J);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const TupleId q = FindTuple(ctx, ci, J, [&](TupleId cand) {
      TupleId cur = s.Parent(J, cand);
      if (cur == kInvalidTuple) return false;
      for (int lev = J - 1; lev >= 0; --lev) {
        if (s.Cnt(lev, cur, J) >= 2) return true;  // flip stops here
        if (lev <= i) return false;  // would flip a fixed/fixing level
        cur = s.Parent(lev, cur);
        if (cur == kInvalidTuple) return false;
      }
      return false;
    });
    if (q == kInvalidTuple) return false;
    if (MoveDamagesProtected(
            EvaluateMove(edge, std::span<const TupleId>(&q, 1), d), edge, ci,
            protected_upto, J, i)) {
      continue;
    }
    if (ProposeMove(ctx, ci, J, q, d, &veto_budget).ok()) return true;
  }
  return false;
}

Status LinearPropertyTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("linear: Tweak needs Bind");
  BuildSearchIndex();
  const int num_chains = static_cast<int>(chains_.size());
  for (int sweep = 0; sweep < 4; ++sweep) {
    bool any_moves = false;
    for (int ci = 0; ci < num_chains; ++ci) {
      const ChainStats& s = stats_.chain(ci);
      const JoinMatrix& target = targets_[static_cast<size_t>(ci)];
      const int protected_upto = sweep == 0 ? ci : num_chains;
      const int k = s.k();
      for (int J = 1; J < k; ++J) {
        for (int i = 0; i < J; ++i) {
          const int64_t want = target.at(J, i);
          int64_t guard =
              4 * std::llabs(s.matrix().at(J, i) - want) + 32;
          int failures = 0;
          while (s.matrix().at(J, i) != want && guard-- > 0) {
            const bool progressed =
                s.matrix().at(J, i) > want
                    ? ReduceOnce(ctx, ci, J, i, protected_upto)
                    : IncreaseOnce(ctx, ci, J, i, protected_upto);
            if (progressed) {
              any_moves = true;
              failures = 0;
            } else if (++failures >= 16) {
              break;  // randomized retries exhausted for this entry
            }
          }
        }
      }
    }
    if (!any_moves || Error() < 1e-12) break;
  }
  ReleaseSearchIndex();
  return Status::OK();
}

Status LinearPropertyTool::SaveTarget(std::ostream* out) const {
  *out << "linear " << targets_.size() << "\n";
  for (const JoinMatrix& m : targets_) {
    *out << "chain " << m.k() << "\n";
    for (int j = 1; j < m.k(); ++j) {
      for (int i = 0; i < j; ++i) *out << m.at(j, i) << " ";
    }
    *out << "\n";
  }
  return Status::OK();
}

Status LinearPropertyTool::LoadTarget(std::istream* in) {
  std::string tag;
  size_t n = 0;
  if (!(*in >> tag >> n) || tag != "linear" || n != targets_.size()) {
    return Status::IoError("linear: bad target header");
  }
  std::vector<JoinMatrix> loaded;
  for (size_t ci = 0; ci < n; ++ci) {
    int k = 0;
    if (!(*in >> tag >> k) || tag != "chain" ||
        k != chains_[ci].length()) {
      return Status::IoError("linear: chain mismatch");
    }
    JoinMatrix m(k);
    for (int j = 1; j < k; ++j) {
      for (int i = 0; i < j; ++i) {
        int64_t v = 0;
        if (!(*in >> v)) return Status::IoError("linear: truncated");
        m.set(j, i, v);
      }
    }
    loaded.push_back(std::move(m));
  }
  targets_ = std::move(loaded);
  return Status::OK();
}

}  // namespace aspect
