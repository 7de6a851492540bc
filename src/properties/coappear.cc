#include "properties/coappear.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"

namespace aspect {
namespace {

bool AllZero(const FrequencyDistribution::Key& v) {
  for (const int64_t x : v) {
    if (x != 0) return false;
  }
  return true;
}

}  // namespace

CoappearPropertyTool::CoappearPropertyTool(const Schema& schema)
    : schema_(schema) {
  ReferenceGraph graph(schema_);
  groups_ = graph.CoappearGroups();
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    xi_.emplace_back(static_cast<int>(grp.member_tables.size()));
    target_xi_.emplace_back(static_cast<int>(grp.member_tables.size()));
    for (size_t mi = 0; mi < grp.member_tables.size(); ++mi) {
      member_index_[grp.member_tables[mi]].emplace_back(
          static_cast<int>(g), static_cast<int>(mi));
      for (size_t p = 0; p < grp.member_fk_cols[mi].size(); ++p) {
        fk_index_[{grp.member_tables[mi], grp.member_fk_cols[mi][p]}]
            .emplace_back(static_cast<int>(g), static_cast<int>(mi),
                          static_cast<int>(p));
      }
    }
  }
  target_parent_sizes_.resize(groups_.size());
  target_member_sizes_.resize(groups_.size());
  for (const FkEdge& e : graph.edges()) {
    inbound_[e.parent_table].push_back(e);
  }
}

Status CoappearPropertyTool::SetTargetFromDataset(
    const Database& ground_truth) {
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    FrequencyDistribution xi(static_cast<int>(grp.member_tables.size()));
    std::map<Key, Key> combos;
    for (size_t mi = 0; mi < grp.member_tables.size(); ++mi) {
      const Table& t = ground_truth.table(grp.member_tables[mi]);
      t.ForEachLive([&](TupleId tid) {
        Key b;
        for (const int col : grp.member_fk_cols[mi]) {
          if (!t.column(col).IsValue(tid)) return;
          b.push_back(t.column(col).GetInt(tid));
        }
        auto [it, inserted] = combos.try_emplace(
            b, Key(grp.member_tables.size(), 0));
        ++it->second[mi];
      });
    }
    for (const auto& [b, v] : combos) xi.Add(v, 1);
    target_xi_[g] = std::move(xi);
    target_parent_sizes_[g].clear();
    for (const int p : grp.parent_tables) {
      target_parent_sizes_[g].push_back(ground_truth.table(p).NumTuples());
    }
    target_member_sizes_[g].clear();
    for (const int m : grp.member_tables) {
      target_member_sizes_[g].push_back(ground_truth.table(m).NumTuples());
    }
  }
  return Status::OK();
}

Status CoappearPropertyTool::SetTargetDistributions(
    std::vector<FrequencyDistribution> targets,
    std::vector<std::vector<int64_t>> target_parent_sizes,
    std::vector<std::vector<int64_t>> target_member_sizes) {
  if (targets.size() != groups_.size() ||
      target_parent_sizes.size() != groups_.size() ||
      target_member_sizes.size() != groups_.size()) {
    return Status::Invalid("coappear: wrong number of group targets");
  }
  target_xi_ = std::move(targets);
  target_parent_sizes_ = std::move(target_parent_sizes);
  target_member_sizes_ = std::move(target_member_sizes);
  return Status::OK();
}

std::unique_ptr<PropertyTool> CoappearPropertyTool::Clone() const {
  if (bound()) return nullptr;
  // The constructor rebuilds groups_ and the index maps from the
  // schema; only the targets need copying.
  auto copy = std::make_unique<CoappearPropertyTool>(schema_);
  copy->target_xi_ = target_xi_;
  copy->target_parent_sizes_ = target_parent_sizes_;
  copy->target_member_sizes_ = target_member_sizes_;
  copy->max_attempts_ = max_attempts_;
  return copy;
}

Status CoappearPropertyTool::Bind(Database* db) {
  db_ = db;
  state_.assign(groups_.size(), GroupState{});
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    GroupState& st = state_[g];
    xi_[g].Clear();
    st.tuples_by_combo.resize(grp.member_tables.size());
    st.tuple_combo.resize(grp.member_tables.size());
    for (size_t mi = 0; mi < grp.member_tables.size(); ++mi) {
      const Table& t = db_->table(grp.member_tables[mi]);
      st.tuple_combo[mi].assign(static_cast<size_t>(t.NumSlots()), Key{});
      t.ForEachLive([&](TupleId tid) {
        const Key b = ReadCombo(static_cast<int>(g), static_cast<int>(mi),
                                tid, nullptr, nullptr, false);
        if (b.empty()) return;
        st.tuple_combo[mi][static_cast<size_t>(tid)] = b;
        st.tuples_by_combo[mi][b].push_back(tid);
        auto [it, inserted] = st.combo_vec.try_emplace(
            b, Key(grp.member_tables.size(), 0));
        if (!AllZero(it->second)) xi_[g].Add(it->second, -1);
        ++it->second[mi];
        xi_[g].Add(it->second, 1);
      });
    }
    for (const auto& [b, v] : st.combo_vec) {
      st.buckets[v].push_back(b);
    }
  }
  refcount_ = std::make_unique<RefCounter>(db_);
  db_->AddListener(this);
  return Status::OK();
}

void CoappearPropertyTool::Unbind() {
  refcount_.reset();
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
  state_.clear();
}

void CoappearPropertyTool::AppendListeners(
    std::vector<ModificationListener*>* out) {
  out->push_back(this);
  if (refcount_ != nullptr) out->push_back(refcount_.get());
}

CoappearPropertyTool::Key CoappearPropertyTool::ReadCombo(
    int g, int member, TupleId t, const std::vector<int>* overlay_cols,
    const std::vector<Value>* overlay_vals, bool deleted_cells) const {
  const CoappearGroup& grp = groups_[static_cast<size_t>(g)];
  const Table& table =
      db_->table(grp.member_tables[static_cast<size_t>(member)]);
  Key b;
  for (const int col :
       grp.member_fk_cols[static_cast<size_t>(member)]) {
    int overlay = -1;
    if (overlay_cols != nullptr) {
      for (size_t j = 0; j < overlay_cols->size(); ++j) {
        if ((*overlay_cols)[j] == col) {
          overlay = static_cast<int>(j);
          break;
        }
      }
    }
    if (overlay >= 0) {
      if (deleted_cells) return Key{};  // cell proposed to be erased
      const Value& v = (*overlay_vals)[static_cast<size_t>(overlay)];
      if (v.is_null()) return Key{};
      b.push_back(v.int64());
    } else {
      if (t >= table.NumSlots() || !table.column(col).IsValue(t)) {
        return Key{};
      }
      b.push_back(table.column(col).GetInt(t));
    }
  }
  return b;
}

std::vector<CoappearPropertyTool::Transition>
CoappearPropertyTool::CollectTransitions(const Modification& mod,
                                         TupleId new_tuple,
                                         bool pre_apply) const {
  std::vector<Transition> out;
  const int table = db_->schema().TableIndex(mod.table);
  const auto mit = member_index_.find(table);
  if (mit == member_index_.end()) return out;

  for (const auto& [g, mi] : mit->second) {
    const GroupState& st = state_[static_cast<size_t>(g)];
    const auto& fk_cols =
        groups_[static_cast<size_t>(g)].member_fk_cols[static_cast<size_t>(mi)];
    auto cached = [&](TupleId t) -> Key {
      const auto& cache = st.tuple_combo[static_cast<size_t>(mi)];
      return t < static_cast<TupleId>(cache.size())
                 ? cache[static_cast<size_t>(t)]
                 : Key{};
    };
    switch (mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues: {
        // Skip if no group FK column is touched.
        bool touches = false;
        for (const int c : mod.cols) {
          touches |= std::find(fk_cols.begin(), fk_cols.end(), c) !=
                     fk_cols.end();
        }
        if (!touches) break;
        for (const TupleId t : mod.tuples) {
          Transition tr;
          tr.group = g;
          tr.member = mi;
          tr.tuple = t;
          tr.old_b = cached(t);
          if (pre_apply) {
            tr.new_b = ReadCombo(g, mi, t, &mod.cols, &mod.values,
                                 mod.kind == OpKind::kDeleteValues);
          } else {
            tr.new_b = ReadCombo(g, mi, t, nullptr, nullptr, false);
          }
          if (tr.old_b != tr.new_b) out.push_back(std::move(tr));
        }
        break;
      }
      case OpKind::kInsertTuple: {
        Transition tr;
        tr.group = g;
        tr.member = mi;
        tr.tuple = new_tuple != kInvalidTuple
                       ? new_tuple
                       : db_->table(table).NumSlots();
        for (const int col : fk_cols) {
          const Value& v = mod.values[static_cast<size_t>(col)];
          if (v.is_null()) {
            tr.new_b.clear();
            break;
          }
          tr.new_b.push_back(v.int64());
        }
        if (!tr.new_b.empty()) out.push_back(std::move(tr));
        break;
      }
      case OpKind::kDeleteTuple: {
        Transition tr;
        tr.group = g;
        tr.member = mi;
        tr.tuple = mod.tuples[0];
        tr.old_b = cached(tr.tuple);
        if (!tr.old_b.empty()) out.push_back(std::move(tr));
        break;
      }
    }
  }
  return out;
}

void CoappearPropertyTool::ApplyTransitions(
    const std::vector<Transition>& ts) {
  for (const Transition& tr : ts) {
    GroupState& st = state_[static_cast<size_t>(tr.group)];
    const CoappearGroup& grp = groups_[static_cast<size_t>(tr.group)];
    auto& cache = st.tuple_combo[static_cast<size_t>(tr.member)];
    if (tr.tuple >= static_cast<TupleId>(cache.size())) {
      cache.resize(static_cast<size_t>(tr.tuple) + 1, Key{});
    }
    auto adjust = [&](const Key& b, int64_t delta) {
      if (b.empty()) return;
      auto [it, inserted] =
          st.combo_vec.try_emplace(b, Key(grp.member_tables.size(), 0));
      Key& vec = it->second;
      auto debucket = [&]() {
        auto& bucket = st.buckets[vec];
        bucket.erase(std::find(bucket.begin(), bucket.end(), b));
        if (bucket.empty()) st.buckets.erase(vec);
      };
      if (!AllZero(vec)) {
        xi_[static_cast<size_t>(tr.group)].Add(vec, -1);
        debucket();
      }
      vec[static_cast<size_t>(tr.member)] += delta;
      assert(vec[static_cast<size_t>(tr.member)] >= 0);
      if (AllZero(vec)) {
        st.combo_vec.erase(it);
      } else {
        xi_[static_cast<size_t>(tr.group)].Add(vec, 1);
        st.buckets[vec].push_back(b);
      }
      // Per-member tuple lists.
      auto& by_combo = st.tuples_by_combo[static_cast<size_t>(tr.member)];
      if (delta > 0) {
        by_combo[b].push_back(tr.tuple);
      } else {
        auto& list = by_combo[b];
        list.erase(std::find(list.begin(), list.end(), tr.tuple));
        if (list.empty()) by_combo.erase(b);
      }
    };
    adjust(tr.old_b, -1);
    adjust(tr.new_b, +1);
    cache[static_cast<size_t>(tr.tuple)] = tr.new_b;
  }
}

void CoappearPropertyTool::OnApplied(const Modification& mod,
                                     const std::vector<Value>& old_values,
                                     TupleId new_tuple) {
  (void)old_values;  // combos come from the pre-apply cache
  if (db_ == nullptr) return;
  ApplyTransitions(CollectTransitions(mod, new_tuple, /*pre_apply=*/false));
}

int64_t CoappearPropertyTool::CurrentComboSpace(int g) const {
  int64_t space = 1;
  for (const int p : groups_[static_cast<size_t>(g)].parent_tables) {
    space *= db_->table(p).NumTuples();
  }
  return space;
}

int64_t CoappearPropertyTool::CurrentCount(int g, const Key& v) const {
  if (AllZero(v)) {
    return CurrentComboSpace(g) -
           static_cast<int64_t>(
               state_[static_cast<size_t>(g)].combo_vec.size());
  }
  return xi_[static_cast<size_t>(g)].Count(v);
}

int64_t CoappearPropertyTool::TargetCount(int g, const Key& v) const {
  if (AllZero(v)) {
    int64_t space = 1;
    for (const int64_t s : target_parent_sizes_[static_cast<size_t>(g)]) {
      space *= s;
    }
    return space - target_xi_[static_cast<size_t>(g)].TotalMass();
  }
  return target_xi_[static_cast<size_t>(g)].Count(v);
}

double CoappearPropertyTool::GroupError(int g) const {
  // epsilon_xi = (1/N_FK) sum_v |xi(v) - xi~(v)| over observed vectors,
  // where N_FK is the number of distinct foreign-key combinations in
  // the target - this is the normalization that makes the paper's
  // bound of 2 tight (Sec. VI-C1).
  const int64_t n_fk =
      std::max<int64_t>(1, target_xi_[static_cast<size_t>(g)].TotalMass());
  const int64_t sum = xi_[static_cast<size_t>(g)].L1Distance(
      target_xi_[static_cast<size_t>(g)]);
  return static_cast<double>(sum) / static_cast<double>(n_fk);
}

double CoappearPropertyTool::Error() const {
  if (groups_.empty() || db_ == nullptr) return 0.0;
  double sum = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    sum += GroupError(static_cast<int>(g));
  }
  return sum / static_cast<double>(groups_.size());
}

double CoappearPropertyTool::ValidationPenalty(
    const Modification& mod) const {
  if (db_ == nullptr) return 0.0;
  const std::vector<Transition> ts =
      CollectTransitions(mod, kInvalidTuple, /*pre_apply=*/true);
  return PenaltyOfTransitions(ts);
}

double CoappearPropertyTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  if (db_ == nullptr) return 0.0;
  std::vector<Transition> ts;
  for (const Modification& mod : mods) {
    std::vector<Transition> one =
        CollectTransitions(mod, kInvalidTuple, /*pre_apply=*/true);
    ts.insert(ts.end(), std::make_move_iterator(one.begin()),
              std::make_move_iterator(one.end()));
  }
  return PenaltyOfTransitions(ts, veto_cap);
}

AccessScope CoappearPropertyTool::DeclaredScope() const {
  AccessScope scope;
  scope.known = true;
  for (const CoappearGroup& grp : groups_) {
    for (const int m : grp.member_tables) {
      scope.AddWrite(m, AccessScope::kWholeTable);
      const auto iit = inbound_.find(m);
      if (iit == inbound_.end()) continue;
      for (const FkEdge& e : iit->second) {
        scope.AddWrite(e.child_table, e.fk_col);
        // Rewiring scans the child table's live-tuple set, and the
        // combo vectors count one entry per live child row.
        scope.AddRead(e.child_table, AccessScope::kRowStructure);
      }
    }
    for (const int p : grp.parent_tables) {
      scope.AddRead(p, AccessScope::kWholeTable);
    }
  }
  return scope;
}

double CoappearPropertyTool::PenaltyOfTransitions(
    const std::vector<Transition>& ts, double veto_cap) const {
  if (ts.empty()) return 0.0;
  const bool capped = veto_cap != kNoPenaltyCap;
  // Per group, per vector: delta of xi caused by the transitions.
  std::map<std::pair<int, Key>, int64_t> xi_delta;
  std::map<int, int64_t> zero_delta;
  // Simulated per-combo vectors.
  std::map<std::pair<int, Key>, Key> sim_vec;
  auto vec_of = [&](int g, const Key& b) -> Key {
    const auto sit = sim_vec.find({g, b});
    if (sit != sim_vec.end()) return sit->second;
    const auto& cv = state_[static_cast<size_t>(g)].combo_vec;
    const auto it = cv.find(b);
    return it == cv.end()
               ? Key(groups_[static_cast<size_t>(g)].member_tables.size(), 0)
               : it->second;
  };
  auto n_fk_of = [&](int g) -> double {
    return static_cast<double>(std::max<int64_t>(
        1, target_xi_[static_cast<size_t>(g)].TotalMass()));
  };
  // Capped pricing keeps each group's partial penalty numerator exact
  // (in integers): the final loop's |cur+delta-tgt| - |cur-tgt| term,
  // summed over this group's xi_delta keys, re-adjusted on every delta
  // change. The early-exit test then sums a handful of exact integer
  // numerators instead of accumulating a drifting float.
  std::map<int, int64_t> group_num;
  auto term_of = [&](int g, const Key& vec, int64_t delta) -> int64_t {
    const int64_t cur = xi_[static_cast<size_t>(g)].Count(vec);
    const int64_t tgt = target_xi_[static_cast<size_t>(g)].Count(vec);
    return std::llabs(cur + delta - tgt) - std::llabs(cur - tgt);
  };
  // suffix[i] bounds how much the numerators can still move pricing
  // ts[i..): one transition makes two combo adjusts, each touching at
  // most two xi entries by +-1, and a +-1 delta change moves its term
  // by at most 1 — so at most 4/n_fk per transition. (Adjusts that
  // land on the implicit zero vector touch fewer entries; the bound
  // still covers them.)
  std::vector<double> suffix;
  if (capped) {
    suffix.assign(ts.size() + 1, 0.0);
    for (size_t i = ts.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + 4.0 / n_fk_of(ts[i].group);
    }
  }
  for (size_t ti = 0; ti < ts.size(); ++ti) {
    const Transition& tr = ts[ti];
    auto adjust = [&](const Key& b, int64_t delta) {
      if (b.empty()) return;
      Key vec = vec_of(tr.group, b);
      auto bump = [&](const Key& v, int64_t d) {
        int64_t& slot = xi_delta[{tr.group, v}];
        if (capped) group_num[tr.group] -= term_of(tr.group, v, slot);
        slot += d;
        if (capped) group_num[tr.group] += term_of(tr.group, v, slot);
      };
      if (!AllZero(vec)) {
        bump(vec, -1);
      } else {
        zero_delta[tr.group] -= 1;
      }
      vec[static_cast<size_t>(tr.member)] += delta;
      if (!AllZero(vec)) {
        bump(vec, +1);
      } else {
        zero_delta[tr.group] += 1;
      }
      sim_vec[{tr.group, b}] = vec;
    };
    adjust(tr.old_b, -1);
    adjust(tr.new_b, +1);
    if (capped) {
      double running = 0;
      for (const auto& [g, num] : group_num) {
        running += static_cast<double>(num) / n_fk_of(g);
      }
      const double floor_penalty = (running - suffix[ti + 1]) /
                                   static_cast<double>(groups_.size());
      if (floor_penalty >
          veto_cap + kPenaltyCapSlack * (1.0 + std::fabs(veto_cap))) {
        return floor_penalty;
      }
    }
  }
  (void)zero_delta;  // the zero vector is excluded from the measure
  double penalty = 0;
  for (const auto& [gk, delta] : xi_delta) {
    if (delta == 0) continue;
    const auto& [g, vec] = gk;
    const int64_t cur = xi_[static_cast<size_t>(g)].Count(vec);
    const int64_t tgt = target_xi_[static_cast<size_t>(g)].Count(vec);
    const int64_t n_fk =
        std::max<int64_t>(1, target_xi_[static_cast<size_t>(g)].TotalMass());
    penalty += static_cast<double>(std::llabs(cur + delta - tgt) -
                                   std::llabs(cur - tgt)) /
               static_cast<double>(n_fk);
  }
  return penalty / static_cast<double>(groups_.size());
}

Status CoappearPropertyTool::RepairTarget() {
  if (!bound()) return Status::Invalid("coappear: RepairTarget needs Bind");
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    FrequencyDistribution& tgt = target_xi_[g];
    // Zero-vector bookkeeping now refers to the bound parent domain.
    target_parent_sizes_[g].clear();
    for (const int p : grp.parent_tables) {
      target_parent_sizes_[g].push_back(db_->table(p).NumTuples());
    }
    target_member_sizes_[g].clear();
    for (const int m : grp.member_tables) {
      target_member_sizes_[g].push_back(db_->table(m).NumTuples());
    }
    // C2: the number of distinct combos cannot exceed the combo space.
    int64_t space = 1;
    for (const int64_t s : target_parent_sizes_[g]) space *= s;
    while (tgt.TotalMass() > space && tgt.NumKeys() >= 2) {
      // Merge two combos into one (vector sum): preserves the
      // weighted sums of C1 while freeing one combo slot.
      const auto a = tgt.counts().begin()->first;
      auto second = std::next(tgt.counts().begin());
      const auto b = second->first;
      Key merged(a.size());
      for (size_t i = 0; i < a.size(); ++i) merged[i] = a[i] + b[i];
      tgt.Add(a, -1);
      tgt.Add(b, -1);
      tgt.Add(merged, 1);
    }
    // C1: sum_v v_i xi~(v) must equal the bound member sizes.
    for (size_t mi = 0; mi < grp.member_tables.size(); ++mi) {
      int64_t deficit = target_member_sizes_[g][mi] -
                        tgt.WeightedSum(static_cast<int>(mi));
      if (deficit > 0) {
        Key unit(grp.member_tables.size(), 0);
        unit[mi] = 1;
        tgt.Add(unit, deficit);
      }
      while (deficit < 0) {
        // Take one appearance in member mi away from some combo.
        Key victim;
        for (const auto& [v, c] : tgt.counts()) {
          if (v[mi] > 0 && c > 0) {
            victim = v;
            // Prefer vectors with the largest count in this member so
            // few keys change.
            if (v[mi] > 1) break;
          }
        }
        if (victim.empty()) break;  // cannot repair further
        Key reduced = victim;
        --reduced[mi];
        tgt.Add(victim, -1);
        if (!AllZero(reduced)) tgt.Add(reduced, 1);
        ++deficit;
      }
    }
  }
  return Status::OK();
}

Status CoappearPropertyTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("coappear: needs Bind");
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    const FrequencyDistribution& tgt = target_xi_[g];
    for (const auto& [v, c] : tgt.counts()) {
      if (c < 0) return Status::Infeasible("negative target count");
    }
    for (size_t mi = 0; mi < grp.member_tables.size(); ++mi) {
      const int64_t want = db_->table(grp.member_tables[mi]).NumTuples();
      if (tgt.WeightedSum(static_cast<int>(mi)) != want) {
        return Status::Infeasible(StrFormat(
            "C1 violated for group %zu member %zu", g, mi));
      }
    }
    int64_t space = 1;
    for (const int p : grp.parent_tables) {
      space *= db_->table(p).NumTuples();
    }
    if (tgt.TotalMass() > space) {
      return Status::Infeasible(StrFormat("C2 violated for group %zu", g));
    }
  }
  return Status::OK();
}

Status CoappearPropertyTool::ProposeOrForce(TweakContext* ctx,
                                            const Modification& mod,
                                            int* veto_budget,
                                            TupleId* new_tuple) {
  Status st = ctx->TryApply(mod, new_tuple);
  if (st.IsValidationFailed()) {
    if (*veto_budget > 0) {
      --*veto_budget;
      return st;
    }
    return ctx->ForceApply(mod, new_tuple);
  }
  return st;
}

bool CoappearPropertyTool::ConvertOne(TweakContext* ctx, int g,
                                      const Key& from, const Key& to) {
  GroupState& st = state_[static_cast<size_t>(g)];
  const CoappearGroup& grp = groups_[static_cast<size_t>(g)];
  const size_t k = grp.member_tables.size();

  // CoappearVectorRetrieve / TupleRetrieve: pick a combo realizing
  // `from` (a fresh combo when `from` is the zero vector). A unit must
  // never half-apply, so a candidate is accepted only if every member
  // with surplus appearances owns enough unreferenced tuples to delete
  // (members can be post tables whose tuples responses reference).
  auto deletable = [&](const Key& cand) {
    for (size_t mi = 0; mi < k; ++mi) {
      const int64_t need = from[mi] - to[mi];
      if (need <= 0) continue;
      const auto lit = st.tuples_by_combo[mi].find(cand);
      if (lit == st.tuples_by_combo[mi].end() ||
          static_cast<int64_t>(lit->second.size()) < need) {
        return false;
      }
      // Referenced tuples count too: their references are evacuated
      // to a survivor before deletion, which therefore must exist.
      if (db_->table(grp.member_tables[mi]).NumTuples() <= need) {
        return false;
      }
    }
    return true;
  };
  Key b;
  if (AllZero(from)) {
    for (int tries = 0; tries < 64 && b.empty(); ++tries) {
      Key cand;
      for (const int p : grp.parent_tables) {
        const int64_t n = db_->table(p).NumTuples();
        if (n == 0) return false;
        const TupleId pick =
            ctx->rng()->UniformInt(0, db_->table(p).NumSlots() - 1);
        if (!db_->table(p).IsLive(pick)) {
          cand.clear();
          break;
        }
        cand.push_back(pick);
      }
      if (!cand.empty() && st.combo_vec.find(cand) == st.combo_vec.end()) {
        b = std::move(cand);
      }
    }
    if (b.empty()) return false;
  } else {
    const auto it = st.buckets.find(from);
    if (it == st.buckets.end() || it->second.empty()) return false;
    const auto& bucket = it->second;
    const size_t offset = static_cast<size_t>(ctx->rng()->UniformInt(
        0, static_cast<int64_t>(bucket.size()) - 1));
    const size_t probes = std::min<size_t>(bucket.size(), 16);
    for (size_t j = 0; j < probes && b.empty(); ++j) {
      const Key& cand = bucket[(offset + j) % bucket.size()];
      if (deletable(cand)) b = cand;
    }
    if (b.empty()) return false;
  }

  // TupleModification: per member, delete surplus / insert missing
  // tuples with foreign keys b.
  int veto_budget = max_attempts_;
  for (size_t mi = 0; mi < k; ++mi) {
    const int64_t have = from[mi];
    const int64_t want = to[mi];
    const Table& table = db_->table(grp.member_tables[mi]);
    const int table_index = grp.member_tables[mi];
    int64_t d = have;
    while (d > want) {
      // Batched deletion: propose all unreferenced victims of this
      // combo as one span (one composite vote, one log segment);
      // fall back to the per-victim escalation path on veto.
      if (ctx->batch_hint() > 1 && d - want > 1) {
        const auto lit = st.tuples_by_combo[mi].find(b);
        if (lit == st.tuples_by_combo[mi].end() || lit->second.empty()) {
          return false;  // statistics drifted; caller re-evaluates
        }
        const auto& list = lit->second;
        const size_t cap = static_cast<size_t>(
            std::min<int64_t>(d - want, ctx->batch_hint()));
        std::vector<Modification> batch;
        const size_t boff = static_cast<size_t>(ctx->rng()->UniformInt(
            0, static_cast<int64_t>(list.size()) - 1));
        for (size_t j = 0; j < list.size() && batch.size() < cap; ++j) {
          const TupleId cand = list[(boff + j) % list.size()];
          if (refcount_->Unreferenced(table_index, cand)) {
            batch.push_back(Modification::DeleteTuple(table.name(), cand));
          }
        }
        if (batch.size() > 1 && ctx->TryApplyBatch(batch).ok()) {
          d -= static_cast<int64_t>(batch.size());
          continue;
        }
      }
      // Delete one tuple carrying combo b, trying alternatives on veto.
      bool deleted = false;
      while (!deleted) {
        const auto lit = st.tuples_by_combo[mi].find(b);
        if (lit == st.tuples_by_combo[mi].end() || lit->second.empty()) {
          return false;  // statistics drifted; caller re-evaluates
        }
        const auto& list = lit->second;
        // Prefer an unreferenced victim; otherwise evacuate one.
        TupleId victim = kInvalidTuple;
        const size_t offset = static_cast<size_t>(
            ctx->rng()->UniformInt(0, static_cast<int64_t>(list.size()) - 1));
        for (size_t j = 0; j < list.size(); ++j) {
          const TupleId cand = list[(offset + j) % list.size()];
          if (refcount_->Unreferenced(table_index, cand)) {
            victim = cand;
            break;
          }
        }
        if (victim == kInvalidTuple) {
          victim = list[offset];
          if (!EvacuateReferences(ctx, table_index, victim)) return false;
        }
        const Status s = ProposeOrForce(
            ctx, Modification::DeleteTuple(table.name(), victim),
            &veto_budget);
        deleted = s.ok();
      }
      --d;
    }
    while (d < want) {
      // Insert tuples with FK values b; non-FK attributes are copied
      // from a random live template tuple. With a batch hint the
      // missing tuples are proposed as one span (one composite vote,
      // one columnar append), degrading to per-tuple force on veto.
      const int64_t pending =
          ctx->batch_hint() > 1
              ? std::min<int64_t>(want - d, ctx->batch_hint())
              : 1;
      std::vector<Modification> batch;
      for (int64_t j = 0; j < pending; ++j) {
        std::vector<Value> row(static_cast<size_t>(table.num_columns()));
        TupleId tmpl = kInvalidTuple;
        if (table.NumTuples() > 0) {
          for (int tries = 0; tries < 32 && tmpl == kInvalidTuple;
               ++tries) {
            const TupleId cand =
                ctx->rng()->UniformInt(0, table.NumSlots() - 1);
            if (table.IsLive(cand)) tmpl = cand;
          }
        }
        for (int c = 0; c < table.num_columns(); ++c) {
          if (tmpl != kInvalidTuple) {
            row[static_cast<size_t>(c)] = table.column(c).Get(tmpl);
          } else if (table.column(c).type() == ColumnType::kString) {
            row[static_cast<size_t>(c)] = Value(std::string());
          } else if (table.column(c).type() == ColumnType::kDouble) {
            row[static_cast<size_t>(c)] = Value(0.0);
          } else {
            row[static_cast<size_t>(c)] = Value(int64_t{0});
          }
        }
        for (size_t p = 0; p < grp.member_fk_cols[mi].size(); ++p) {
          row[static_cast<size_t>(grp.member_fk_cols[mi][p])] = Value(b[p]);
        }
        batch.push_back(Modification::InsertTuple(table.name(), row));
      }
      if (batch.size() > 1 && ctx->TryApplyBatch(batch).ok()) {
        d += static_cast<int64_t>(batch.size());
        continue;
      }
      for (const Modification& mod : batch) {
        Status s = ctx->TryApply(mod);
        if (s.IsValidationFailed()) s = ctx->ForceApply(mod);
        if (!s.ok()) return false;
      }
      d += static_cast<int64_t>(batch.size());
    }
  }
  return true;
}

bool CoappearPropertyTool::EvacuateReferences(TweakContext* ctx,
                                              int table_index,
                                              TupleId victim) {
  const Table& table = db_->table(table_index);
  // Survivor: any other live tuple of the same table.
  TupleId survivor = kInvalidTuple;
  for (int tries = 0; tries < 64 && survivor == kInvalidTuple; ++tries) {
    const TupleId cand = ctx->rng()->UniformInt(0, table.NumSlots() - 1);
    if (cand != victim && table.IsLive(cand)) survivor = cand;
  }
  if (survivor == kInvalidTuple) {
    table.ForEachLive([&](TupleId t) {
      if (survivor == kInvalidTuple && t != victim) survivor = t;
    });
  }
  if (survivor == kInvalidTuple) return false;
  const auto iit = inbound_.find(table_index);
  if (iit == inbound_.end()) return true;
  for (const FkEdge& e : iit->second) {
    const Table& child = db_->table(e.child_table);
    const Column& col = child.column(e.fk_col);
    std::vector<TupleId> referrers;
    child.ForEachLive([&](TupleId t) {
      if (col.IsValue(t) && col.GetInt(t) == victim) referrers.push_back(t);
    });
    if (referrers.empty()) continue;
    if (ctx->batch_hint() > 1 && referrers.size() > 1) {
      // One broadcast modification re-points every referrer at once
      // (columnar write, one vote, one notification).
      Modification mod = Modification::ReplaceValues(
          child.name(), referrers, {e.fk_col},
          {Value(static_cast<int64_t>(survivor))});
      Status st = ctx->TryApply(mod);
      if (st.IsValidationFailed()) st = ctx->ForceApply(mod);
      if (!st.ok()) return false;
      continue;
    }
    for (const TupleId r : referrers) {
      Modification mod = Modification::ReplaceValues(
          child.name(), {r}, {e.fk_col},
          {Value(static_cast<int64_t>(survivor))});
      Status st = ctx->TryApply(mod);
      if (st.IsValidationFailed()) st = ctx->ForceApply(mod);
      if (!st.ok()) return false;
    }
  }
  return refcount_->Unreferenced(table_index, victim);
}

Status CoappearPropertyTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("coappear: Tweak needs Bind");
  for (size_t g = 0; g < groups_.size(); ++g) {
    const Key zero(groups_[g].member_tables.size(), 0);
    // Guard: each conversion reduces the L1 gap, so 2x the initial gap
    // (plus slack) bounds the loop.
    int64_t guard =
        2 * (xi_[g].L1Distance(target_xi_[g]) +
             std::llabs(CurrentCount(static_cast<int>(g), zero) -
                        TargetCount(static_cast<int>(g), zero))) +
        64;
    std::set<Key> stuck;  // deficits proven unconvertible this pass
    while (guard-- > 0) {
      // Find a deficit vector (scan target then current keys).
      Key deficit;
      bool found = false;
      for (const auto& [v, c] : target_xi_[g].counts()) {
        if (stuck.count(v) == 0 &&
            CurrentCount(static_cast<int>(g), v) < c) {
          deficit = v;
          found = true;
          break;
        }
      }
      if (!found && stuck.count(zero) == 0 &&
          CurrentCount(static_cast<int>(g), zero) <
              TargetCount(static_cast<int>(g), zero)) {
        deficit = zero;
        found = true;
      }
      if (!found) break;

      // Surplus vectors ordered by Manhattan distance (zero included);
      // fall through to farther ones when the closest has no
      // convertible combo (e.g. all its tuples are referenced posts).
      std::vector<std::pair<int64_t, Key>> surpluses;
      for (const auto& [v, c] : xi_[g].counts()) {
        if (c <= target_xi_[g].Count(v)) continue;
        surpluses.emplace_back(ManhattanDistance(v, deficit), v);
      }
      if (CurrentCount(static_cast<int>(g), zero) >
          TargetCount(static_cast<int>(g), zero)) {
        surpluses.emplace_back(ManhattanDistance(zero, deficit), zero);
      }
      std::sort(surpluses.begin(), surpluses.end());
      bool converted = false;
      for (const auto& [dist, surplus] : surpluses) {
        if (ConvertOne(ctx, static_cast<int>(g), surplus, deficit)) {
          converted = true;
          break;
        }
      }
      if (!converted) stuck.insert(deficit);  // try remaining deficits
    }
  }
  return Status::OK();
}

Status CoappearPropertyTool::SaveTarget(std::ostream* out) const {
  *out << "coappear " << groups_.size() << "\n";
  for (size_t g = 0; g < groups_.size(); ++g) {
    *out << "group " << target_parent_sizes_[g].size() << " ";
    for (const int64_t s : target_parent_sizes_[g]) *out << s << " ";
    *out << target_member_sizes_[g].size() << " ";
    for (const int64_t s : target_member_sizes_[g]) *out << s << " ";
    *out << "\n";
    target_xi_[g].Write(out);
  }
  return Status::OK();
}

Status CoappearPropertyTool::LoadTarget(std::istream* in) {
  std::string tag;
  size_t n = 0;
  if (!(*in >> tag >> n) || tag != "coappear" || n != groups_.size()) {
    return Status::IoError("coappear: bad target header");
  }
  for (size_t g = 0; g < n; ++g) {
    size_t parents = 0;
    if (!(*in >> tag >> parents) || tag != "group") {
      return Status::IoError("coappear: bad group header");
    }
    target_parent_sizes_[g].assign(parents, 0);
    for (int64_t& s : target_parent_sizes_[g]) {
      if (!(*in >> s)) return Status::IoError("coappear: truncated");
    }
    size_t members = 0;
    if (!(*in >> members)) return Status::IoError("coappear: truncated");
    target_member_sizes_[g].assign(members, 0);
    for (int64_t& s : target_member_sizes_[g]) {
      if (!(*in >> s)) return Status::IoError("coappear: truncated");
    }
    ASPECT_ASSIGN_OR_RETURN(target_xi_[g], FrequencyDistribution::Read(in));
    if (target_xi_[g].dim() !=
        static_cast<int>(groups_[g].member_tables.size())) {
      return Status::IoError("coappear: distribution dim mismatch");
    }
  }
  return Status::OK();
}

}  // namespace aspect
