#include "properties/coappear.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/string_util.h"

namespace aspect {
namespace {

bool AllZero(std::span<const int64_t> v) {
  for (const int64_t x : v) {
    if (x != 0) return false;
  }
  return true;
}

// Calls fn(first, last) for every run order[first..last) of equal
// keys, where `order` lists the width-wide keys in `keys` in key order.
template <typename Fn>
void ForEachRun(std::span<const int64_t> keys, size_t width,
                const std::vector<int32_t>& order, Fn&& fn) {
  auto key = [&](size_t i) {
    return keys.subspan(static_cast<size_t>(order[i]) * width, width);
  };
  for (size_t first = 0, last = 0; first < order.size(); first = last) {
    for (last = first + 1; last < order.size() &&
                           std::ranges::equal(key(last), key(first));
         ++last) {
    }
    fn(first, last);
  }
}

// The combos of a group's members, counted with one sort instead of a
// hash lookup per tuple. A row is a counted live member tuple (all FK
// cells values), members in order and tuples in slot order. Combos are
// numbered in ascending key order.
struct ComboCounts {
  size_t parents = 0;
  size_t members = 0;
  int32_t n = 0;                     // distinct combos
  std::vector<int64_t> row_keys;     // row r's combo at [r * parents]
  std::vector<size_t> member_rows;   // member mi's rows: [mi], [mi + 1])
  std::vector<TupleId> row_tuple;
  std::vector<int32_t> row_combo;
  std::vector<int32_t> combo_row;    // a row of each combo
  std::vector<int64_t> appearances;  // combo c's vector at [c * members]

  std::span<const int64_t> key(int32_t c) const {
    return std::span<const int64_t>(row_keys).subspan(
        static_cast<size_t>(combo_row[static_cast<size_t>(c)]) * parents,
        parents);
  }
  // Calls fn(v, combos) for every distinct appearance vector v in
  // ascending order, with the combos realizing it in ascending order.
  template <typename Fn>
  void ForEachVector(Fn&& fn) const {
    const std::span<const int64_t> vectors(appearances);
    const std::vector<int32_t> order =
        KeyOrder(vectors, static_cast<int>(members));
    ForEachRun(vectors, members, order, [&](size_t first, size_t last) {
      const auto c = static_cast<size_t>(order[first]);
      fn(vectors.subspan(c * members, members),
         std::span<const int32_t>(order).subspan(first, last - first));
    });
  }
};

ComboCounts CountCombos(const Database& db, const CoappearGroup& grp) {
  const size_t k = grp.member_tables.size();
  const size_t m = grp.parent_tables.size();
  ComboCounts cc;
  cc.parents = m;
  cc.members = k;
  std::vector<int64_t>& row_keys = cc.row_keys;
  int64_t live = 0;
  for (const int t : grp.member_tables) live += db.table(t).NumTuples();
  row_keys.reserve(static_cast<size_t>(live) * m);
  cc.row_tuple.reserve(static_cast<size_t>(live));
  cc.member_rows.push_back(0);
  for (size_t mi = 0; mi < k; ++mi) {
    const Table& t = db.table(grp.member_tables[mi]);
    const std::vector<int>& cols = grp.member_fk_cols[mi];
    t.ForEachLive([&](TupleId tid) {
      for (const int col : cols) {
        if (!t.column(col).IsValue(tid)) return;
      }
      for (const int col : cols) row_keys.push_back(t.column(col).GetInt(tid));
      cc.row_tuple.push_back(tid);
    });
    cc.member_rows.push_back(cc.row_tuple.size());
  }
  cc.row_combo.resize(cc.row_tuple.size());
  const std::vector<int32_t> order = KeyOrder(row_keys, static_cast<int>(m));
  ForEachRun(row_keys, m, order, [&](size_t first, size_t last) {
    cc.combo_row.push_back(order[first]);
    for (size_t i = first; i < last; ++i) {
      cc.row_combo[static_cast<size_t>(order[i])] = cc.n;
    }
    ++cc.n;
  });
  cc.appearances.assign(static_cast<size_t>(cc.n) * k, 0);
  for (size_t mi = 0; mi < k; ++mi) {
    for (size_t r = cc.member_rows[mi]; r < cc.member_rows[mi + 1]; ++r) {
      ++cc.appearances[static_cast<size_t>(cc.row_combo[r]) * k + mi];
    }
  }
  return cc;
}

}  // namespace

struct CoappearPropertyTool::PricingScratch {
  TransitionBuffer tb;
  // Simulated vectors: every Sim and Delta owns a group-width run here.
  std::vector<int64_t> vals;
  struct Sim {  // a combo touched by the priced transitions
    int group;
    int32_t combo;  // combo id, or kUnseen with its key at tb.keys[key]
    size_t key;
    size_t vec;  // its simulated vector
  };
  struct Delta {  // simulated change of xi at one vector
    int group;
    int32_t vid;  // -1: never interned
    size_t vec;
    int64_t delta;
  };
  std::vector<Sim> sims;
  std::vector<Delta> deltas;
  std::vector<std::pair<int, int64_t>> group_num;  // ascending group
  std::vector<double> suffix;
  std::vector<size_t> order;
};

CoappearPropertyTool::PricingScratch& CoappearPropertyTool::ThreadScratch() {
  thread_local PricingScratch scratch;
  return scratch;
}

CoappearPropertyTool::CoappearPropertyTool(const Schema& schema)
    : schema_(schema), graph_(schema) {
  groups_ = graph_.CoappearGroups();
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    target_xi_.emplace_back(static_cast<int>(grp.member_tables.size()));
    for (size_t mi = 0; mi < grp.member_tables.size(); ++mi) {
      member_index_[grp.member_tables[mi]].emplace_back(
          static_cast<int>(g), static_cast<int>(mi));
    }
  }
  target_parent_sizes_.resize(groups_.size());
  target_member_sizes_.resize(groups_.size());
}

Status CoappearPropertyTool::SetTargetFromDataset(
    const Database& ground_truth) {
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    const size_t k = grp.member_tables.size();
    const ComboCounts cc = CountCombos(ground_truth, grp);
    // xi(v) = number of combos whose appearance vector is v.
    FrequencyDistribution& xi = target_xi_[g];
    xi = FrequencyDistribution(static_cast<int>(k));
    cc.ForEachVector(
        [&](std::span<const int64_t> v, std::span<const int32_t> combos) {
          xi.Add(Key(v.begin(), v.end()), static_cast<int64_t>(combos.size()));
        });
    target_parent_sizes_[g].clear();
    for (const int p : grp.parent_tables) {
      target_parent_sizes_[g].push_back(ground_truth.table(p).NumTuples());
    }
    target_member_sizes_[g].clear();
    for (const int m : grp.member_tables) {
      target_member_sizes_[g].push_back(ground_truth.table(m).NumTuples());
    }
  }
  IndexTargets();
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
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (targets[g].dim() !=
        static_cast<int>(groups_[g].member_tables.size())) {
      return Status::Invalid("coappear: target dim differs from group");
    }
  }
  target_xi_ = std::move(targets);
  target_parent_sizes_ = std::move(target_parent_sizes);
  target_member_sizes_ = std::move(target_member_sizes);
  IndexTargets();
  return Status::OK();
}

int32_t CoappearPropertyTool::InternCombo(GroupState* st,
                                          std::span<const int64_t> b) {
  const int32_t c = st->combos.Intern(b);
  if (static_cast<size_t>(c) == st->combo_vec.size()) {
    st->combo_vec.push_back(-1);
    if (indexed_) {
      st->combo_slot.push_back(-1);
      for (SlotLists& lists : st->tuples_by_combo) {
        lists.EnsureLists(static_cast<size_t>(c) + 1);
      }
    }
  }
  return c;
}

void CoappearPropertyTool::IndexTargets() {
  if (!bound()) return;
  for (size_t g = 0; g < groups_.size(); ++g) {
    int64_t space = 1;
    for (const int64_t s : target_parent_sizes_[g]) space *= s;
    GroupState& st = state_[g];
    st.xi.SetTarget(target_xi_[g], space);
    if (indexed_) st.buckets.resize(static_cast<size_t>(st.xi.size()));
  }
}

Status CoappearPropertyTool::Bind(Database* db) {
  db_ = db;
  indexed_ = false;
  state_.clear();
  state_.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    const CoappearGroup& grp = groups_[g];
    GroupState& st = state_[g];
    const size_t k = grp.member_tables.size();
    const size_t m = grp.parent_tables.size();
    const ComboCounts cc = CountCombos(*db_, grp);
    const auto n = static_cast<size_t>(cc.n);
    // Combo ids are ranks in key order; the keys are distinct.
    std::vector<int64_t> keys;
    keys.reserve(n * m);
    for (int32_t c = 0; c < cc.n; ++c) {
      const std::span<const int64_t> key = cc.key(c);
      keys.insert(keys.end(), key.begin(), key.end());
    }
    st.combos = KeyInterner(static_cast<int>(m));
    st.combos.AssignDistinct(std::move(keys));
    st.tuple_combo.resize(k);
    for (size_t mi = 0; mi < k; ++mi) {
      const auto slots =
          static_cast<size_t>(db_->table(grp.member_tables[mi]).NumSlots());
      std::vector<int32_t>& combo_of = st.tuple_combo[mi];
      combo_of.assign(slots, kNoCombo);
      for (size_t r = cc.member_rows[mi]; r < cc.member_rows[mi + 1]; ++r) {
        combo_of[static_cast<size_t>(cc.row_tuple[r])] = cc.row_combo[r];
      }
    }
    st.xi = CountGapTable(static_cast<int>(k));
    st.combo_vec.assign(n, -1);
    cc.ForEachVector(
        [&](std::span<const int64_t> v, std::span<const int32_t> combos) {
          const int32_t vid = st.xi.Intern(v);
          st.xi.Add(vid, static_cast<int64_t>(combos.size()));
          for (const int32_t c : combos) {
            st.combo_vec[static_cast<size_t>(c)] = vid;
          }
        });
  }
  IndexTargets();
  // Deletion victims must be unreferenced (members can be post tables
  // that response tables reference, e.g. Review in the Douban schemas).
  db_->BuildReferrerIndex();
  db_->AddListener(this);
  return Status::OK();
}

void CoappearPropertyTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
  indexed_ = false;
  state_.clear();
}

void CoappearPropertyTool::BuildSearchIndex() {
  for (GroupState& st : state_) {
    // Buckets in combo id order and tuple lists in slot order, as
    // pushing them one by one leaves them; ConvertOne's rank draws
    // depend on both.
    const size_t n = st.combo_vec.size();
    st.buckets.assign(static_cast<size_t>(st.xi.size()), TombstoneBucket());
    st.combo_slot.assign(n, -1);
    for (size_t c = 0; c < n; ++c) {
      const int32_t vid = st.combo_vec[c];
      if (vid < 0) continue;
      st.combo_slot[c] = st.buckets[static_cast<size_t>(vid)].PushBack(
          static_cast<int32_t>(c));
    }
    st.tuples_by_combo.resize(st.tuple_combo.size());
    for (size_t mi = 0; mi < st.tuple_combo.size(); ++mi) {
      const std::vector<int32_t>& combo_of = st.tuple_combo[mi];
      SlotLists& lists = st.tuples_by_combo[mi];
      lists.Reset(n, combo_of.size());
      for (size_t t = 0; t < combo_of.size(); ++t) {
        if (combo_of[t] >= 0) {
          lists.PushBack(combo_of[t], static_cast<int64_t>(t));
        }
      }
    }
  }
  indexed_ = true;
}

void CoappearPropertyTool::ReleaseSearchIndex() {
  for (GroupState& st : state_) {
    st.buckets = {};
    st.combo_slot = {};
    st.tuples_by_combo = {};
  }
  indexed_ = false;
}

bool CoappearPropertyTool::ReadCombo(int g, int member, TupleId t,
                                     const std::vector<int>* overlay_cols,
                                     const std::vector<Value>* overlay_vals,
                                     bool deleted_cells, int64_t* b) const {
  const CoappearGroup& grp = groups_[static_cast<size_t>(g)];
  const Table& table =
      db_->table(grp.member_tables[static_cast<size_t>(member)]);
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
      if (deleted_cells) return false;  // cell proposed to be erased
      const Value& v = (*overlay_vals)[static_cast<size_t>(overlay)];
      if (v.is_null()) return false;
      *b++ = v.int64();
    } else {
      if (t >= table.NumSlots() || !table.column(col).IsValue(t)) {
        return false;
      }
      *b++ = table.column(col).GetInt(t);
    }
  }
  return true;
}

void CoappearPropertyTool::CollectTransitions(const Modification& mod,
                                              TupleId new_tuple,
                                              bool pre_apply,
                                              TransitionBuffer* out) const {
  const int table = db_->schema().TableIndex(mod.table);
  const auto mit = member_index_.find(table);
  if (mit == member_index_.end()) return;

  for (const auto& [g, mi] : mit->second) {
    const GroupState& st = state_[static_cast<size_t>(g)];
    const auto& fk_cols =
        groups_[static_cast<size_t>(g)].member_fk_cols[static_cast<size_t>(mi)];
    const size_t width = fk_cols.size();
    auto cached = [&](TupleId t) -> int32_t {
      const auto& cache = st.tuple_combo[static_cast<size_t>(mi)];
      return t < static_cast<TupleId>(cache.size())
                 ? cache[static_cast<size_t>(t)]
                 : kNoCombo;
    };
    // The new combo's key is read into the tail of out->keys; it stays
    // there only if the combo was never interned.
    auto emit = [&](TupleId t, int32_t old_c, bool counted) {
      const size_t key = out->keys.size() - width;
      int32_t new_c = kNoCombo;
      if (counted) {
        new_c = st.combos.Find(
            std::span<const int64_t>(out->keys.data() + key, width));
        if (new_c < 0) new_c = kUnseen;
      }
      if (new_c != kUnseen) out->keys.resize(key);
      if (old_c != new_c) {
        out->ts.push_back(Transition{g, mi, t, old_c, new_c, key});
      }
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
          out->keys.resize(out->keys.size() + width);
          int64_t* b = out->keys.data() + out->keys.size() - width;
          const bool counted =
              pre_apply ? ReadCombo(g, mi, t, &mod.cols, &mod.values,
                                    mod.kind == OpKind::kDeleteValues, b)
                        : ReadCombo(g, mi, t, nullptr, nullptr, false, b);
          emit(t, cached(t), counted);
        }
        break;
      }
      case OpKind::kInsertTuple: {
        bool counted = true;
        for (const int col : fk_cols) {
          const Value& v = mod.values[static_cast<size_t>(col)];
          counted = counted && !v.is_null();
          out->keys.push_back(counted ? v.int64() : 0);
        }
        emit(new_tuple != kInvalidTuple ? new_tuple
                                        : db_->table(table).NumSlots(),
             kNoCombo, counted);
        break;
      }
      case OpKind::kDeleteTuple: {
        out->keys.resize(out->keys.size() + width);
        emit(mod.tuples[0], cached(mod.tuples[0]), false);
        break;
      }
    }
  }
}

void CoappearPropertyTool::ApplyTransitions(const TransitionBuffer& tb) {
  for (const Transition& tr : tb.ts) {
    GroupState& st = state_[static_cast<size_t>(tr.group)];
    auto& cache = st.tuple_combo[static_cast<size_t>(tr.member)];
    const size_t slot = static_cast<size_t>(tr.tuple);
    if (slot >= cache.size()) {
      cache.resize(slot + 1, kNoCombo);
      if (indexed_) {
        st.tuples_by_combo[static_cast<size_t>(tr.member)].EnsureSlots(
            slot + 1);
      }
    }
    const int32_t new_c =
        tr.new_c != kUnseen
            ? tr.new_c
            : InternCombo(&st, std::span<const int64_t>(
                                   tb.keys.data() + tr.key,
                                   static_cast<size_t>(st.combos.width())));
    AdjustCombo(tr.group, tr.member, tr.tuple, tr.old_c, -1);
    AdjustCombo(tr.group, tr.member, tr.tuple, new_c, +1);
    cache[slot] = new_c;
  }
}

void CoappearPropertyTool::AdjustCombo(int g, int mi, TupleId t, int32_t c,
                                       int64_t delta) {
  if (c == kNoCombo) return;
  GroupState& st = state_[static_cast<size_t>(g)];
  const size_t cs = static_cast<size_t>(c);
  const int32_t old_vid = st.combo_vec[cs];
  if (old_vid >= 0) {
    const auto old_v = st.xi.key(old_vid);
    st.vec_buf.assign(old_v.begin(), old_v.end());
    st.xi.Add(old_vid, -1);
    if (indexed_) {
      st.buckets[static_cast<size_t>(old_vid)].Remove(st.combo_slot[cs],
                                                      &st.combo_slot);
    }
  } else {
    st.vec_buf.assign(static_cast<size_t>(st.xi.width()), 0);
  }
  st.vec_buf[static_cast<size_t>(mi)] += delta;
  assert(st.vec_buf[static_cast<size_t>(mi)] >= 0);
  if (AllZero(st.vec_buf)) {
    st.combo_vec[cs] = -1;
  } else {
    const int32_t vid = st.xi.Intern(st.vec_buf);
    st.combo_vec[cs] = vid;
    st.xi.Add(vid, 1);
    if (indexed_) {
      st.buckets.resize(static_cast<size_t>(st.xi.size()));
      st.combo_slot[cs] = st.buckets[static_cast<size_t>(vid)].PushBack(c);
    }
  }
  if (!indexed_) return;
  SlotLists& lists = st.tuples_by_combo[static_cast<size_t>(mi)];
  if (delta > 0) {
    lists.PushBack(c, t);
  } else {
    lists.Unlink(c, t);
  }
}

void CoappearPropertyTool::OnApplied(const Modification& mod,
                                     const std::vector<Value>& old_values,
                                     TupleId new_tuple) {
  (void)old_values;  // combos come from the pre-apply cache
  if (db_ == nullptr) return;
  TransitionBuffer& tb = ThreadScratch().tb;
  tb.clear();
  CollectTransitions(mod, new_tuple, /*pre_apply=*/false, &tb);
  ApplyTransitions(tb);
}

CoappearPropertyTool::StateSnapshot CoappearPropertyTool::Snapshot(
    int g) const {
  StateSnapshot snap;
  if (db_ == nullptr) return snap;
  const GroupState& st = state_[static_cast<size_t>(g)];
  auto combo_key = [&](int32_t c) {
    const auto key = st.combos.key(c);
    return Key(key.begin(), key.end());
  };
  auto vec_key = [&](int32_t vid) {
    const auto key = st.xi.key(vid);
    return Key(key.begin(), key.end());
  };
  for (size_t c = 0; c < st.combo_vec.size(); ++c) {
    const int32_t vid = st.combo_vec[c];
    if (vid < 0) continue;
    snap.combo_vec[combo_key(static_cast<int32_t>(c))] = vec_key(vid);
  }
  for (size_t vid = 0; vid < st.buckets.size(); ++vid) {
    const TombstoneBucket& bucket = st.buckets[vid];
    for (int32_t slot = 0; slot < bucket.slots(); ++slot) {
      if (bucket.id(slot) < 0) continue;
      snap.buckets[vec_key(static_cast<int32_t>(vid))].insert(
          combo_key(bucket.id(slot)));
    }
  }
  snap.tuple_combo.resize(st.tuple_combo.size());
  for (size_t mi = 0; mi < st.tuple_combo.size(); ++mi) {
    for (size_t t = 0; t < st.tuple_combo[mi].size(); ++t) {
      const int32_t c = st.tuple_combo[mi][t];
      if (c < 0) continue;
      snap.tuple_combo[mi][static_cast<TupleId>(t)] = combo_key(c);
    }
  }
  snap.tuples_by_combo.resize(st.tuples_by_combo.size());
  for (size_t mi = 0; mi < st.tuples_by_combo.size(); ++mi) {
    const SlotLists& lists = st.tuples_by_combo[mi];
    for (size_t c = 0; c < st.combo_vec.size(); ++c) {
      const auto list = static_cast<int32_t>(c);
      int64_t t = lists.size(list) > 0 ? lists.AtRank(list, 0) : -1;
      for (int32_t i = 0; i < lists.size(list); ++i) {
        snap.tuples_by_combo[mi][combo_key(list)].insert(t);
        t = lists.NextWrapped(list, t);
      }
    }
  }
  return snap;
}

std::vector<CoappearPropertyTool::Key> CoappearPropertyTool::BucketOrder(
    int g, const Key& v) const {
  std::vector<Key> out;
  const GroupState& st = state_[static_cast<size_t>(g)];
  const int32_t vid = st.xi.Find(v);
  if (!indexed_ || vid < 0) return out;
  const TombstoneBucket& bucket = st.buckets[static_cast<size_t>(vid)];
  for (int32_t slot = 0; slot < bucket.slots(); ++slot) {
    if (bucket.id(slot) < 0) continue;
    const auto key = st.combos.key(bucket.id(slot));
    out.emplace_back(key.begin(), key.end());
  }
  return out;
}

std::vector<TupleId> CoappearPropertyTool::TupleOrder(int g, int mi,
                                                      const Key& b) const {
  std::vector<TupleId> out;
  const GroupState& st = state_[static_cast<size_t>(g)];
  const int32_t c = st.combos.Find(b);
  if (!indexed_ || c < 0) return out;
  const SlotLists& lists = st.tuples_by_combo[static_cast<size_t>(mi)];
  int64_t t = lists.size(c) > 0 ? lists.AtRank(c, 0) : -1;
  for (int32_t i = 0; i < lists.size(c); ++i, t = lists.NextWrapped(c, t)) {
    out.push_back(t);
  }
  return out;
}

int64_t CoappearPropertyTool::CurrentComboSpace(int g) const {
  int64_t space = 1;
  for (const int p : groups_[static_cast<size_t>(g)].parent_tables) {
    space *= db_->table(p).NumTuples();
  }
  return space;
}

double CoappearPropertyTool::NFk(int g) const {
  return static_cast<double>(std::max<int64_t>(
      1, state_[static_cast<size_t>(g)].xi.target_mass()));
}

FrequencyDistribution CoappearPropertyTool::CurrentXi(int g) const {
  if (db_ == nullptr) {
    return FrequencyDistribution(static_cast<int>(
        groups_[static_cast<size_t>(g)].member_tables.size()));
  }
  return state_[static_cast<size_t>(g)].xi.Current();
}

double CoappearPropertyTool::Error() const {
  if (groups_.empty() || db_ == nullptr) return 0.0;
  // epsilon_xi = (1/N_FK) sum_v |xi(v) - xi~(v)| over observed vectors,
  // where N_FK is the number of distinct foreign-key combinations in
  // the target - this is the normalization that makes the paper's
  // bound of 2 tight (Sec. VI-C1).
  double sum = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    sum += static_cast<double>(state_[g].xi.gap()) / NFk(static_cast<int>(g));
  }
  return sum / static_cast<double>(groups_.size());
}

double CoappearPropertyTool::ValidationPenalty(
    const Modification& mod) const {
  if (db_ == nullptr) return 0.0;
  PricingScratch& s = ThreadScratch();
  s.tb.clear();
  CollectTransitions(mod, kInvalidTuple, /*pre_apply=*/true, &s.tb);
  return PenaltyOfTransitions(&s, kNoPenaltyCap);
}

double CoappearPropertyTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  if (db_ == nullptr) return 0.0;
  PricingScratch& s = ThreadScratch();
  s.tb.clear();
  for (const Modification& mod : mods) {
    CollectTransitions(mod, kInvalidTuple, /*pre_apply=*/true, &s.tb);
  }
  return PenaltyOfTransitions(&s, veto_cap);
}

AccessScope CoappearPropertyTool::DeclaredScope() const {
  AccessScope scope;
  scope.known = true;
  for (const CoappearGroup& grp : groups_) {
    for (const int m : grp.member_tables) {
      scope.AddWrite(m, AccessScope::kWholeTable);
      for (const FkEdge& e : graph_.InEdges(m)) {
        scope.AddWrite(e.child_table, e.fk_col);
        // Rewiring reads referrer lists that follow the child table's
        // live rows, and the combo vectors count one entry per live
        // child row.
        scope.AddRead(e.child_table, AccessScope::kRowStructure);
      }
    }
    for (const int p : grp.parent_tables) {
      scope.AddRead(p, AccessScope::kWholeTable);
    }
  }
  return scope;
}

double CoappearPropertyTool::PenaltyOfTransitions(PricingScratch* s,
                                                  double veto_cap) const {
  const std::vector<Transition>& ts = s->tb.ts;
  if (ts.empty()) return 0.0;
  const bool capped = veto_cap != kNoPenaltyCap;
  s->vals.clear();
  s->sims.clear();
  s->deltas.clear();
  s->group_num.clear();
  auto vec_of = [&](size_t off, int g) {
    return std::span<int64_t>(
        s->vals.data() + off,
        static_cast<size_t>(state_[static_cast<size_t>(g)].xi.width()));
  };
  // Capped pricing keeps each group's partial penalty numerator exact
  // (in integers): the final loop's |cur+delta-tgt| - |cur-tgt| term,
  // summed over this group's delta entries, re-adjusted on every delta
  // change. The early-exit test then sums a handful of exact integer
  // numerators instead of accumulating a drifting float.
  auto group_num = [&](int g) -> int64_t& {
    auto it = std::lower_bound(
        s->group_num.begin(), s->group_num.end(), g,
        [](const std::pair<int, int64_t>& e, int x) { return e.first < x; });
    if (it == s->group_num.end() || it->first != g) {
      it = s->group_num.insert(it, {g, 0});
    }
    return it->second;
  };
  // suffix[i] bounds how much the numerators can still move pricing
  // ts[i..): one transition makes two combo adjusts, each touching at
  // most two xi entries by +-1, and a +-1 delta change moves its term
  // by at most 1 — so at most 4/n_fk per transition. (Adjusts that
  // land on the implicit zero vector touch fewer entries; the bound
  // still covers them.)
  if (capped) {
    s->suffix.assign(ts.size() + 1, 0.0);
    for (size_t i = ts.size(); i-- > 0;) {
      s->suffix[i] = s->suffix[i + 1] + 4.0 / NFk(ts[i].group);
    }
  }
  for (size_t ti = 0; ti < ts.size(); ++ti) {
    const Transition& tr = ts[ti];
    const GroupState& st = state_[static_cast<size_t>(tr.group)];
    const size_t k = static_cast<size_t>(st.xi.width());
    // Adds d to the simulated xi delta of the vector at vals[src].
    auto bump = [&](size_t src, int64_t d) {
      PricingScratch::Delta* entry = nullptr;
      for (PricingScratch::Delta& e : s->deltas) {
        if (e.group == tr.group &&
            std::equal(s->vals.begin() + src, s->vals.begin() + src + k,
                       s->vals.begin() + e.vec)) {
          entry = &e;
          break;
        }
      }
      if (entry == nullptr) {
        const size_t off = s->vals.size();
        s->vals.resize(off + k);
        std::copy_n(s->vals.begin() + src, k, s->vals.begin() + off);
        s->deltas.push_back({tr.group, st.xi.Find(vec_of(off, tr.group)),
                             off, 0});
        entry = &s->deltas.back();
      }
      if (capped) group_num(tr.group) -= st.xi.Term(entry->vid, entry->delta);
      entry->delta += d;
      if (capped) group_num(tr.group) += st.xi.Term(entry->vid, entry->delta);
    };
    auto adjust = [&](int32_t c, int64_t delta) {
      if (c == kNoCombo) return;
      // The combo's simulated vector: found by id, or for a combo that
      // was never interned by key; new entries start from the current
      // vector (all-zero when absent).
      const PricingScratch::Sim* sim = nullptr;
      for (const PricingScratch::Sim& e : s->sims) {
        if (e.group != tr.group || e.combo != c) continue;
        if (c != kUnseen ||
            std::equal(s->tb.keys.begin() + e.key,
                       s->tb.keys.begin() + e.key + st.combos.width(),
                       s->tb.keys.begin() + tr.key)) {
          sim = &e;
          break;
        }
      }
      size_t off;
      if (sim != nullptr) {
        off = sim->vec;
      } else {
        off = s->vals.size();
        const int32_t vid =
            c == kUnseen ? -1 : st.combo_vec[static_cast<size_t>(c)];
        if (vid >= 0) {
          const auto cur = st.xi.key(vid);
          s->vals.insert(s->vals.end(), cur.begin(), cur.end());
        } else {
          s->vals.resize(off + k, 0);
        }
        s->sims.push_back({tr.group, c, tr.key, off});
      }
      if (!AllZero(vec_of(off, tr.group))) bump(off, -1);
      s->vals[off + static_cast<size_t>(tr.member)] += delta;
      if (!AllZero(vec_of(off, tr.group))) bump(off, +1);
    };
    adjust(tr.old_c, -1);
    adjust(tr.new_c, +1);
    if (capped) {
      double running = 0;
      for (const auto& [g, num] : s->group_num) {
        running += static_cast<double>(num) / NFk(g);
      }
      const double floor_penalty = (running - s->suffix[ti + 1]) /
                                   static_cast<double>(groups_.size());
      if (floor_penalty >
          veto_cap + kPenaltyCapSlack * (1.0 + std::fabs(veto_cap))) {
        return floor_penalty;
      }
    }
  }
  // Sum in (group, vector key) order: floating-point addition is not
  // associative, and votes compare the sum against a cap.
  s->order.clear();
  for (size_t i = 0; i < s->deltas.size(); ++i) {
    if (s->deltas[i].delta != 0) s->order.push_back(i);
  }
  std::sort(s->order.begin(), s->order.end(), [&](size_t x, size_t y) {
    const PricingScratch::Delta& a = s->deltas[x];
    const PricingScratch::Delta& b = s->deltas[y];
    if (a.group != b.group) return a.group < b.group;
    const auto va = vec_of(a.vec, a.group);
    const auto vb = vec_of(b.vec, b.group);
    return std::lexicographical_compare(va.begin(), va.end(), vb.begin(),
                                        vb.end());
  });
  double penalty = 0;
  for (const size_t i : s->order) {
    const PricingScratch::Delta& e = s->deltas[i];
    const CountGapTable& xi = state_[static_cast<size_t>(e.group)].xi;
    penalty += static_cast<double>(xi.Term(e.vid, e.delta)) / NFk(e.group);
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
  IndexTargets();
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
                                      std::span<const int64_t> from,
                                      std::span<const int64_t> to) {
  GroupState& st = state_[static_cast<size_t>(g)];
  const CoappearGroup& grp = groups_[static_cast<size_t>(g)];
  const size_t k = grp.member_tables.size();

  // CoappearVectorRetrieve / TupleRetrieve: pick a combo realizing
  // `from` (a fresh combo when `from` is the zero vector). A unit must
  // never half-apply, so a candidate is accepted only if every member
  // with surplus appearances owns enough unreferenced tuples to delete
  // (members can be post tables whose tuples responses reference).
  auto deletable = [&](int32_t cand) {
    for (size_t mi = 0; mi < k; ++mi) {
      const int64_t need = from[mi] - to[mi];
      if (need <= 0) continue;
      if (st.tuples_by_combo[mi].size(cand) < need) return false;
      // Referenced tuples count too: their references are evacuated
      // to a survivor before deletion, which therefore must exist.
      if (db_->table(grp.member_tables[mi]).NumTuples() <= need) {
        return false;
      }
    }
    return true;
  };
  Key b;
  int32_t combo = kNoCombo;  // b's id; kNoCombo for a fresh combo
  if (AllZero(from)) {
    Key cand;
    for (int tries = 0; tries < 64 && b.empty(); ++tries) {
      cand.clear();
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
      if (cand.empty()) continue;
      const int32_t c = st.combos.Find(cand);
      if (c < 0 || st.combo_vec[static_cast<size_t>(c)] < 0) b = cand;
    }
    if (b.empty()) return false;
  } else {
    const int32_t vid = st.xi.Find(from);
    if (vid < 0) return false;
    const TombstoneBucket& bucket = st.buckets[static_cast<size_t>(vid)];
    if (bucket.live() == 0) return false;
    // Live ranks offset, offset+1, ... (mod live size), in bucket order.
    const int32_t offset = static_cast<int32_t>(
        ctx->rng()->UniformInt(0, int64_t{bucket.live()} - 1));
    const int32_t probes = std::min<int32_t>(bucket.live(), 16);
    int32_t slot = bucket.SlotOfRank(offset);
    for (int32_t j = 0; j < probes; ++j, slot = bucket.NextLive(slot)) {
      if (deletable(bucket.id(slot))) {
        combo = bucket.id(slot);
        break;
      }
    }
    if (combo == kNoCombo) return false;
    const auto key = st.combos.key(combo);
    b.assign(key.begin(), key.end());
  }

  // TupleModification: per member, delete surplus / insert missing
  // tuples with foreign keys b.
  int veto_budget = max_attempts_;
  for (size_t mi = 0; mi < k; ++mi) {
    const int64_t have = from[mi];
    const int64_t want = to[mi];
    const Table& table = db_->table(grp.member_tables[mi]);
    const int table_index = grp.member_tables[mi];
    const SlotLists& lists = st.tuples_by_combo[mi];
    int64_t d = have;
    while (d > want) {
      // Batched deletion: propose all unreferenced victims of this
      // combo as one span (one composite vote, one log segment);
      // fall back to the per-victim escalation path on veto.
      if (ctx->batch_hint() > 1 && d - want > 1) {
        const int32_t size = lists.size(combo);
        if (size == 0) return false;  // statistics drifted; re-evaluate
        const size_t cap = static_cast<size_t>(
            std::min<int64_t>(d - want, ctx->batch_hint()));
        std::vector<Modification> batch;
        const auto boff = static_cast<int32_t>(
            ctx->rng()->UniformInt(0, int64_t{size} - 1));
        int64_t cand = lists.AtRank(combo, boff);
        for (int32_t j = 0; j < size && batch.size() < cap;
             ++j, cand = lists.NextWrapped(combo, cand)) {
          if (db_->Unreferenced(table_index, cand)) {
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
        const int32_t size = lists.size(combo);
        if (size == 0) return false;  // statistics drifted; re-evaluate
        // Prefer an unreferenced victim; otherwise evacuate one.
        TupleId victim = kInvalidTuple;
        const auto offset = static_cast<int32_t>(
            ctx->rng()->UniformInt(0, int64_t{size} - 1));
        const int64_t first = lists.AtRank(combo, offset);
        int64_t cand = first;
        for (int32_t j = 0; j < size;
             ++j, cand = lists.NextWrapped(combo, cand)) {
          if (db_->Unreferenced(table_index, cand)) {
            victim = cand;
            break;
          }
        }
        if (victim == kInvalidTuple) {
          victim = first;
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
        std::vector<Value> row = ctx->TemplateRow(table);
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
        if (!ctx->TryOrForce(mod).ok()) return false;
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
  for (const FkEdge& e : graph_.InEdges(table_index)) {
    const Table& child = db_->table(e.child_table);
    // A copy in ascending id order: the re-points below edit the list.
    const std::vector<TupleId> referrers =
        db_->Referrers(e.child_table, e.fk_col, victim);
    if (referrers.empty()) continue;
    if (ctx->batch_hint() > 1 && referrers.size() > 1) {
      // One broadcast modification re-points every referrer at once
      // (columnar write, one vote, one notification).
      Modification mod = Modification::ReplaceValues(
          child.name(), referrers, {e.fk_col},
          {Value(static_cast<int64_t>(survivor))});
      if (!ctx->TryOrForce(mod).ok()) return false;
      continue;
    }
    for (const TupleId r : referrers) {
      Modification mod = Modification::ReplaceValues(
          child.name(), {r}, {e.fk_col},
          {Value(static_cast<int64_t>(survivor))});
      if (!ctx->TryOrForce(mod).ok()) return false;
    }
  }
  return db_->Unreferenced(table_index, victim);
}

Status CoappearPropertyTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("coappear: Tweak needs Bind");
  BuildSearchIndex();
  for (size_t g = 0; g < groups_.size(); ++g) {
    const int gi = static_cast<int>(g);
    CountGapTable& xi = state_[g].xi;
    // A member that also is a parent (a self-referencing table) moves
    // the combo space, so it is re-read after every conversion.
    xi.SetSpace(CurrentComboSpace(gi));
    // Guard: each conversion reduces the L1 gap, so 2x the initial gap
    // (plus slack) bounds the loop.
    xi.ConvertDeficits(2 * xi.full_gap() + 64, [&](auto from, auto to) {
      const bool converted = ConvertOne(ctx, gi, from, to);
      xi.SetSpace(CurrentComboSpace(gi));
      return converted;
    });
  }
  ReleaseSearchIndex();
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
  const Status st = ReadTarget(in);
  IndexTargets();
  return st;
}

Status CoappearPropertyTool::ReadTarget(std::istream* in) {
  std::string tag;
  size_t n = 0;
  if (!(*in >> tag >> n) || tag != "coappear" || n != groups_.size()) {
    return Status::IoError("coappear: bad target header");
  }
  for (size_t g = 0; g < n; ++g) {
    const CoappearGroup& grp = groups_[g];
    size_t parents = 0;
    if (!(*in >> tag >> parents) || tag != "group") {
      return Status::IoError("coappear: bad group header");
    }
    if (parents != grp.parent_tables.size()) {
      return Status::IoError("coappear: parent count differs from group");
    }
    target_parent_sizes_[g].assign(parents, 0);
    for (int64_t& s : target_parent_sizes_[g]) {
      if (!(*in >> s)) return Status::IoError("coappear: truncated");
    }
    size_t members = 0;
    if (!(*in >> members)) return Status::IoError("coappear: truncated");
    if (members != grp.member_tables.size()) {
      return Status::IoError("coappear: member count differs from group");
    }
    target_member_sizes_[g].assign(members, 0);
    for (int64_t& s : target_member_sizes_[g]) {
      if (!(*in >> s)) return Status::IoError("coappear: truncated");
    }
    ASPECT_ASSIGN_OR_RETURN(
        target_xi_[g],
        FrequencyDistribution::Read(in, static_cast<int>(members)));
  }
  return Status::OK();
}

}  // namespace aspect
