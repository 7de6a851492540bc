#include "properties/pairwise.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/string_util.h"

namespace aspect {
namespace {

using Key = FrequencyDistribution::Key;

bool EraseFrom(std::vector<TupleId>* v, TupleId t) {
  const auto it = std::find(v->begin(), v->end(), t);
  if (it == v->end()) return false;
  *it = v->back();
  v->pop_back();
  return true;
}

// Counts `who` into (d > 0) or out of (d < 0) key `key` of `table` and
// its bucket of realizing pairs or users.
template <typename Bucket, typename Who>
void Move(CountGapTable* table, std::vector<Bucket>* buckets,
          std::span<const int64_t> key, const Who& who, int64_t d) {
  const int32_t id = table->Intern(key);
  buckets->resize(static_cast<size_t>(table->size()));
  table->Add(id, d);
  Bucket& bucket = (*buckets)[static_cast<size_t>(id)];
  if (d > 0) {
    bucket.insert(who);
  } else {
    bucket.erase(who);
  }
}

}  // namespace

PairwisePropertyTool::PairwisePropertyTool(const Schema& schema)
    : schema_(schema), specs_(schema.responses) {
  for (size_t s = 0; s < specs_.size(); ++s) {
    response_index_[schema_.TableIndex(specs_[s].response_table)].push_back(
        static_cast<int>(s));
    post_index_[schema_.TableIndex(specs_[s].post_table)].push_back(
        static_cast<int>(s));
    target_rho_.emplace_back(2);
    target_rho_self_.emplace_back(1);
  }
  target_users_.assign(specs_.size(), 0);
}

Status PairwisePropertyTool::SetTargetFromDataset(
    const Database& ground_truth) {
  for (size_t s = 0; s < specs_.size(); ++s) {
    const ResponseSpec& spec = specs_[s];
    const Table* resp = ground_truth.FindTable(spec.response_table);
    const Table* post = ground_truth.FindTable(spec.post_table);
    const Table* user = ground_truth.FindTable(schema_.user_table);
    if (resp == nullptr || post == nullptr || user == nullptr) {
      return Status::Invalid("pairwise: ground truth misses tables");
    }
    std::map<UserPair, int64_t> n;
    resp->ForEachLive([&](TupleId rid) {
      if (!resp->column(spec.responder_col).IsValue(rid) ||
          !resp->column(spec.post_col).IsValue(rid)) {
        return;
      }
      const TupleId u = resp->column(spec.responder_col).GetInt(rid);
      const TupleId p = resp->column(spec.post_col).GetInt(rid);
      const TupleId v = post->column(spec.author_col).GetInt(p);
      ++n[{u, v}];
    });
    FrequencyDistribution rho(2), rho_self(1);
    for (const auto& [pair, x] : n) {
      const auto& [u, v] = pair;
      if (u == v) {
        rho_self.Add({x}, 1);
      } else {
        const auto yit = n.find({v, u});
        const int64_t y = yit == n.end() ? 0 : yit->second;
        rho.Add({x, y}, 1);  // counted once per ordered pair
      }
      // Pairs where only (v, u) is present are added when the loop
      // reaches them; (x, 0) pairs need the reverse entry too.
      if (u != v && n.find({v, u}) == n.end()) {
        rho.Add({0, x}, 1);
      }
    }
    target_rho_[s] = std::move(rho);
    target_rho_self_[s] = std::move(rho_self);
    target_users_[s] = user->NumTuples();
  }
  IndexTargets();
  return Status::OK();
}

void PairwisePropertyTool::IndexTargets() {
  if (!bound()) return;
  for (size_t s = 0; s < specs_.size(); ++s) {
    SpecState& st = state_[s];
    const int64_t users = target_users_[s];
    st.rho.SetTarget(target_rho_[s], users * (users - 1));
    st.self.SetTarget(target_rho_self_[s], users);
    st.buckets.resize(static_cast<size_t>(st.rho.size()));
    st.self_buckets.resize(static_cast<size_t>(st.self.size()));
  }
}

Status PairwisePropertyTool::Bind(Database* db) {
  db_ = db;
  state_.assign(specs_.size(), SpecState{});
  for (size_t s = 0; s < specs_.size(); ++s) {
    const ResponseSpec& spec = specs_[s];
    SpecState& st = state_[s];
    const Table* resp = db_->FindTable(spec.response_table);
    const Table* post = db_->FindTable(spec.post_table);
    st.resp_user.assign(static_cast<size_t>(resp->NumSlots()),
                        kInvalidTuple);
    st.resp_post.assign(static_cast<size_t>(resp->NumSlots()),
                        kInvalidTuple);
    st.post_author.assign(static_cast<size_t>(post->NumSlots()),
                          kInvalidTuple);
    post->ForEachLive([&](TupleId pid) {
      if (!post->column(spec.author_col).IsValue(pid)) return;
      const TupleId a = post->column(spec.author_col).GetInt(pid);
      st.post_author[static_cast<size_t>(pid)] = a;
      st.posts_by_user[a].push_back(pid);
    });
    resp->ForEachLive([&](TupleId rid) {
      if (!resp->column(spec.responder_col).IsValue(rid) ||
          !resp->column(spec.post_col).IsValue(rid)) {
        return;
      }
      const TupleId u = resp->column(spec.responder_col).GetInt(rid);
      const TupleId p = resp->column(spec.post_col).GetInt(rid);
      st.resp_user[static_cast<size_t>(rid)] = u;
      st.resp_post[static_cast<size_t>(rid)] = p;
      st.responses_by_post[p].push_back(rid);
      const TupleId v = st.post_author[static_cast<size_t>(p)];
      st.responses[{u, v}].push_back(rid);
      ApplyNChange({static_cast<int>(s), u, v, 1});
    });
  }
  IndexTargets();
  db_->AddListener(this);
  return Status::OK();
}

void PairwisePropertyTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
  state_.clear();
}

void PairwisePropertyTool::ApplyNChange(const NChange& c) {
  SpecState& st = state_[static_cast<size_t>(c.spec)];
  auto& incoming = st.incoming[c.v];
  incoming += c.delta;
  if (incoming == 0) st.incoming.erase(c.v);
  auto count = [&](TupleId a, TupleId b) -> int64_t {
    const auto it = st.n.find({a, b});
    return it == st.n.end() ? 0 : it->second;
  };
  if (c.u == c.v) {
    const int64_t x = count(c.u, c.u);
    if (x > 0) Move(&st.self, &st.self_buckets, std::array{x}, c.u, -1);
    const int64_t nx = x + c.delta;
    assert(nx >= 0);
    if (nx > 0) {
      st.n[{c.u, c.u}] = nx;
      Move(&st.self, &st.self_buckets, std::array{nx}, c.u, +1);
    } else {
      st.n.erase({c.u, c.u});
    }
    return;
  }
  const int64_t x = count(c.u, c.v);
  const int64_t y = count(c.v, c.u);
  const UserPair uv{c.u, c.v};
  const UserPair vu{c.v, c.u};
  if (x != 0 || y != 0) {
    Move(&st.rho, &st.buckets, std::array{x, y}, uv, -1);
    Move(&st.rho, &st.buckets, std::array{y, x}, vu, -1);
  }
  const int64_t nx = x + c.delta;
  assert(nx >= 0);
  if (nx > 0) {
    st.n[{c.u, c.v}] = nx;
  } else {
    st.n.erase({c.u, c.v});
  }
  if (nx != 0 || y != 0) {
    Move(&st.rho, &st.buckets, std::array{nx, y}, uv, +1);
    Move(&st.rho, &st.buckets, std::array{y, nx}, vu, +1);
  }
}

std::vector<PairwisePropertyTool::NChange>
PairwisePropertyTool::CollectNChanges(const Modification& mod,
                                      TupleId new_tuple,
                                      bool pre_apply) const {
  // The inserted tuple's id is irrelevant to pair counts (the counts
  // key on responder/author, not on the response id).
  (void)new_tuple;
  std::vector<NChange> out;
  const int table = db_->schema().TableIndex(mod.table);

  const auto rit = response_index_.find(table);
  if (rit != response_index_.end()) {
    for (const int s : rit->second) {
      const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
      const SpecState& st = state_[static_cast<size_t>(s)];
      const Table& resp = db_->table(table);
      auto author_of = [&](TupleId p) -> TupleId {
        if (p < 0 ||
            p >= static_cast<TupleId>(st.post_author.size())) {
          // A post appended after Bind: read from the database.
          const Table* post = db_->FindTable(spec.post_table);
          if (post == nullptr || p < 0 || p >= post->NumSlots() ||
              !post->column(spec.author_col).IsValue(p)) {
            return kInvalidTuple;
          }
          return post->column(spec.author_col).GetInt(p);
        }
        return st.post_author[static_cast<size_t>(p)];
      };
      auto cached = [&](TupleId rid, bool* counted) -> UserPair {
        const TupleId u =
            rid < static_cast<TupleId>(st.resp_user.size())
                ? st.resp_user[static_cast<size_t>(rid)]
                : kInvalidTuple;
        const TupleId p =
            rid < static_cast<TupleId>(st.resp_post.size())
                ? st.resp_post[static_cast<size_t>(rid)]
                : kInvalidTuple;
        *counted = u != kInvalidTuple && p != kInvalidTuple;
        return {u, *counted ? author_of(p) : kInvalidTuple};
      };
      auto emit = [&](TupleId u, TupleId v, int64_t delta) {
        if (u != kInvalidTuple && v != kInvalidTuple) {
          out.push_back({s, u, v, delta});
        }
      };
      switch (mod.kind) {
        case OpKind::kInsertTuple: {
          const Value& uv =
              mod.values[static_cast<size_t>(spec.responder_col)];
          const Value& pv = mod.values[static_cast<size_t>(spec.post_col)];
          if (!uv.is_null() && !pv.is_null()) {
            emit(uv.int64(), author_of(pv.int64()), +1);
          }
          break;
        }
        case OpKind::kDeleteTuple: {
          bool counted = false;
          const UserPair uvp = cached(mod.tuples[0], &counted);
          if (counted) emit(uvp.first, uvp.second, -1);
          break;
        }
        case OpKind::kDeleteValues:
        case OpKind::kInsertValues:
        case OpKind::kReplaceValues: {
          bool touches = false;
          for (const int c : mod.cols) {
            touches |= c == spec.responder_col || c == spec.post_col;
          }
          if (!touches) break;
          for (const TupleId rid : mod.tuples) {
            bool counted = false;
            const UserPair old_uv = cached(rid, &counted);
            if (counted) emit(old_uv.first, old_uv.second, -1);
            // New state: overlay proposed values (pre-apply) or read
            // the updated database (post-apply).
            TupleId nu = kInvalidTuple, np = kInvalidTuple;
            auto cell = [&](int col) -> Value {
              if (pre_apply) {
                for (size_t j = 0; j < mod.cols.size(); ++j) {
                  if (mod.cols[j] == col) {
                    if (mod.kind == OpKind::kDeleteValues) return Value();
                    return mod.values[j];
                  }
                }
              }
              return resp.column(col).Get(rid);
            };
            const Value nuv = cell(spec.responder_col);
            const Value npv = cell(spec.post_col);
            if (!nuv.is_null()) nu = nuv.int64();
            if (!npv.is_null()) np = npv.int64();
            if (nu != kInvalidTuple && np != kInvalidTuple) {
              emit(nu, author_of(np), +1);
            }
          }
          break;
        }
      }
    }
  }

  const auto pit = post_index_.find(table);
  if (pit != post_index_.end()) {
    for (const int s : pit->second) {
      const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
      const SpecState& st = state_[static_cast<size_t>(s)];
      const Table& post = db_->table(table);
      // Only author reassignment moves response counts between pairs.
      if (mod.kind != OpKind::kReplaceValues) continue;
      int author_j = -1;
      for (size_t j = 0; j < mod.cols.size(); ++j) {
        if (mod.cols[j] == spec.author_col) author_j = static_cast<int>(j);
      }
      if (author_j < 0) continue;
      for (const TupleId pid : mod.tuples) {
        const TupleId old_a =
            pid < static_cast<TupleId>(st.post_author.size())
                ? st.post_author[static_cast<size_t>(pid)]
                : (post.column(spec.author_col).IsValue(pid)
                       ? post.column(spec.author_col).GetInt(pid)
                       : kInvalidTuple);
        const Value& nav = mod.values[static_cast<size_t>(author_j)];
        const TupleId new_a = nav.is_null() ? kInvalidTuple : nav.int64();
        if (old_a == new_a) continue;
        const auto lit = st.responses_by_post.find(pid);
        if (lit == st.responses_by_post.end()) continue;
        for (const TupleId rid : lit->second) {
          const TupleId u = st.resp_user[static_cast<size_t>(rid)];
          if (u == kInvalidTuple) continue;
          if (old_a != kInvalidTuple) out.push_back({s, u, old_a, -1});
          if (new_a != kInvalidTuple) out.push_back({s, u, new_a, +1});
        }
      }
    }
  }
  return out;
}

void PairwisePropertyTool::ApplyStructural(
    const Modification& mod, const std::vector<Value>& old_values,
    TupleId new_tuple) {
  (void)old_values;  // pre-images come from this tool's own caches
  const int table = db_->schema().TableIndex(mod.table);

  const auto rit = response_index_.find(table);
  if (rit != response_index_.end()) {
    for (const int s : rit->second) {
      const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
      SpecState& st = state_[static_cast<size_t>(s)];
      auto author_of = [&](TupleId p) -> TupleId {
        return p >= 0 && p < static_cast<TupleId>(st.post_author.size())
                   ? st.post_author[static_cast<size_t>(p)]
                   : kInvalidTuple;
      };
      auto unlink = [&](TupleId rid) {
        const TupleId u = st.resp_user[static_cast<size_t>(rid)];
        const TupleId p = st.resp_post[static_cast<size_t>(rid)];
        if (u == kInvalidTuple || p == kInvalidTuple) return;
        EraseFrom(&st.responses_by_post[p], rid);
        if (st.responses_by_post[p].empty()) st.responses_by_post.erase(p);
        const TupleId v = author_of(p);
        const auto it = st.responses.find({u, v});
        if (it != st.responses.end()) {
          EraseFrom(&it->second, rid);
          if (it->second.empty()) st.responses.erase(it);
        }
      };
      auto link = [&](TupleId rid) {
        const TupleId u = st.resp_user[static_cast<size_t>(rid)];
        const TupleId p = st.resp_post[static_cast<size_t>(rid)];
        if (u == kInvalidTuple || p == kInvalidTuple) return;
        st.responses_by_post[p].push_back(rid);
        st.responses[{u, author_of(p)}].push_back(rid);
      };
      auto grow = [&](TupleId rid) {
        if (rid >= static_cast<TupleId>(st.resp_user.size())) {
          st.resp_user.resize(static_cast<size_t>(rid) + 1, kInvalidTuple);
          st.resp_post.resize(static_cast<size_t>(rid) + 1, kInvalidTuple);
        }
      };
      switch (mod.kind) {
        case OpKind::kInsertTuple: {
          grow(new_tuple);
          const Value& uv =
              mod.values[static_cast<size_t>(spec.responder_col)];
          const Value& pv = mod.values[static_cast<size_t>(spec.post_col)];
          st.resp_user[static_cast<size_t>(new_tuple)] =
              uv.is_null() ? kInvalidTuple : uv.int64();
          st.resp_post[static_cast<size_t>(new_tuple)] =
              pv.is_null() ? kInvalidTuple : pv.int64();
          link(new_tuple);
          break;
        }
        case OpKind::kDeleteTuple: {
          const TupleId rid = mod.tuples[0];
          unlink(rid);
          st.resp_user[static_cast<size_t>(rid)] = kInvalidTuple;
          st.resp_post[static_cast<size_t>(rid)] = kInvalidTuple;
          break;
        }
        case OpKind::kDeleteValues:
        case OpKind::kInsertValues:
        case OpKind::kReplaceValues: {
          bool touches = false;
          for (const int c : mod.cols) {
            touches |= c == spec.responder_col || c == spec.post_col;
          }
          if (!touches) break;
          const Table& resp = db_->table(table);
          for (const TupleId rid : mod.tuples) {
            unlink(rid);
            grow(rid);
            st.resp_user[static_cast<size_t>(rid)] =
                resp.column(spec.responder_col).IsValue(rid)
                    ? resp.column(spec.responder_col).GetInt(rid)
                    : kInvalidTuple;
            st.resp_post[static_cast<size_t>(rid)] =
                resp.column(spec.post_col).IsValue(rid)
                    ? resp.column(spec.post_col).GetInt(rid)
                    : kInvalidTuple;
            link(rid);
          }
          break;
        }
      }
    }
  }

  const auto pit = post_index_.find(table);
  if (pit != post_index_.end()) {
    for (const int s : pit->second) {
      const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
      SpecState& st = state_[static_cast<size_t>(s)];
      auto set_author = [&](TupleId pid, TupleId a) {
        if (pid >= static_cast<TupleId>(st.post_author.size())) {
          st.post_author.resize(static_cast<size_t>(pid) + 1,
                                kInvalidTuple);
        }
        const TupleId old_a = st.post_author[static_cast<size_t>(pid)];
        if (old_a != kInvalidTuple) {
          EraseFrom(&st.posts_by_user[old_a], pid);
          if (st.posts_by_user[old_a].empty()) {
            st.posts_by_user.erase(old_a);
          }
        }
        st.post_author[static_cast<size_t>(pid)] = a;
        if (a != kInvalidTuple) st.posts_by_user[a].push_back(pid);
      };
      switch (mod.kind) {
        case OpKind::kInsertTuple: {
          const Value& av =
              mod.values[static_cast<size_t>(spec.author_col)];
          set_author(new_tuple, av.is_null() ? kInvalidTuple : av.int64());
          break;
        }
        case OpKind::kDeleteTuple:
          set_author(mod.tuples[0], kInvalidTuple);
          break;
        case OpKind::kDeleteValues:
        case OpKind::kInsertValues:
        case OpKind::kReplaceValues: {
          bool touches = false;
          for (const int c : mod.cols) touches |= c == spec.author_col;
          if (!touches) break;
          const Table& post = db_->table(table);
          for (const TupleId pid : mod.tuples) {
            const TupleId a = post.column(spec.author_col).IsValue(pid)
                                  ? post.column(spec.author_col).GetInt(pid)
                                  : kInvalidTuple;
            // Response pair lists keyed by the old author must be
            // re-homed: move every response of this post.
            const auto lit = st.responses_by_post.find(pid);
            std::vector<TupleId> rids =
                lit == st.responses_by_post.end() ? std::vector<TupleId>{}
                                                  : lit->second;
            const TupleId old_a = st.post_author[static_cast<size_t>(pid)];
            for (const TupleId rid : rids) {
              const TupleId u = st.resp_user[static_cast<size_t>(rid)];
              auto it = st.responses.find({u, old_a});
              if (it != st.responses.end()) {
                EraseFrom(&it->second, rid);
                if (it->second.empty()) st.responses.erase(it);
              }
            }
            set_author(pid, a);
            for (const TupleId rid : rids) {
              const TupleId u = st.resp_user[static_cast<size_t>(rid)];
              st.responses[{u, a}].push_back(rid);
            }
          }
          break;
        }
      }
    }
  }
}

void PairwisePropertyTool::OnApplied(const Modification& mod,
                                     const std::vector<Value>& old_values,
                                     TupleId new_tuple) {
  if (db_ == nullptr) return;
  const std::vector<NChange> changes =
      CollectNChanges(mod, new_tuple, /*pre_apply=*/false);
  for (const NChange& c : changes) ApplyNChange(c);
  ApplyStructural(mod, old_values, new_tuple);
}

void PairwisePropertyTool::SetSpaces(int s) {
  const Table* t = db_->FindTable(schema_.user_table);
  const int64_t users = t == nullptr ? 0 : t->NumTuples();
  SpecState& st = state_[static_cast<size_t>(s)];
  st.rho.SetSpace(users * (users - 1));
  st.self.SetSpace(users);
}

double PairwisePropertyTool::Denominator(int s) const {
  const SpecState& st = state_[static_cast<size_t>(s)];
  return static_cast<double>(std::max<int64_t>(
      1, st.rho.target_mass() + st.self.target_mass()));
}

FrequencyDistribution PairwisePropertyTool::CurrentRho(int s) const {
  return bound() ? state_[static_cast<size_t>(s)].rho.Current()
                 : FrequencyDistribution(2);
}

FrequencyDistribution PairwisePropertyTool::CurrentRhoSelf(int s) const {
  return bound() ? state_[static_cast<size_t>(s)].self.Current()
                 : FrequencyDistribution(1);
}

double PairwisePropertyTool::Error() const {
  if (specs_.empty() || db_ == nullptr) return 0.0;
  // epsilon_rho = (1/N_user-pair) sum |rho - rho~| over interacting
  // pairs, where N_user-pair is the number of interacting (ordered)
  // pairs in the target - the normalization under which the paper's
  // bound of 2 is tight (Sec. VI-C1). Self-responses are measured the
  // same way and folded in.
  double sum = 0;
  for (size_t s = 0; s < specs_.size(); ++s) {
    const SpecState& st = state_[s];
    sum += static_cast<double>(st.rho.gap() + st.self.gap()) /
           Denominator(static_cast<int>(s));
  }
  return sum / static_cast<double>(specs_.size());
}

double PairwisePropertyTool::ValidationPenalty(
    const Modification& mod) const {
  if (db_ == nullptr) return 0.0;
  return PenaltyOfChanges(
      CollectNChanges(mod, kInvalidTuple, /*pre_apply=*/true));
}

double PairwisePropertyTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  if (db_ == nullptr) return 0.0;
  std::vector<NChange> changes;
  for (const Modification& mod : mods) {
    const std::vector<NChange> one =
        CollectNChanges(mod, kInvalidTuple, /*pre_apply=*/true);
    changes.insert(changes.end(), one.begin(), one.end());
  }
  return PenaltyOfChanges(changes, veto_cap);
}

AccessScope PairwisePropertyTool::DeclaredScope() const {
  AccessScope scope;
  scope.known = true;
  for (const ResponseSpec& spec : specs_) {
    scope.AddWrite(schema_.TableIndex(spec.response_table),
                   AccessScope::kWholeTable);
    scope.AddWrite(schema_.TableIndex(spec.post_table),
                   AccessScope::kWholeTable);
  }
  const int user = schema_.TableIndex(schema_.user_table);
  if (user >= 0) scope.AddRead(user, AccessScope::kWholeTable);
  return scope;
}

double PairwisePropertyTool::PenaltyOfChanges(
    const std::vector<NChange>& changes, double veto_cap) const {
  if (changes.empty()) return 0.0;
  const bool capped = veto_cap != kNoPenaltyCap;
  // Simulate: n-values overlay, rho and rho_S deltas keyed by (is
  // rho_S, spec, key), so every rho term sorts before every rho_S one.
  std::map<std::tuple<int, TupleId, TupleId>, int64_t> sim_n;
  using DeltaKey = std::tuple<bool, int, Key>;
  std::map<DeltaKey, int64_t> deltas;
  auto count = [&](int s, TupleId a, TupleId b) -> int64_t {
    const auto& n = state_[static_cast<size_t>(s)].n;
    const auto it = n.find({a, b});
    int64_t base = it == n.end() ? 0 : it->second;
    const auto sit = sim_n.find({s, a, b});
    if (sit != sim_n.end()) base += sit->second;
    return base;
  };
  // Capped pricing keeps each spec's partial penalty numerator exact
  // (in integers): the final loops' |cur+delta-tgt| - |cur-tgt| term,
  // summed over this spec's rho/self delta keys, re-adjusted on every
  // delta change. The early-exit test then sums a handful of exact
  // integer numerators instead of accumulating a drifting float.
  std::map<int, int64_t> spec_num;
  auto term = [&](const DeltaKey& k, int64_t delta) {
    const auto& [self, s, key] = k;
    const SpecState& st = state_[static_cast<size_t>(s)];
    const CountGapTable& t = self ? st.self : st.rho;
    return t.Term(t.Find(key), delta);
  };
  auto bump = [&](bool self, int s, const Key& key, int64_t d) {
    const DeltaKey k{self, s, key};
    int64_t& slot = deltas[k];
    if (capped) spec_num[s] -= term(k, slot);
    slot += d;
    if (capped) spec_num[s] += term(k, slot);
  };
  // suffix[i] bounds how much the numerators can still move pricing
  // changes[i..): a pair change touches four rho entries by +-1, a
  // self change two self entries, and a +-1 delta change moves its
  // term by at most 1 — so 4/denom (2/denom for self) per change.
  // (Changes that land on the excluded zero key touch fewer entries;
  // the bound still covers them.)
  std::vector<double> suffix;
  if (capped) {
    suffix.assign(changes.size() + 1, 0.0);
    for (size_t i = changes.size(); i-- > 0;) {
      const double moves = changes[i].u == changes[i].v ? 2.0 : 4.0;
      suffix[i] = suffix[i + 1] + moves / Denominator(changes[i].spec);
    }
  }
  for (size_t ci = 0; ci < changes.size(); ++ci) {
    const NChange& c = changes[ci];
    if (c.u == c.v) {
      const int64_t x = count(c.spec, c.u, c.u);
      // The zero key is excluded from the measure, as in Error().
      if (x > 0) bump(true, c.spec, {x}, -1);
      const int64_t nx = x + c.delta;
      if (nx > 0) bump(true, c.spec, {nx}, +1);
    } else {
      const int64_t x = count(c.spec, c.u, c.v);
      const int64_t y = count(c.spec, c.v, c.u);
      if (x != 0 || y != 0) {
        bump(false, c.spec, {x, y}, -1);
        bump(false, c.spec, {y, x}, -1);
      }
      const int64_t nx = x + c.delta;
      if (nx != 0 || y != 0) {
        bump(false, c.spec, {nx, y}, +1);
        bump(false, c.spec, {y, nx}, +1);
      }
    }
    sim_n[{c.spec, c.u, c.v}] += c.delta;
    if (capped) {
      double running = 0;
      for (const auto& [s, num] : spec_num) {
        running += static_cast<double>(num) / Denominator(s);
      }
      const double floor_penalty = (running - suffix[ci + 1]) /
                                   static_cast<double>(specs_.size());
      if (floor_penalty >
          veto_cap + kPenaltyCapSlack * (1.0 + std::fabs(veto_cap))) {
        return floor_penalty;
      }
    }
  }
  double penalty = 0;
  for (const auto& [k, delta] : deltas) {
    if (delta == 0) continue;
    penalty += static_cast<double>(term(k, delta)) /
               Denominator(std::get<1>(k));
  }
  return penalty / static_cast<double>(specs_.size());
}

Status PairwisePropertyTool::RepairTarget() {
  if (!bound()) return Status::Invalid("pairwise: RepairTarget needs Bind");
  for (size_t s = 0; s < specs_.size(); ++s) {
    FrequencyDistribution& rho = target_rho_[s];
    FrequencyDistribution& rho_self = target_rho_self_[s];
    const int64_t users =
        db_->FindTable(schema_.user_table)->NumTuples();
    target_users_[s] = users;
    // (P1) symmetry: rho(x, y) == rho(y, x).
    {
      FrequencyDistribution sym(2);
      for (const auto& [k, c] : rho.counts()) {
        const Key rev = {k[1], k[0]};
        const int64_t m = (c + rho.Count(rev)) / 2;
        if (m > 0 && k <= rev) {
          sym.Add(k, m);
          if (rev != k) sym.Add(rev, m);
        }
      }
      rho = std::move(sym);
    }
    // (P3) bounds: stored pair mass within |U|(|U|-1), self within |U|.
    while (rho.TotalMass() > users * (users - 1) && rho.NumKeys() > 0) {
      const Key k = rho.counts().begin()->first;
      rho.Add(k, -rho.Count(k));
      rho.Add({k[1], k[0]}, -rho.Count({k[1], k[0]}));
    }
    while (rho_self.TotalMass() > users && rho_self.NumKeys() > 0) {
      const Key k = rho_self.counts().begin()->first;
      rho_self.Add(k, -1);
    }
    // (P2)/(SP1) response budget: ordered sum_x x*n over pairs plus
    // self responses must equal |R|.
    const int64_t want =
        db_->FindTable(specs_[s].response_table)->NumTuples();
    auto budget = [&]() {
      return rho.WeightedSum(0) + rho_self.WeightedSum(0);
    };
    int64_t d = want - budget();
    while (d > 0) {
      rho.Add({1, 0}, 1);
      rho.Add({0, 1}, 1);
      --d;
    }
    while (d < 0) {
      // Take one response away from some pair (symmetrically).
      Key victim;
      for (const auto& [k, c] : rho.counts()) {
        if (k[0] > 0 && c > 0) {
          victim = k;
          break;
        }
      }
      if (!victim.empty()) {
        const Key rev = {victim[1], victim[0]};
        const Key down = {victim[0] - 1, victim[1]};
        const Key down_rev = {victim[1], victim[0] - 1};
        rho.Add(victim, -1);
        rho.Add(rev, -1);
        if (down[0] != 0 || down[1] != 0) {
          rho.Add(down, 1);
          rho.Add(down_rev, 1);
        }
        ++d;
        continue;
      }
      // Fall back to the self distribution.
      Key sv;
      for (const auto& [k, c] : rho_self.counts()) {
        if (k[0] > 0 && c > 0) {
          sv = k;
          break;
        }
      }
      if (sv.empty()) break;
      rho_self.Add(sv, -1);
      if (sv[0] > 1) rho_self.Add({sv[0] - 1}, 1);
      ++d;
    }
  }
  IndexTargets();
  return Status::OK();
}

Status PairwisePropertyTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("pairwise: needs Bind");
  for (size_t s = 0; s < specs_.size(); ++s) {
    const FrequencyDistribution& rho = target_rho_[s];
    const FrequencyDistribution& rho_self = target_rho_self_[s];
    for (const auto& [k, c] : rho.counts()) {
      if (c < 0) return Status::Infeasible("negative rho count");
      if (rho.Count({k[1], k[0]}) != c) {
        return Status::Infeasible("P1 symmetry violated");
      }
    }
    const int64_t users =
        db_->FindTable(schema_.user_table)->NumTuples();
    if (rho.TotalMass() > users * (users - 1)) {
      return Status::Infeasible("P3 violated: too many pairs");
    }
    if (rho_self.TotalMass() > users) {
      return Status::Infeasible("SP2 violated: too many self users");
    }
    const int64_t want =
        db_->FindTable(specs_[s].response_table)->NumTuples();
    if (rho.WeightedSum(0) + rho_self.WeightedSum(0) != want) {
      return Status::Infeasible("P2/SP1 violated: response budget");
    }
  }
  return Status::OK();
}

TupleId PairwisePropertyTool::EnsurePost(TweakContext* ctx, int s,
                                         TupleId v) {
  const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
  SpecState& st = state_[static_cast<size_t>(s)];
  const auto pit = st.posts_by_user.find(v);
  if (pit != st.posts_by_user.end() && !pit->second.empty()) {
    const auto& posts = pit->second;
    return posts[static_cast<size_t>(ctx->rng()->UniformInt(
        0, static_cast<int64_t>(posts.size()) - 1))];
  }
  Table* post = db_->FindTable(spec.post_table);
  if (post == nullptr) return kInvalidTuple;
  // Steal a post from a user with more than one (Theorem 5).
  for (int tries = 0; tries < 32; ++tries) {
    const TupleId cand = ctx->rng()->UniformInt(0, post->NumSlots() - 1);
    if (!post->IsLive(cand)) continue;
    const TupleId w = st.post_author[static_cast<size_t>(cand)];
    if (w == kInvalidTuple || w == v) continue;
    const auto wit = st.posts_by_user.find(w);
    if (wit == st.posts_by_user.end() || wit->second.size() < 2) continue;
    // Pick w's post with the fewest responses and a sibling to absorb
    // its responses.
    TupleId victim = kInvalidTuple;
    size_t fewest = SIZE_MAX;
    for (const TupleId p : wit->second) {
      const auto lit = st.responses_by_post.find(p);
      const size_t nr = lit == st.responses_by_post.end()
                            ? 0
                            : lit->second.size();
      if (nr < fewest) {
        fewest = nr;
        victim = p;
      }
    }
    TupleId sibling = kInvalidTuple;
    for (const TupleId p : wit->second) {
      if (p != victim) {
        sibling = p;
        break;
      }
    }
    if (victim == kInvalidTuple || sibling == kInvalidTuple) continue;
    // Shift the victim's responses to the sibling (pairs unchanged:
    // both posts belong to w).
    const auto lit = st.responses_by_post.find(victim);
    const std::vector<TupleId> rids =
        lit == st.responses_by_post.end() ? std::vector<TupleId>{}
                                          : lit->second;
    if (ctx->batch_hint() > 1 && rids.size() > 1) {
      // One broadcast modification re-homes every response at once.
      Modification shift = Modification::ReplaceValues(
          spec.response_table, rids, {spec.post_col},
          {Value(static_cast<int64_t>(sibling))});
      if (!ctx->TryOrForce(shift).ok()) return kInvalidTuple;
    } else {
      for (const TupleId rid : rids) {
        Modification shift = Modification::ReplaceValues(
            spec.response_table, {rid}, {spec.post_col},
            {Value(static_cast<int64_t>(sibling))});
        if (!ctx->TryOrForce(shift).ok()) return kInvalidTuple;
      }
    }
    // Re-author the now-empty post to v.
    Modification reauthor = Modification::ReplaceValues(
        spec.post_table, {victim}, {spec.author_col},
        {Value(static_cast<int64_t>(v))});
    if (!ctx->TryOrForce(reauthor).ok()) return kInvalidTuple;
    return victim;
  }
  // Last resort: create a post for v (at most |U| - |P| of these).
  std::vector<Value> row = ctx->TemplateRow(*post);
  row[static_cast<size_t>(spec.author_col)] =
      Value(static_cast<int64_t>(v));
  Modification ins = Modification::InsertTuple(spec.post_table, row);
  TupleId pid = kInvalidTuple;
  if (!ctx->TryOrForce(ins, &pid).ok()) return kInvalidTuple;
  ++st.created_posts;
  return pid;
}

bool PairwisePropertyTool::AdjustResponses(TweakContext* ctx, int s,
                                           TupleId u, TupleId v,
                                           int64_t delta) {
  const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
  SpecState& st = state_[static_cast<size_t>(s)];
  int veto_budget = max_attempts_;
  while (delta < 0) {
    const auto lit = st.responses.find({u, v});
    if (lit == st.responses.end() || lit->second.empty()) return false;
    const auto& list = lit->second;
    // Batched deletion: propose a span of victims as one composite
    // vote; fall back to the per-victim escalation path on veto.
    if (ctx->batch_hint() > 1 && delta < -1 && list.size() > 1) {
      const size_t take = std::min<size_t>(
          static_cast<size_t>(std::min<int64_t>(-delta, ctx->batch_hint())),
          list.size());
      const size_t boff = static_cast<size_t>(ctx->rng()->UniformInt(
          0, static_cast<int64_t>(list.size()) - 1));
      std::vector<Modification> batch;
      for (size_t j = 0; j < take; ++j) {
        batch.push_back(Modification::DeleteTuple(
            spec.response_table, list[(boff + j) % list.size()]));
      }
      if (batch.size() > 1 && ctx->TryApplyBatch(batch).ok()) {
        delta += static_cast<int64_t>(batch.size());
        continue;
      }
    }
    const TupleId victim = list[static_cast<size_t>(ctx->rng()->UniformInt(
        0, static_cast<int64_t>(list.size()) - 1))];
    Modification del =
        Modification::DeleteTuple(spec.response_table, victim);
    Status sd = ctx->TryApply(del);
    if (sd.IsValidationFailed()) {
      if (veto_budget-- > 0) continue;  // try another victim
      sd = ctx->ForceApply(del);
    }
    if (!sd.ok()) return false;
    ++delta;
  }
  while (delta > 0) {
    Table* resp = db_->FindTable(spec.response_table);
    if (resp == nullptr) return false;  // table dropped since the bind
    auto make_row = [&]() {
      std::vector<Value> row = ctx->TemplateRow(*resp);
      row[static_cast<size_t>(spec.responder_col)] =
          Value(static_cast<int64_t>(u));
      return row;
    };
    // Batched insertion: every missing response proposed as one span
    // (each under its own EnsurePost destination), degrading to the
    // per-insert escalation below when the span is vetoed.
    if (ctx->batch_hint() > 1 && delta > 1) {
      const int64_t pending =
          std::min<int64_t>(delta, ctx->batch_hint());
      std::vector<Modification> batch;
      for (int64_t j = 0; j < pending; ++j) {
        const TupleId p = EnsurePost(ctx, s, v);
        if (p == kInvalidTuple) return false;
        std::vector<Value> row = make_row();
        row[static_cast<size_t>(spec.post_col)] =
            Value(static_cast<int64_t>(p));
        batch.push_back(
            Modification::InsertTuple(spec.response_table, row));
      }
      if (ctx->TryApplyBatch(batch).ok()) {
        delta -= pending;
        continue;
      }
    }
    std::vector<Value> row = make_row();
    // Try several of v's posts before forcing: inserting under a
    // different post can satisfy the other tools' validators (e.g. the
    // linear tool cares which post gains its first response).
    bool inserted = false;
    while (!inserted) {
      const TupleId p = EnsurePost(ctx, s, v);
      if (p == kInvalidTuple) return false;
      row[static_cast<size_t>(spec.post_col)] =
          Value(static_cast<int64_t>(p));
      Modification ins =
          Modification::InsertTuple(spec.response_table, row);
      Status si = ctx->TryApply(ins);
      if (si.IsValidationFailed()) {
        if (veto_budget-- > 0) continue;
        si = ctx->ForceApply(ins);
      }
      if (!si.ok()) return false;
      inserted = true;
    }
    --delta;
  }
  return true;
}

bool PairwisePropertyTool::ConvertPair(TweakContext* ctx, int s,
                                       std::span<const int64_t> from,
                                       std::span<const int64_t> to) {
  SpecState& st = state_[static_cast<size_t>(s)];
  TupleId u = kInvalidTuple, v = kInvalidTuple;
  if (from[0] == 0 && from[1] == 0) {
    const Table* users = db_->FindTable(schema_.user_table);
    for (int tries = 0; tries < 96; ++tries) {
      const TupleId a = ctx->rng()->UniformInt(0, users->NumSlots() - 1);
      const TupleId b = ctx->rng()->UniformInt(0, users->NumSlots() - 1);
      if (a == b || !users->IsLive(a) || !users->IsLive(b)) continue;
      if (st.n.count({a, b}) != 0 || st.n.count({b, a}) != 0) continue;
      // Early tries insist on receivers that already get responses
      // (keeps the user-level linear reachability intact); late tries
      // accept anyone.
      if (tries < 64) {
        if (to[0] > 0 && st.incoming.count(b) == 0) continue;
        if (to[1] > 0 && st.incoming.count(a) == 0) continue;
      }
      u = a;
      v = b;
      break;
    }
  } else {
    const int32_t id = st.rho.Find(from);
    if (id < 0 || st.buckets[static_cast<size_t>(id)].empty()) return false;
    const std::set<UserPair>& bucket = st.buckets[static_cast<size_t>(id)];
    auto incoming_of = [&](TupleId w) {
      const auto it = st.incoming.find(w);
      return it == st.incoming.end() ? int64_t{0} : it->second;
    };
    // Probe a few pairs; prefer ones whose receivers keep other
    // incoming responses after the conversion (no reachability flip).
    auto it = bucket.begin();
    std::advance(it, ctx->rng()->UniformInt(
                         0, std::min<int64_t>(
                                static_cast<int64_t>(bucket.size()) - 1, 15)));
    for (int probes = 0; probes < 12 && std::next(it) != bucket.end();
         ++probes) {
      const bool v_safe =
          !(to[0] == 0 && from[0] > 0) || incoming_of(it->second) > from[0];
      const bool u_safe =
          !(to[1] == 0 && from[1] > 0) || incoming_of(it->first) > from[1];
      if (v_safe && u_safe) break;
      ++it;
    }
    u = it->first;
    v = it->second;
  }
  if (u == kInvalidTuple || v == kInvalidTuple) return false;
  if (!AdjustResponses(ctx, s, u, v, to[0] - from[0])) return false;
  return AdjustResponses(ctx, s, v, u, to[1] - from[1]);
}

bool PairwisePropertyTool::ConvertSelf(TweakContext* ctx, int s,
                                       int64_t from, int64_t to) {
  SpecState& st = state_[static_cast<size_t>(s)];
  TupleId u = kInvalidTuple;
  if (from == 0) {
    const Table* users = db_->FindTable(schema_.user_table);
    for (int tries = 0; tries < 64; ++tries) {
      const TupleId a = ctx->rng()->UniformInt(0, users->NumSlots() - 1);
      if (users->IsLive(a) && st.n.count({a, a}) == 0) {
        u = a;
        break;
      }
    }
  } else {
    const int32_t id = st.self.Find(std::array{from});
    if (id < 0 || st.self_buckets[static_cast<size_t>(id)].empty()) {
      return false;
    }
    const std::set<TupleId>& bucket = st.self_buckets[static_cast<size_t>(id)];
    auto it = bucket.begin();
    std::advance(it, ctx->rng()->UniformInt(
                         0, std::min<int64_t>(
                                static_cast<int64_t>(bucket.size()) - 1, 15)));
    u = *it;
  }
  if (u == kInvalidTuple) return false;
  return AdjustResponses(ctx, s, u, u, to - from);
}

Status PairwisePropertyTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("pairwise: Tweak needs Bind");
  for (size_t s = 0; s < specs_.size(); ++s) {
    const int si = static_cast<int>(s);
    SpecState& st = state_[s];
    // The ordered pair distribution (Algorithm 3), then the self
    // distribution (Theorem 11). The user count sets both zero masses;
    // it is re-read after every conversion.
    SetSpaces(si);
    st.rho.ConvertDeficits(st.rho.full_gap() + 64, [&](auto from, auto to) {
      const bool converted = ConvertPair(ctx, si, from, to);
      SetSpaces(si);
      return converted;
    });
    st.self.ConvertDeficits(st.self.full_gap() + 32, [&](auto from, auto to) {
      const bool converted = ConvertSelf(ctx, si, from[0], to[0]);
      SetSpaces(si);
      return converted;
    });
  }
  return Status::OK();
}

Status PairwisePropertyTool::SaveTarget(std::ostream* out) const {
  *out << "pairwise " << specs_.size() << "\n";
  for (size_t s = 0; s < specs_.size(); ++s) {
    *out << "spec " << target_users_[s] << "\n";
    target_rho_[s].Write(out);
    target_rho_self_[s].Write(out);
  }
  return Status::OK();
}

Status PairwisePropertyTool::LoadTarget(std::istream* in) {
  std::string tag;
  size_t n = 0;
  if (!(*in >> tag >> n) || tag != "pairwise" || n != specs_.size()) {
    return Status::IoError("pairwise: bad target header");
  }
  std::vector<int64_t> users(n);
  std::vector<FrequencyDistribution> rho, rho_self;
  for (size_t s = 0; s < n; ++s) {
    if (!(*in >> tag >> users[s]) || tag != "spec") {
      return Status::IoError("pairwise: bad spec header");
    }
    ASPECT_ASSIGN_OR_RETURN(auto r, FrequencyDistribution::Read(in, 2));
    ASPECT_ASSIGN_OR_RETURN(auto r_self, FrequencyDistribution::Read(in, 1));
    rho.push_back(std::move(r));
    rho_self.push_back(std::move(r_self));
  }
  target_users_ = std::move(users);
  target_rho_ = std::move(rho);
  target_rho_self_ = std::move(rho_self);
  IndexTargets();
  return Status::OK();
}

}  // namespace aspect
