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

// An ordered user pair as one bucket key: ascending keys are pairs in
// ascending (u, v) order.
uint64_t Pack(TupleId u, TupleId v) {
  assert(u >= 0 && v >= 0 && u <= UINT32_MAX && v <= UINT32_MAX);
  return static_cast<uint64_t>(u) << 32 | static_cast<uint64_t>(v);
}
TupleId PackedFirst(uint64_t key) { return static_cast<TupleId>(key >> 32); }
TupleId PackedSecond(uint64_t key) {
  return static_cast<TupleId>(key & UINT32_MAX);
}
// The unordered pair {u, v} as a PairIndex key, and the slot of the
// ordered pair (u, v) under that key's id (see SpecState).
uint64_t PairKey(TupleId u, TupleId v) {
  return Pack(std::min(u, v), std::max(u, v));
}
int64_t PairSlot(int32_t id, TupleId u, TupleId v) {
  return int64_t{id} * 2 + (u > v ? 1 : 0);
}

// Counts `who` into (d > 0) or out of (d < 0) key `key` of `table`
// and, unless `buckets` is null (no search index), its bucket of
// realizing pairs or users.
void Move(CountGapTable* table, std::vector<OrderedKeySet>* buckets,
          std::span<const int64_t> key, uint64_t who, int64_t d) {
  const int32_t id = table->Intern(key);
  table->Add(id, d);
  if (buckets == nullptr) return;
  if (buckets->size() < static_cast<size_t>(table->size())) {
    buckets->resize(static_cast<size_t>(table->size()));
  }
  OrderedKeySet& bucket = (*buckets)[static_cast<size_t>(id)];
  if (d > 0) {
    bucket.Insert(who);
  } else {
    bucket.Remove(who);
  }
}

// Fills one bucket per key of `table` with the members noted under it,
// sorted once (the set one-by-one Moves would leave). Every noted key
// is counted in `table`.
void FillBuckets(const CountGapTable& table,
                 std::vector<std::vector<uint64_t>>* members,
                 std::vector<OrderedKeySet>* buckets) {
  buckets->assign(static_cast<size_t>(table.size()), OrderedKeySet());
  for (size_t id = 0; id < members->size(); ++id) {
    std::vector<uint64_t>& keys = (*members)[id];
    std::sort(keys.begin(), keys.end());
    (*buckets)[id].Assign(keys);
    keys = {};
  }
}

// An FK cell as a tuple id: kInvalidTuple for NULL and for values
// that are no tuple slot (outside [0, 2^31)), which count as NULL.
TupleId IdOf(int64_t v) {
  return v < 0 || v > INT32_MAX ? kInvalidTuple : v;
}
TupleId IdOf(const Value& v) {
  return v.is_null() ? kInvalidTuple : IdOf(v.int64());
}
TupleId IdAt(const Table& t, int col, TupleId row) {
  if (row < 0 || row >= t.NumSlots() || !t.column(col).IsValue(row)) {
    return kInvalidTuple;
  }
  return IdOf(t.column(col).GetInt(row));
}

template <typename T>
void GrowTo(std::vector<T>* v, TupleId i, T fill) {
  if (static_cast<size_t>(i) >= v->size()) {
    v->resize(static_cast<size_t>(i) + 1, fill);
  }
}

// Author of every post slot: kInvalidTuple for dead posts and NULL
// authors.
std::vector<TupleId> PostAuthors(const Table& post, int author_col) {
  std::vector<TupleId> author(static_cast<size_t>(post.NumSlots()),
                              kInvalidTuple);
  post.ForEachLive([&](TupleId pid) {
    author[static_cast<size_t>(pid)] = IdAt(post, author_col, pid);
  });
  return author;
}

// Counts every live response whose responder and post author are both
// non-NULL into n (ordered-pair slots over `pairs`, see SpecState) and
// calls visit(rid, u, p, v) for every response with a non-NULL
// responder and post (v = kInvalidTuple when it does not count).
// Target extraction and Bind share it.
template <typename Visit>
void CountResponses(const Table& resp, const ResponseSpec& spec,
                    const std::vector<TupleId>& author, PairIndex* pairs,
                    std::vector<int64_t>* n, Visit&& visit) {
  resp.ForEachLive([&](TupleId rid) {
    const TupleId u = IdAt(resp, spec.responder_col, rid);
    const TupleId p = IdAt(resp, spec.post_col, rid);
    if (u == kInvalidTuple || p == kInvalidTuple) return;
    const TupleId v = static_cast<size_t>(p) < author.size()
                          ? author[static_cast<size_t>(p)]
                          : kInvalidTuple;
    if (v != kInvalidTuple) {
      const int64_t slot = PairSlot(pairs->Intern(PairKey(u, v)), u, v);
      n->resize(static_cast<size_t>(pairs->bound()) * 2, 0);
      ++(*n)[static_cast<size_t>(slot)];
    }
    visit(rid, u, p, v);
  });
}

// Calls fn(x, y, u, v) for every ordered pair (u, v), u != v, with
// (x, y) = (n(u, v), n(v, u)) != (0, 0), and fn(x, 0, u, u) for every
// user with x = n(u, u) > 0 self-responses.
template <typename Fn>
void ForEachPairCount(const PairIndex& pairs, const std::vector<int64_t>& n,
                      Fn&& fn) {
  for (int32_t id = 0; id < pairs.bound(); ++id) {
    if (!pairs.held(id)) continue;
    const TupleId a = PackedFirst(pairs.key(id));
    const TupleId b = PackedSecond(pairs.key(id));
    const int64_t x = n[static_cast<size_t>(id) * 2];
    const int64_t y = n[static_cast<size_t>(id) * 2 + 1];
    if (a == b) {
      if (x > 0) fn(x, int64_t{0}, a, a);
    } else if (x != 0 || y != 0) {
      fn(x, y, a, b);
      fn(y, x, b, a);
    }
  }
}

// Counts every pair of ForEachPairCount into rho and every user with
// self-responses into rho_S.
void CountPairs(const PairIndex& pairs, const std::vector<int64_t>& n,
                CountGapTable* rho, CountGapTable* self) {
  ForEachPairCount(pairs, n, [&](int64_t x, int64_t y, TupleId u,
                                 TupleId v) {
    if (u == v) {
      self->Add(self->Intern(std::array{x}), 1);
    } else {
      rho->Add(rho->Intern(std::array{x, y}), 1);
    }
  });
}

}  // namespace

struct PairwisePropertyTool::PricingScratch {
  std::vector<NChange> changes;
  struct Sim {  // simulated change of n(u, v)
    int spec;
    TupleId u;
    TupleId v;
    int64_t delta;
  };
  std::vector<Sim> sims;
  struct Delta {  // simulated change of rho (self = false) or rho_S
    bool self;
    int spec;
    std::array<int64_t, 2> key;  // rho_S keys use key[0] only
    int32_t id;                  // -1: never interned
    int64_t delta;
  };
  std::vector<Delta> deltas;
  std::vector<std::pair<int, int64_t>> spec_num;  // ascending spec
  std::vector<double> suffix;
  std::vector<size_t> order;
};

PairwisePropertyTool::PricingScratch& PairwisePropertyTool::ThreadScratch() {
  thread_local PricingScratch scratch;
  return scratch;
}

PairwisePropertyTool::PairwisePropertyTool(const Schema& schema)
    : schema_(schema),
      specs_(schema.responses),
      response_index_(schema.tables.size()),
      post_index_(schema.tables.size()) {
  for (size_t s = 0; s < specs_.size(); ++s) {
    const int resp = schema_.TableIndex(specs_[s].response_table);
    const int post = schema_.TableIndex(specs_[s].post_table);
    if (resp >= 0) {
      response_index_[static_cast<size_t>(resp)].push_back(static_cast<int>(s));
    }
    if (post >= 0) {
      post_index_[static_cast<size_t>(post)].push_back(static_cast<int>(s));
    }
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
    PairIndex pairs;
    std::vector<int64_t> n;
    CountResponses(*resp, spec, PostAuthors(*post, spec.author_col), &pairs,
                   &n, [](TupleId, TupleId, TupleId, TupleId) {});
    CountGapTable rho(2), rho_self(1);
    CountPairs(pairs, n, &rho, &rho_self);
    target_rho_[s] = rho.Current();
    target_rho_self_[s] = rho_self.Current();
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
    if (indexed_) {
      st.buckets.resize(static_cast<size_t>(st.rho.size()));
      st.self_buckets.resize(static_cast<size_t>(st.self.size()));
    }
  }
}

Status PairwisePropertyTool::Bind(Database* db) {
  db_ = db;
  indexed_ = false;
  state_.assign(specs_.size(), SpecState{});
  for (size_t s = 0; s < specs_.size(); ++s) {
    const ResponseSpec& spec = specs_[s];
    SpecState& st = state_[s];
    const Table* resp = db_->FindTable(spec.response_table);
    const Table* post = db_->FindTable(spec.post_table);
    const Table* user = db_->FindTable(schema_.user_table);
    st.resp_user.assign(static_cast<size_t>(resp->NumSlots()),
                        kInvalidTuple);
    st.resp_post.assign(static_cast<size_t>(resp->NumSlots()),
                        kInvalidTuple);
    st.post_author = PostAuthors(*post, spec.author_col);
    st.incoming.assign(
        user == nullptr ? 0 : static_cast<size_t>(user->NumSlots()), 0);
    CountResponses(
        *resp, spec, st.post_author, &st.pairs, &st.n,
        [&](TupleId rid, TupleId u, TupleId p, TupleId v) {
          st.resp_user[static_cast<size_t>(rid)] = u;
          st.resp_post[static_cast<size_t>(rid)] = p;
          st.responses_by_post.PushBack(p, rid);
          if (v == kInvalidTuple) return;
          GrowTo(&st.incoming, v, int64_t{0});
          ++st.incoming[static_cast<size_t>(v)];
        });
    st.n.resize(static_cast<size_t>(st.pairs.bound()) * 2, 0);
    // Every pair enters rho / rho_S once, with its final counts.
    CountPairs(st.pairs, st.n, &st.rho, &st.self);
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
  indexed_ = false;
  state_.clear();
}

void PairwisePropertyTool::BuildSearchIndex() {
  for (size_t s = 0; s < state_.size(); ++s) {
    SpecState& st = state_[s];
    // Lists in ascending id order, as pushing the posts and responses
    // one by one leaves them.
    st.posts_by_user = SwapLists();
    for (size_t pid = 0; pid < st.post_author.size(); ++pid) {
      const TupleId a = st.post_author[pid];
      if (a != kInvalidTuple) {
        st.posts_by_user.PushBack(a, static_cast<TupleId>(pid));
      }
    }
    st.responses = SwapLists();
    for (size_t rid = 0; rid < st.resp_user.size(); ++rid) {
      const TupleId u = st.resp_user[rid];
      const TupleId p = st.resp_post[rid];
      if (u == kInvalidTuple || p == kInvalidTuple) continue;
      const TupleId v = AuthorOf(static_cast<int>(s), p);
      if (v == kInvalidTuple) continue;
      const int64_t slot = FindPair(st, u, v);
      assert(slot >= 0);  // a counted response holds its pair
      st.responses.PushBack(slot, static_cast<TupleId>(rid));
    }
    std::vector<std::vector<uint64_t>> rho_members(
        static_cast<size_t>(st.rho.size()));
    std::vector<std::vector<uint64_t>> self_members(
        static_cast<size_t>(st.self.size()));
    ForEachPairCount(st.pairs, st.n, [&](int64_t x, int64_t y, TupleId u,
                                         TupleId v) {
      if (u == v) {
        self_members[static_cast<size_t>(st.self.Find(std::array{x}))]
            .push_back(static_cast<uint64_t>(u));
      } else {
        rho_members[static_cast<size_t>(st.rho.Find(std::array{x, y}))]
            .push_back(Pack(u, v));
      }
    });
    FillBuckets(st.self, &self_members, &st.self_buckets);
    FillBuckets(st.rho, &rho_members, &st.buckets);
  }
  indexed_ = true;
}

void PairwisePropertyTool::ReleaseSearchIndex() {
  for (SpecState& st : state_) {
    st.responses = SwapLists();
    st.posts_by_user = SwapLists();
    st.buckets = {};
    st.self_buckets = {};
  }
  indexed_ = false;
}

int64_t PairwisePropertyTool::FindPair(const SpecState& st, TupleId u,
                                       TupleId v) {
  const int32_t id = st.pairs.Find(PairKey(u, v));
  return id < 0 ? -1 : PairSlot(id, u, v);
}

int64_t PairwisePropertyTool::InternPair(SpecState* st, TupleId u,
                                         TupleId v) {
  const int32_t id = st->pairs.Intern(PairKey(u, v));
  st->n.resize(static_cast<size_t>(st->pairs.bound()) * 2, 0);
  return PairSlot(id, u, v);
}

int64_t PairwisePropertyTool::Count(const SpecState& st, TupleId u,
                                    TupleId v) {
  const int64_t slot = FindPair(st, u, v);
  return slot < 0 ? 0 : st.n[static_cast<size_t>(slot)];
}

int64_t PairwisePropertyTool::Incoming(const SpecState& st, TupleId u) {
  return u >= 0 && static_cast<size_t>(u) < st.incoming.size()
             ? st.incoming[static_cast<size_t>(u)]
             : 0;
}

TupleId PairwisePropertyTool::AuthorOf(int s, TupleId p) const {
  const SpecState& st = state_[static_cast<size_t>(s)];
  if (p >= 0 && static_cast<size_t>(p) < st.post_author.size()) {
    return st.post_author[static_cast<size_t>(p)];
  }
  // A post past the cache (appended without a notification).
  const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
  const Table* post = db_->FindTable(spec.post_table);
  if (post == nullptr || p < 0 || p >= post->NumSlots() || !post->IsLive(p)) {
    return kInvalidTuple;
  }
  return IdAt(*post, spec.author_col, p);
}

void PairwisePropertyTool::ApplyNChange(const NChange& c) {
  SpecState& st = state_[static_cast<size_t>(c.spec)];
  GrowTo(&st.incoming, c.v, int64_t{0});
  st.incoming[static_cast<size_t>(c.v)] += c.delta;
  const auto slot = static_cast<size_t>(InternPair(&st, c.u, c.v));
  const int64_t x = st.n[slot];
  const int64_t nx = x + c.delta;
  assert(nx >= 0);
  st.n[slot] = nx;
  if (c.u == c.v) {
    const auto who = static_cast<uint64_t>(c.u);
    std::vector<OrderedKeySet>* b = indexed_ ? &st.self_buckets : nullptr;
    if (x > 0) Move(&st.self, b, std::array{x}, who, -1);
    if (nx > 0) Move(&st.self, b, std::array{nx}, who, +1);
    return;
  }
  const int64_t y = st.n[slot ^ 1];
  const uint64_t uv = Pack(c.u, c.v);
  const uint64_t vu = Pack(c.v, c.u);
  std::vector<OrderedKeySet>* b = indexed_ ? &st.buckets : nullptr;
  if (x != 0 || y != 0) {
    Move(&st.rho, b, std::array{x, y}, uv, -1);
    Move(&st.rho, b, std::array{y, x}, vu, -1);
  }
  if (nx != 0 || y != 0) {
    Move(&st.rho, b, std::array{nx, y}, uv, +1);
    Move(&st.rho, b, std::array{y, nx}, vu, +1);
  }
}

void PairwisePropertyTool::CollectNChanges(const Modification& mod,
                                           int table, bool pre_apply,
                                           std::vector<NChange>* out) const {
  if (table < 0 || static_cast<size_t>(table) >= response_index_.size()) {
    return;
  }
  for (const int s : response_index_[static_cast<size_t>(table)]) {
    const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
    const SpecState& st = state_[static_cast<size_t>(s)];
    const Table& resp = db_->table(table);
    // Emits delta for a response by `u` on post `p` if it counts.
    auto emit = [&](TupleId u, TupleId p, int64_t delta) {
      if (u == kInvalidTuple || p == kInvalidTuple) return;
      const TupleId v = AuthorOf(s, p);
      if (v != kInvalidTuple) out->push_back({s, u, v, delta});
    };
    auto emit_cached = [&](TupleId rid, int64_t delta) {
      if (rid < 0 || static_cast<size_t>(rid) >= st.resp_user.size()) return;
      emit(st.resp_user[static_cast<size_t>(rid)],
           st.resp_post[static_cast<size_t>(rid)], delta);
    };
    switch (mod.kind) {
      case OpKind::kInsertTuple:
        emit(IdOf(mod.values[static_cast<size_t>(spec.responder_col)]),
             IdOf(mod.values[static_cast<size_t>(spec.post_col)]), +1);
        break;
      case OpKind::kDeleteTuple:
        emit_cached(mod.tuples[0], -1);
        break;
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues: {
        bool touches = false;
        for (const int c : mod.cols) {
          touches |= c == spec.responder_col || c == spec.post_col;
        }
        if (!touches) break;
        for (const TupleId rid : mod.tuples) {
          emit_cached(rid, -1);
          // New state: overlay proposed values (pre-apply) or read
          // the updated database (post-apply).
          auto cell = [&](int col) -> TupleId {
            if (pre_apply) {
              for (size_t j = 0; j < mod.cols.size(); ++j) {
                if (mod.cols[j] != col) continue;
                return mod.kind == OpKind::kDeleteValues
                           ? kInvalidTuple
                           : IdOf(mod.values[j]);
              }
            }
            return IdAt(resp, col, rid);
          };
          emit(cell(spec.responder_col), cell(spec.post_col), +1);
        }
        break;
      }
    }
  }

  for (const int s : post_index_[static_cast<size_t>(table)]) {
    const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
    const SpecState& st = state_[static_cast<size_t>(s)];
    // An author change moves the post's responses between pairs. A
    // new post has no responses yet (FK integrity), so inserts move
    // nothing; a deleted post's author becomes NULL.
    TupleId new_a = kInvalidTuple;
    switch (mod.kind) {
      case OpKind::kInsertTuple:
        continue;
      case OpKind::kDeleteTuple:
        break;
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues: {
        int author_j = -1;
        for (size_t j = 0; j < mod.cols.size(); ++j) {
          if (mod.cols[j] == spec.author_col) {
            author_j = static_cast<int>(j);
          }
        }
        if (author_j < 0) continue;
        if (mod.kind != OpKind::kDeleteValues) {
          new_a = IdOf(mod.values[static_cast<size_t>(author_j)]);
        }
        break;
      }
    }
    for (const TupleId pid : mod.tuples) {
      const TupleId old_a = AuthorOf(s, pid);
      if (old_a == new_a) continue;
      for (const TupleId rid : st.responses_by_post.list(pid)) {
        const TupleId u = st.resp_user[static_cast<size_t>(rid)];
        if (old_a != kInvalidTuple) out->push_back({s, u, old_a, -1});
        if (new_a != kInvalidTuple) out->push_back({s, u, new_a, +1});
      }
    }
  }
}

void PairwisePropertyTool::Reauthor(SpecState* st, TupleId pid, TupleId a) {
  GrowTo(&st->post_author, pid, kInvalidTuple);
  if (!indexed_) {
    st->post_author[static_cast<size_t>(pid)] = a;
    return;
  }
  const TupleId old_a = st->post_author[static_cast<size_t>(pid)];
  // The counted responses leave the old author's pair lists, all of
  // them before any joins the new author's. Even an unchanged author
  // takes the post and its responses off their lists and appends them
  // again: list order is what later random picks index into.
  const std::span<const TupleId> rids = st->responses_by_post.list(pid);
  if (old_a != kInvalidTuple) {
    for (const TupleId rid : rids) {
      st->responses.Remove(
          FindPair(*st, st->resp_user[static_cast<size_t>(rid)], old_a), rid);
    }
    st->posts_by_user.Remove(old_a, pid);
  }
  st->post_author[static_cast<size_t>(pid)] = a;
  if (a == kInvalidTuple) return;
  st->posts_by_user.PushBack(a, pid);
  for (const TupleId rid : rids) {
    st->responses.PushBack(
        InternPair(st, st->resp_user[static_cast<size_t>(rid)], a), rid);
  }
}

void PairwisePropertyTool::ApplyStructural(const Modification& mod,
                                           int table, TupleId new_tuple) {
  for (const int s : response_index_[static_cast<size_t>(table)]) {
    const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
    SpecState& st = state_[static_cast<size_t>(s)];
    // Responses with a non-NULL responder and post are on their
    // post's list; those that count also on their pair's.
    auto unlink = [&](TupleId rid) {
      const TupleId u = st.resp_user[static_cast<size_t>(rid)];
      const TupleId p = st.resp_post[static_cast<size_t>(rid)];
      if (u == kInvalidTuple || p == kInvalidTuple) return;
      st.responses_by_post.Remove(p, rid);
      if (!indexed_) return;
      const TupleId v = AuthorOf(s, p);
      if (v != kInvalidTuple) st.responses.Remove(FindPair(st, u, v), rid);
    };
    auto link = [&](TupleId rid, TupleId u, TupleId p) {
      GrowTo(&st.resp_user, rid, kInvalidTuple);
      GrowTo(&st.resp_post, rid, kInvalidTuple);
      st.resp_user[static_cast<size_t>(rid)] = u;
      st.resp_post[static_cast<size_t>(rid)] = p;
      if (u == kInvalidTuple || p == kInvalidTuple) return;
      st.responses_by_post.PushBack(p, rid);
      if (!indexed_) return;
      const TupleId v = AuthorOf(s, p);
      if (v != kInvalidTuple) {
        st.responses.PushBack(InternPair(&st, u, v), rid);
      }
    };
    switch (mod.kind) {
      case OpKind::kInsertTuple:
        link(new_tuple,
             IdOf(mod.values[static_cast<size_t>(spec.responder_col)]),
             IdOf(mod.values[static_cast<size_t>(spec.post_col)]));
        break;
      case OpKind::kDeleteTuple:
        unlink(mod.tuples[0]);
        link(mod.tuples[0], kInvalidTuple, kInvalidTuple);
        break;
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
          if (static_cast<size_t>(rid) < st.resp_user.size()) unlink(rid);
          link(rid, IdAt(resp, spec.responder_col, rid),
               IdAt(resp, spec.post_col, rid));
        }
        break;
      }
    }
  }

  for (const int s : post_index_[static_cast<size_t>(table)]) {
    const ResponseSpec& spec = specs_[static_cast<size_t>(s)];
    SpecState& st = state_[static_cast<size_t>(s)];
    switch (mod.kind) {
      case OpKind::kInsertTuple:
        Reauthor(&st, new_tuple,
                 IdOf(mod.values[static_cast<size_t>(spec.author_col)]));
        break;
      case OpKind::kDeleteTuple:
        Reauthor(&st, mod.tuples[0], kInvalidTuple);
        break;
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues: {
        bool touches = false;
        for (const int c : mod.cols) touches |= c == spec.author_col;
        if (!touches) break;
        const Table& post = db_->table(table);
        for (const TupleId pid : mod.tuples) {
          Reauthor(&st, pid, IdAt(post, spec.author_col, pid));
        }
        break;
      }
    }
  }
}

void PairwisePropertyTool::OnApplied(const Modification& mod,
                                     const std::vector<Value>& old_values,
                                     TupleId new_tuple) {
  (void)old_values;  // pre-images come from this tool's own caches
  if (db_ == nullptr) return;
  const int table = db_->schema().TableIndex(mod.table);
  if (table < 0 || static_cast<size_t>(table) >= response_index_.size()) {
    return;
  }
  std::vector<NChange>& changes = ThreadScratch().changes;
  changes.clear();
  CollectNChanges(mod, table, /*pre_apply=*/false, &changes);
  for (const NChange& c : changes) ApplyNChange(c);
  ApplyStructural(mod, table, new_tuple);
  // Free the ids of pairs whose counts both fell to zero (their lists
  // are empty too), so ids track the live pairs, not every pair seen.
  for (const NChange& c : changes) {
    SpecState& st = state_[static_cast<size_t>(c.spec)];
    const int64_t slot = FindPair(st, c.u, c.v);
    if (slot >= 0 && st.n[static_cast<size_t>(slot)] == 0 &&
        st.n[static_cast<size_t>(slot ^ 1)] == 0 &&
        st.responses.size(slot) == 0 && st.responses.size(slot ^ 1) == 0) {
      st.pairs.Release(PairKey(c.u, c.v));
    }
  }
}

PairwisePropertyTool::StateSnapshot PairwisePropertyTool::Snapshot(
    int s) const {
  StateSnapshot snap;
  if (db_ == nullptr) return snap;
  const SpecState& st = state_[static_cast<size_t>(s)];
  for (int32_t id = 0; id < st.pairs.bound(); ++id) {
    if (!st.pairs.held(id)) continue;
    const TupleId a = PackedFirst(st.pairs.key(id));
    const TupleId b = PackedSecond(st.pairs.key(id));
    for (int dir = 0; dir < (a == b ? 1 : 2); ++dir) {
      const UserPair uv = dir == 0 ? UserPair{a, b} : UserPair{b, a};
      const int64_t slot = int64_t{id} * 2 + dir;
      if (st.n[static_cast<size_t>(slot)] != 0) {
        snap.n[uv] = st.n[static_cast<size_t>(slot)];
      }
      for (const TupleId rid : st.responses.list(slot)) {
        snap.responses[uv].insert(rid);
      }
    }
  }
  for (size_t p = 0; p < st.resp_post.size(); ++p) {
    for (const TupleId rid : st.responses_by_post.list(static_cast<int64_t>(p))) {
      snap.responses_by_post[static_cast<TupleId>(p)].insert(rid);
    }
  }
  for (size_t p = 0; p < st.post_author.size(); ++p) {
    const TupleId a = st.post_author[p];
    if (a == kInvalidTuple) continue;
    for (const TupleId pid : st.posts_by_user.list(a)) {
      snap.posts_by_user[a].insert(pid);
    }
  }
  for (size_t u = 0; u < st.incoming.size(); ++u) {
    if (st.incoming[u] != 0) {
      snap.incoming[static_cast<TupleId>(u)] = st.incoming[u];
    }
  }
  for (size_t id = 0; id < st.buckets.size(); ++id) {
    const auto key = st.rho.key(static_cast<int32_t>(id));
    st.buckets[id].ForEach([&](uint64_t pair) {
      snap.buckets[Key(key.begin(), key.end())].insert(
          {PackedFirst(pair), PackedSecond(pair)});
    });
  }
  for (size_t id = 0; id < st.self_buckets.size(); ++id) {
    const int64_t x = st.self.key(static_cast<int32_t>(id))[0];
    st.self_buckets[id].ForEach([&](uint64_t u) {
      snap.self_buckets[x].insert(static_cast<TupleId>(u));
    });
  }
  return snap;
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
  PricingScratch& scratch = ThreadScratch();
  scratch.changes.clear();
  CollectNChanges(mod, db_->schema().TableIndex(mod.table),
                  /*pre_apply=*/true, &scratch.changes);
  return PenaltyOfChanges(&scratch);
}

double PairwisePropertyTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  if (db_ == nullptr) return 0.0;
  PricingScratch& scratch = ThreadScratch();
  scratch.changes.clear();
  for (const Modification& mod : mods) {
    CollectNChanges(mod, db_->schema().TableIndex(mod.table),
                    /*pre_apply=*/true, &scratch.changes);
  }
  return PenaltyOfChanges(&scratch, veto_cap);
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

double PairwisePropertyTool::PenaltyOfChanges(PricingScratch* scratch,
                                              double veto_cap) const {
  const std::vector<NChange>& changes = scratch->changes;
  if (changes.empty()) return 0.0;
  const bool capped = veto_cap != kNoPenaltyCap;
  // Simulate: an n-value overlay, and one rho / rho_S delta entry per
  // touched (is rho_S, spec, key).
  std::vector<PricingScratch::Sim>& sims = scratch->sims;
  std::vector<PricingScratch::Delta>& deltas = scratch->deltas;
  std::vector<std::pair<int, int64_t>>& spec_num = scratch->spec_num;
  sims.clear();
  deltas.clear();
  spec_num.clear();
  auto sim_of = [&](int s, TupleId a, TupleId b) -> PricingScratch::Sim* {
    for (PricingScratch::Sim& e : sims) {
      if (e.spec == s && e.u == a && e.v == b) return &e;
    }
    return nullptr;
  };
  auto count = [&](int s, TupleId a, TupleId b) -> int64_t {
    const PricingScratch::Sim* sim = sim_of(s, a, b);
    return Count(state_[static_cast<size_t>(s)], a, b) +
           (sim == nullptr ? 0 : sim->delta);
  };
  auto table_of = [&](const PricingScratch::Delta& e) -> const CountGapTable& {
    const SpecState& st = state_[static_cast<size_t>(e.spec)];
    return e.self ? st.self : st.rho;
  };
  // Capped pricing keeps each spec's partial penalty numerator exact
  // (in integers): the final loop's |cur+delta-tgt| - |cur-tgt| term,
  // summed over this spec's rho/self delta entries, re-adjusted on
  // every delta change. The early-exit test then sums a handful of
  // exact integer numerators instead of accumulating a drifting float.
  auto num_of = [&](int s) -> int64_t& {
    auto it = std::lower_bound(
        spec_num.begin(), spec_num.end(), s,
        [](const std::pair<int, int64_t>& e, int x) { return e.first < x; });
    if (it == spec_num.end() || it->first != s) {
      it = spec_num.insert(it, {s, 0});
    }
    return it->second;
  };
  auto bump = [&](bool self, int s, int64_t k0, int64_t k1, int64_t d) {
    PricingScratch::Delta* entry = nullptr;
    for (PricingScratch::Delta& e : deltas) {
      if (e.self == self && e.spec == s && e.key[0] == k0 && e.key[1] == k1) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      const SpecState& st = state_[static_cast<size_t>(s)];
      const std::array<int64_t, 2> key{k0, k1};
      const int32_t id = self ? st.self.Find(std::span(key).first(1))
                              : st.rho.Find(key);
      deltas.push_back({self, s, key, id, 0});
      entry = &deltas.back();
    }
    const CountGapTable& t = table_of(*entry);
    if (capped) num_of(s) -= t.Term(entry->id, entry->delta);
    entry->delta += d;
    if (capped) num_of(s) += t.Term(entry->id, entry->delta);
  };
  // suffix[i] bounds how much the numerators can still move pricing
  // changes[i..): a pair change touches four rho entries by +-1, a
  // self change two self entries, and a +-1 delta change moves its
  // term by at most 1 — so 4/denom (2/denom for self) per change.
  // (Changes that land on the excluded zero key touch fewer entries;
  // the bound still covers them.)
  std::vector<double>& suffix = scratch->suffix;
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
      if (x > 0) bump(true, c.spec, x, 0, -1);
      const int64_t nx = x + c.delta;
      if (nx > 0) bump(true, c.spec, nx, 0, +1);
    } else {
      const int64_t x = count(c.spec, c.u, c.v);
      const int64_t y = count(c.spec, c.v, c.u);
      if (x != 0 || y != 0) {
        bump(false, c.spec, x, y, -1);
        bump(false, c.spec, y, x, -1);
      }
      const int64_t nx = x + c.delta;
      if (nx != 0 || y != 0) {
        bump(false, c.spec, nx, y, +1);
        bump(false, c.spec, y, nx, +1);
      }
    }
    if (PricingScratch::Sim* sim = sim_of(c.spec, c.u, c.v)) {
      sim->delta += c.delta;
    } else {
      sims.push_back({c.spec, c.u, c.v, c.delta});
    }
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
  // Sum in (is rho_S, spec, key) order: floating-point addition is not
  // associative, and votes compare the sum against a cap.
  std::vector<size_t>& order = scratch->order;
  order.clear();
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i].delta != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const PricingScratch::Delta& x = deltas[a];
    const PricingScratch::Delta& y = deltas[b];
    return std::tie(x.self, x.spec, x.key) < std::tie(y.self, y.spec, y.key);
  });
  double penalty = 0;
  for (const size_t i : order) {
    const PricingScratch::Delta& e = deltas[i];
    penalty += static_cast<double>(table_of(e).Term(e.id, e.delta)) /
               Denominator(e.spec);
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
  if (const auto posts = st.posts_by_user.list(v); !posts.empty()) {
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
    const auto w_posts = st.posts_by_user.list(w);
    if (w_posts.size() < 2) continue;
    // Pick w's post with the fewest responses and a sibling to absorb
    // its responses.
    TupleId victim = kInvalidTuple;
    size_t fewest = SIZE_MAX;
    for (const TupleId p : w_posts) {
      const size_t nr = st.responses_by_post.size(p);
      if (nr < fewest) {
        fewest = nr;
        victim = p;
      }
    }
    TupleId sibling = kInvalidTuple;
    for (const TupleId p : w_posts) {
      if (p != victim) {
        sibling = p;
        break;
      }
    }
    if (victim == kInvalidTuple || sibling == kInvalidTuple) continue;
    // Shift the victim's responses to the sibling (pairs unchanged:
    // both posts belong to w). A copy: the shift edits the list.
    const auto listed = st.responses_by_post.list(victim);
    const std::vector<TupleId> rids(listed.begin(), listed.end());
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
    // Re-read after every modification: applying one edits the list.
    auto list = st.responses.list(FindPair(st, u, v));
    if (list.empty()) return false;
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
      list = st.responses.list(FindPair(st, u, v));
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
      if (Count(st, a, b) != 0 || Count(st, b, a) != 0) continue;
      // Early tries insist on receivers that already get responses
      // (keeps the user-level linear reachability intact); late tries
      // accept anyone.
      if (tries < 64) {
        if (to[0] > 0 && Incoming(st, b) == 0) continue;
        if (to[1] > 0 && Incoming(st, a) == 0) continue;
      }
      u = a;
      v = b;
      break;
    }
  } else {
    const int32_t id = st.rho.Find(from);
    if (id < 0 || st.buckets[static_cast<size_t>(id)].empty()) return false;
    // The pick reads ranks <= 15 + 12 of the bucket, ascending (u, v).
    const OrderedKeySet& bucket = st.buckets[static_cast<size_t>(id)];
    std::array<uint64_t, 28> front;
    bucket.Front(front.size(), front.data());
    // Probe a few pairs; prefer ones whose receivers keep other
    // incoming responses after the conversion (no reachability flip).
    size_t at = static_cast<size_t>(ctx->rng()->UniformInt(
        0, std::min<int64_t>(static_cast<int64_t>(bucket.size()) - 1, 15)));
    for (int probes = 0; probes < 12 && at + 1 < bucket.size(); ++probes) {
      const TupleId pu = PackedFirst(front[at]);
      const TupleId pv = PackedSecond(front[at]);
      const bool v_safe =
          !(to[0] == 0 && from[0] > 0) || Incoming(st, pv) > from[0];
      const bool u_safe =
          !(to[1] == 0 && from[1] > 0) || Incoming(st, pu) > from[1];
      if (v_safe && u_safe) break;
      ++at;
    }
    u = PackedFirst(front[at]);
    v = PackedSecond(front[at]);
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
      if (users->IsLive(a) && Count(st, a, a) == 0) {
        u = a;
        break;
      }
    }
  } else {
    const int32_t id = st.self.Find(std::array{from});
    if (id < 0 || st.self_buckets[static_cast<size_t>(id)].empty()) {
      return false;
    }
    const OrderedKeySet& bucket = st.self_buckets[static_cast<size_t>(id)];
    std::array<uint64_t, 16> front;
    bucket.Front(front.size(), front.data());
    u = static_cast<TupleId>(front[static_cast<size_t>(ctx->rng()->UniformInt(
        0, std::min<int64_t>(static_cast<int64_t>(bucket.size()) - 1, 15)))]);
  }
  if (u == kInvalidTuple) return false;
  return AdjustResponses(ctx, s, u, u, to - from);
}

Status PairwisePropertyTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("pairwise: Tweak needs Bind");
  BuildSearchIndex();
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
  ReleaseSearchIndex();
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
