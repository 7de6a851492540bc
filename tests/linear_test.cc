// Tests for the linear property: ChainStats (incremental join-matrix
// maintenance), Theorem 1 feasibility/repair, and Algorithm 1 tweaking.
#include <gtest/gtest.h>

#include <algorithm>

#include "aspect/tweak_context.h"
#include "common/rng.h"
#include "properties/chain_stats.h"
#include "properties/linear.h"
#include "relational/integrity.h"
#include "relational/refgraph.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

// Four-table chain D -> C -> B -> A, mirroring Fig. 9's shape.
Schema ChainSchema() {
  Schema s;
  s.name = "chain4";
  s.tables.push_back({"A", {{"x", ColumnType::kInt64, ""}}});
  s.tables.push_back({"B", {{"a", ColumnType::kForeignKey, "A"}}});
  s.tables.push_back({"C", {{"b", ColumnType::kForeignKey, "B"}}});
  s.tables.push_back({"D", {{"c", ColumnType::kForeignKey, "C"}}});
  return s;
}

std::unique_ptr<Database> ChainDb() {
  auto db = Database::Create(ChainSchema()).ValueOrAbort();
  Table* a = db->FindTable("A");
  for (int i = 0; i < 4; ++i) a->Append({Value(int64_t{i})}).status().Check();
  // B: b0->a0, b1->a1, b2->a1, b3->a2, b4->a3 (roots of B->A: all 4).
  Table* b = db->FindTable("B");
  for (const int64_t p : {0, 1, 1, 2, 3}) {
    b->Append({Value(p)}).status().Check();
  }
  // C: c0->b1, c1->b2, c2->b3 (roots of C->B->A: a1, a2).
  Table* c = db->FindTable("C");
  for (const int64_t p : {1, 2, 3}) c->Append({Value(p)}).status().Check();
  // D: d0->c0, d1->c0 (roots of D->..->A: a1 only).
  Table* d = db->FindTable("D");
  for (const int64_t p : {0, 0}) d->Append({Value(p)}).status().Check();
  return db;
}

ReferenceChain TheChain(const Schema& s) {
  ReferenceGraph g(s);
  auto chains = g.MaximalChains();
  EXPECT_EQ(chains.size(), 1u);
  return chains[0];
}

TEST(ChainStatsTest, HandComputedMatrix) {
  auto db = ChainDb();
  const JoinMatrix h = ComputeJoinMatrix(*db, TheChain(db->schema()));
  ASSERT_EQ(h.k(), 4);
  EXPECT_EQ(h.at(1, 0), 4);  // roots of B->A
  EXPECT_EQ(h.at(2, 0), 2);  // roots of C->B->A: a1, a2
  EXPECT_EQ(h.at(2, 1), 3);  // b's with C children: b1, b2, b3
  EXPECT_EQ(h.at(3, 0), 1);  // roots of D->C->B->A: a1
  EXPECT_EQ(h.at(3, 1), 1);  // b's reaching D: b1
  EXPECT_EQ(h.at(3, 2), 1);  // c's with D children: c0
}

TEST(ChainStatsTest, ReachAndNavigation) {
  auto db = ChainDb();
  LinearStats stats({TheChain(db->schema())});
  stats.Build(*db);
  stats.BuildLists();
  const ChainStats& s = stats.chain(0);
  EXPECT_TRUE(s.Reaches(0, 1, 3));   // a1 reaches D level
  EXPECT_FALSE(s.Reaches(0, 0, 2));  // a0 has no C descendant
  EXPECT_EQ(s.MaxReach(0, 1), 3);
  EXPECT_EQ(s.MaxReach(0, 0), 1);
  EXPECT_EQ(s.AncestorAt(3, 0, 0), 1);   // d0 -> c0 -> b1 -> a1
  EXPECT_EQ(s.DescendantAt(0, 1, 3), 0);  // a1's D descendant d0 or d1
  EXPECT_EQ(s.Parent(2, 0), 1);
  EXPECT_EQ(s.Children(0, 1).size(), 2u);  // a1 has b1, b2
}

TEST(ChainStatsTest, IncrementalMatchesRebuildUnderRandomMoves) {
  auto gen = GenerateDataset(DoubanMusicLike(0.4), 77).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  ReferenceGraph g(db->schema());
  const auto chains = g.MaximalChains();
  // Pick the longest chain for a strong test.
  const ReferenceChain* chain = &chains[0];
  for (const auto& c : chains) {
    if (c.length() > chain->length()) chain = &c;
  }
  ASSERT_GE(chain->length(), 3);
  LinearStats s({*chain});
  s.Build(*db);
  Rng rng(5);
  for (int step = 0; step < 300; ++step) {
    // Move a random tuple at a random level to a random parent.
    const int level =
        static_cast<int>(rng.UniformInt(1, chain->length() - 1));
    Table& t = *db->FindTable(
        db->schema().tables[static_cast<size_t>(
            chain->tables[static_cast<size_t>(level)])].name);
    Table& p = *db->FindTable(
        db->schema().tables[static_cast<size_t>(
            chain->tables[static_cast<size_t>(level - 1)])].name);
    const TupleId child = rng.UniformInt(0, t.NumTuples() - 1);
    const TupleId parent = rng.UniformInt(0, p.NumTuples() - 1);
    const int col = chain->fk_cols[static_cast<size_t>(level - 1)];
    const TupleId old_parent = t.column(col).GetInt(child);
    ASSERT_TRUE(t.column(col).Set(child, Value(parent)).ok());
    if (old_parent != kInvalidTuple) s.Detach(s.EdgeAt(0, level), child);
    s.Attach(s.EdgeAt(0, level), child, parent);
    if (step % 50 == 0) {
      EXPECT_EQ(s.chain(0).matrix(), ComputeJoinMatrix(*db, *chain))
          << "step " << step;
    }
  }
  EXPECT_EQ(s.chain(0).matrix(), ComputeJoinMatrix(*db, *chain));
}

// Statistics and lists filled the way the incremental path fills them:
// every live child with an FK value attached one at a time, deepest
// level first, in slot order.
LinearStats AttachOneByOne(const Database& db, const ReferenceChain& chain) {
  LinearStats s({chain});
  s.Reset(db);
  s.BuildLists();
  for (int l = chain.length() - 1; l >= 1; --l) {
    const Table& t = db.table(chain.tables[static_cast<size_t>(l)]);
    const Column& fk = t.column(chain.fk_cols[static_cast<size_t>(l - 1)]);
    t.ForEachLive([&](TupleId c) {
      if (fk.IsValue(c)) s.Attach(s.EdgeAt(0, l), c, fk.GetInt(c));
    });
  }
  return s;
}

// `blueprint`'s first snapshot with ~10% of every table's tuples
// deleted (their referrers keep dangling references) and ~10% of the
// FK cells of the survivors NULLed.
std::unique_ptr<Database> DamagedDb(const DatasetBlueprint& blueprint,
                                    uint64_t seed) {
  auto db = GenerateDataset(blueprint, seed)
                .ValueOrAbort()
                .Materialize(1)
                .ValueOrAbort();
  Rng rng(seed);
  for (const TableSpec& spec : db->schema().tables) {
    Table& t = *db->FindTable(spec.name);
    for (const TupleId tid : t.LiveTuples()) {
      if (rng.Bernoulli(0.1)) {
        t.Delete(tid).Check();
        continue;
      }
      for (int c = 0; c < t.num_columns(); ++c) {
        if (t.column(c).is_foreign_key() && rng.Bernoulli(0.1)) {
          t.column(c).Set(tid, Value()).Check();
        }
      }
    }
  }
  return db;
}

std::vector<std::unique_ptr<Database>> DamagedDbs() {
  std::vector<std::unique_ptr<Database>> dbs;
  dbs.push_back(DamagedDb(XiamiLike(0.3), 11));
  dbs.push_back(DamagedDb(DoubanMovieLike(0.3), 12));
  return dbs;
}

TEST(ChainStatsTest, JoinMatrixMatchesAttachOracle) {
  for (const auto& db : DamagedDbs()) {
    SCOPED_TRACE(db->schema().name);
    const auto chains = ReferenceGraph(db->schema()).MaximalChains();
    ASSERT_FALSE(chains.empty());
    for (const ReferenceChain& chain : chains) {
      EXPECT_EQ(ComputeJoinMatrix(*db, chain),
                AttachOneByOne(*db, chain).chain(0).matrix());
    }
  }
}

// Number of tuples whose parent, children list or counters differ.
int64_t StatsMismatches(const ChainStats& a, const ChainStats& b,
                        const Database& db) {
  int64_t bad = 0;
  const int k = a.k();
  for (int l = 0; l < k; ++l) {
    const Table& t = db.table(a.chain().tables[static_cast<size_t>(l)]);
    for (TupleId tid = 0; tid < t.NumSlots(); ++tid) {
      bool same = l == 0 || a.Parent(l, tid) == b.Parent(l, tid);
      if (l < k - 1) {
        same = same && std::ranges::equal(a.Children(l, tid),
                                          b.Children(l, tid));
      }
      for (int j = l + 1; j < k; ++j) {
        same = same && a.Cnt(l, tid, j) == b.Cnt(l, tid, j);
      }
      bad += same ? 0 : 1;
    }
  }
  return bad;
}

TEST(ChainStatsTest, BulkBuildEqualsAttachOneByOne) {
  for (const auto& db : DamagedDbs()) {
    SCOPED_TRACE(db->schema().name);
    for (const ReferenceChain& chain :
         ReferenceGraph(db->schema()).MaximalChains()) {
      LinearStats bulk({chain});
      bulk.Build(*db);
      bulk.BuildLists();
      LinearStats one = AttachOneByOne(*db, chain);
      EXPECT_EQ(bulk.chain(0).matrix(), one.chain(0).matrix());
      EXPECT_EQ(StatsMismatches(bulk.chain(0), one.chain(0), *db), 0);
      // Detach swap-removes through each child's stored position, so
      // the children lists agree afterwards only if the positions do.
      Rng rng(3);
      for (int l = 1; l < chain.length(); ++l) {
        const Table& t = db->table(chain.tables[static_cast<size_t>(l)]);
        t.ForEachLive([&](TupleId c) {
          if (rng.Bernoulli(0.3)) {
            bulk.Detach(bulk.EdgeAt(0, l), c);
            one.Detach(one.EdgeAt(0, l), c);
          }
        });
      }
      EXPECT_EQ(bulk.chain(0).matrix(), one.chain(0).matrix());
      EXPECT_EQ(StatsMismatches(bulk.chain(0), one.chain(0), *db), 0);
    }
  }
}

// Reference model of the statistics as they were kept before lists
// were shared: every chain holds its own vector-of-vector children
// lists, appends on attach and swap-removes on detach, and pricing
// applies each FK change and then reverts it (so a moved child ends
// last in its old parent's list). Counters and matrices are derived
// from the lists.
class ListModel {
 public:
  ListModel(const Database& db, const std::vector<ReferenceChain>& chains) {
    for (const ReferenceChain& chain : chains) {
      Chain m;
      m.chain = chain;
      const int k = chain.length();
      m.parent.resize(static_cast<size_t>(k));
      m.kids.resize(static_cast<size_t>(k));
      for (int l = 0; l < k; ++l) {
        const auto slots = static_cast<size_t>(
            db.table(chain.tables[static_cast<size_t>(l)]).NumSlots());
        m.parent[static_cast<size_t>(l)].assign(slots, kInvalidTuple);
        m.kids[static_cast<size_t>(l)].resize(slots);
      }
      for (int l = 1; l < k; ++l) {
        const Table& t = db.table(chain.tables[static_cast<size_t>(l)]);
        const Column& fk = t.column(chain.fk_cols[static_cast<size_t>(l - 1)]);
        t.ForEachLive([&](TupleId c) {
          if (fk.IsValue(c)) m.Attach(l, c, fk.GetInt(c));
        });
      }
      chains_.push_back(std::move(m));
    }
  }

  /// The FK changes of cell modifications `mods` against `db` (before
  /// they apply): applied, and with `revert` reverted in reverse.
  void Run(const Database& db, std::span<const Modification> mods,
           bool revert) {
    struct Change {
      size_t chain;
      int level;
      TupleId child, old_parent, new_parent;
    };
    std::vector<Change> changes;
    for (const Modification& mod : mods) {
      const int table = db.schema().TableIndex(mod.table);
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        for (const TupleId t : mod.tuples) {
          for (size_t ci = 0; ci < chains_.size(); ++ci) {
            const ReferenceChain& chain = chains_[ci].chain;
            for (int l = 1; l < chain.length(); ++l) {
              if (chain.tables[static_cast<size_t>(l)] != table ||
                  chain.fk_cols[static_cast<size_t>(l - 1)] != mod.cols[cj]) {
                continue;
              }
              changes.push_back(
                  {ci, l, t, db.table(table).column(mod.cols[cj]).GetInt(t),
                   mod.values[cj].int64()});
            }
          }
        }
      }
    }
    for (const Change& c : changes) {
      chains_[c.chain].Detach(c.level, c.child);
      chains_[c.chain].Attach(c.level, c.child, c.new_parent);
    }
    if (!revert) return;
    for (auto it = changes.rbegin(); it != changes.rend(); ++it) {
      chains_[it->chain].Detach(it->level, it->child);
      chains_[it->chain].Attach(it->level, it->child, it->old_parent);
    }
  }

  /// Number of (chain, tuple) pairs whose parent, children list (order
  /// included) or counters differ from `stats`, plus chains whose
  /// matrix differs from a rebuild.
  int64_t Mismatches(const LinearStats& stats, const Database& db) const {
    int64_t bad = 0;
    for (size_t ci = 0; ci < chains_.size(); ++ci) {
      const Chain& m = chains_[ci];
      const ChainStats& s = stats.chain(static_cast<int>(ci));
      const int k = m.chain.length();
      if (s.matrix() != ComputeJoinMatrix(db, m.chain)) ++bad;
      const std::vector<std::vector<int>> reach = m.Reach();
      for (int l = 0; l < k; ++l) {
        const auto& parents = m.parent[static_cast<size_t>(l)];
        for (TupleId t = 0; t < static_cast<TupleId>(parents.size()); ++t) {
          bool same =
              l == 0 || s.Parent(l, t) == parents[static_cast<size_t>(t)];
          if (l < k - 1) {
            const auto& kids =
                m.kids[static_cast<size_t>(l)][static_cast<size_t>(t)];
            same = same && std::ranges::equal(s.Children(l, t), kids);
            for (int j = l + 1; j < k; ++j) {
              const auto cnt = std::count_if(
                  kids.begin(), kids.end(), [&](TupleId c) {
                    return reach[static_cast<size_t>(l + 1)]
                                [static_cast<size_t>(c)] >= j;
                  });
              same = same && s.Cnt(l, t, j) == cnt;
            }
          }
          bad += same ? 0 : 1;
        }
      }
    }
    return bad;
  }

 private:
  struct Chain {
    ReferenceChain chain;
    std::vector<std::vector<TupleId>> parent;             // [L][t]
    std::vector<std::vector<std::vector<TupleId>>> kids;  // [L][t]

    void Attach(int l, TupleId c, TupleId p) {
      parent[static_cast<size_t>(l)][static_cast<size_t>(c)] = p;
      kids[static_cast<size_t>(l - 1)][static_cast<size_t>(p)].push_back(c);
    }
    void Detach(int l, TupleId c) {
      TupleId& p = parent[static_cast<size_t>(l)][static_cast<size_t>(c)];
      if (p == kInvalidTuple) return;
      auto& v = kids[static_cast<size_t>(l - 1)][static_cast<size_t>(p)];
      *std::find(v.begin(), v.end(), c) = v.back();
      v.pop_back();
      p = kInvalidTuple;
    }
    // reach[L][t]: deepest level t's subtree reaches.
    std::vector<std::vector<int>> Reach() const {
      const int k = chain.length();
      std::vector<std::vector<int>> r(static_cast<size_t>(k));
      for (int l = k - 1; l >= 0; --l) {
        const auto n = kids[static_cast<size_t>(l)].size();
        r[static_cast<size_t>(l)].assign(n, l);
        if (l == k - 1) continue;
        for (size_t t = 0; t < n; ++t) {
          for (const TupleId c : kids[static_cast<size_t>(l)][t]) {
            r[static_cast<size_t>(l)][t] =
                std::max(r[static_cast<size_t>(l)][t],
                         r[static_cast<size_t>(l + 1)][static_cast<size_t>(c)]);
          }
        }
      }
      return r;
    }
  };

  std::vector<Chain> chains_;
};

// A random re-parenting of up to `width` children on a random chain
// edge: distinct live children holding a value, one live new parent.
Modification RandomMove(const Database& db, const ReferenceChain& chain,
                        int width, Rng* rng) {
  const int l = static_cast<int>(rng->UniformInt(1, chain.length() - 1));
  const Table& t = db.table(chain.tables[static_cast<size_t>(l)]);
  const Table& p = db.table(chain.tables[static_cast<size_t>(l - 1)]);
  const int col = chain.fk_cols[static_cast<size_t>(l - 1)];
  std::vector<TupleId> kids;
  for (int tries = 0; tries < 64 && static_cast<int>(kids.size()) < width;
       ++tries) {
    const TupleId c = rng->UniformInt(0, t.NumSlots() - 1);
    if (t.IsLive(c) && t.column(col).IsValue(c) &&
        std::find(kids.begin(), kids.end(), c) == kids.end()) {
      kids.push_back(c);
    }
  }
  TupleId parent = rng->UniformInt(0, p.NumSlots() - 1);
  while (!p.IsLive(parent)) parent = rng->UniformInt(0, p.NumSlots() - 1);
  return Modification::ReplaceValues(t.name(), kids, {col}, {Value(parent)});
}

TEST(LinearStatsTest, MatchesPerChainListModelUnderMovesAndPricing) {
  for (const auto factory : {&XiamiLike, &DoubanMovieLike}) {
    auto db = GenerateDataset(factory(0.3), 21)
                  .ValueOrAbort()
                  .Materialize(2)
                  .ValueOrAbort();
    SCOPED_TRACE(db->schema().name);
    LinearPropertyTool tool(db->schema());
    ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
    ASSERT_TRUE(tool.Bind(db.get()).ok());
    tool.BuildSearchIndex();
    const std::vector<ReferenceChain>& chains = tool.chains();
    ListModel model(*db, chains);
    ASSERT_EQ(model.Mismatches(tool.stats(), *db), 0);
    Rng rng(8);
    for (int step = 0; step < 400; ++step) {
      const ReferenceChain& chain =
          chains[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(chains.size()) - 1))];
      const double roll = rng.UniformDouble();
      if (roll < 0.4) {
        const Modification mod =
            RandomMove(*db, chain, step % 4 == 0 ? 3 : 1, &rng);
        model.Run(*db, std::span<const Modification>(&mod, 1), false);
        ASSERT_TRUE(db->Apply(mod).ok());
      } else if (roll < 0.7) {
        const Modification mod =
            RandomMove(*db, chain, step % 3 == 0 ? 2 : 1, &rng);
        model.Run(*db, std::span<const Modification>(&mod, 1), true);
        tool.ValidationPenalty(mod);
      } else {
        // Moves of distinct tables, so the batch's tuples are disjoint.
        std::vector<Modification> mods;
        for (const ReferenceChain& c : chains) {
          if (mods.size() == 3) break;
          if (!rng.Bernoulli(0.2)) continue;
          Modification mod = RandomMove(*db, c, 2, &rng);
          const bool taken = std::any_of(
              mods.begin(), mods.end(),
              [&](const Modification& m) { return m.table == mod.table; });
          if (!taken) mods.push_back(std::move(mod));
        }
        model.Run(*db, mods, true);
        tool.ValidationPenaltyBatch(mods);
      }
      if (step % 100 == 99) {
        ASSERT_EQ(model.Mismatches(tool.stats(), *db), 0) << "step " << step;
      }
    }
    // Chains through one edge read one list.
    const LinearStats& stats = tool.stats();
    int pairs = 0;
    for (int c = 0; c < stats.num_chains(); ++c) {
      for (int l = 1; l < stats.chain(c).k(); ++l) {
        ++pairs;
        const EdgeLists& edge = stats.edge(stats.EdgeAt(c, l));
        const ReferenceChain& chain = chains[static_cast<size_t>(c)];
        const int64_t parents =
            db->table(chain.tables[static_cast<size_t>(l - 1)]).NumSlots();
        for (TupleId p = 0; p < parents; ++p) {
          ASSERT_EQ(stats.chain(c).Children(l - 1, p).data(),
                    edge.Children(p).data());
        }
      }
    }
    EXPECT_LT(stats.num_edges(), pairs);
    tool.Unbind();
  }
}

TEST(LinearStatsTest, EvaluateMoveEqualsApplyAndRevert) {
  auto db = GenerateDataset(XiamiLike(0.3), 5)
                .ValueOrAbort()
                .Materialize(2)
                .ValueOrAbort();
  const auto chains = ReferenceGraph(db->schema()).MaximalChains();
  LinearStats evaluated(chains);
  evaluated.Build(*db);
  evaluated.BuildLists();
  LinearStats applied = evaluated;  // a copy reads its own lists
  MoveDelta delta;
  Rng rng(6);
  for (int step = 0; step < 300; ++step) {
    const ReferenceChain& chain = chains[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(chains.size()) - 1))];
    const Modification mod =
        RandomMove(*db, chain, step % 2 == 0 ? 1 : 4, &rng);
    const int table = db->schema().TableIndex(mod.table);
    const int e = evaluated.EdgeOf(table, mod.cols[0]);
    const TupleId parent = mod.values[0].int64();
    evaluated.EvaluateMove(e, mod.tuples, parent, &delta);

    std::vector<JoinMatrix> before;
    for (const LinearStats::Use& u : applied.Uses(e)) {
      before.push_back(applied.chain(u.chain).matrix());
    }
    std::vector<std::pair<TupleId, TupleId>> moved;
    for (const TupleId c : mod.tuples) {
      const TupleId old = applied.edge(e).Parent(c);
      if (old == parent) continue;
      moved.emplace_back(c, old);
      applied.Detach(e, c);
      applied.Attach(e, c, parent);
    }
    const std::span<const LinearStats::Use> uses = applied.Uses(e);
    for (size_t u = 0; u < uses.size(); ++u) {
      const JoinMatrix& after = applied.chain(uses[u].chain).matrix();
      for (int j = 1; j < after.k(); ++j) {
        for (int i = 0; i < j; ++i) {
          ASSERT_EQ(delta.at(static_cast<int>(u), j, i),
                    after.at(j, i) - before[u].at(j, i))
              << "step " << step;
        }
      }
    }
    for (auto it = moved.rbegin(); it != moved.rend(); ++it) {
      applied.Detach(e, it->first);
      if (it->second != kInvalidTuple) {
        applied.Attach(e, it->first, it->second);
      }
    }
  }
  for (int c = 0; c < evaluated.num_chains(); ++c) {
    EXPECT_EQ(evaluated.chain(c).matrix(), applied.chain(c).matrix());
    EXPECT_EQ(StatsMismatches(evaluated.chain(c), applied.chain(c), *db), 0);
  }
}

TEST(LinearStatsTest, ArenaCompactionKeepsListOrder) {
  // Every child of B -> A moves under a0 and back, many times: blocks
  // outgrow their room, move to the arena's end and get compacted.
  auto db = ChainDb();
  LinearStats stats({TheChain(db->schema())});
  stats.Build(*db);
  stats.BuildLists();
  const int e = stats.EdgeAt(0, 1);
  Rng rng(2);
  std::vector<std::vector<TupleId>> want(4);
  for (TupleId p = 0; p < 4; ++p) {
    for (const TupleId c : stats.edge(e).Children(p)) {
      want[static_cast<size_t>(p)].push_back(c);
    }
  }
  for (int round = 0; round < 200; ++round) {
    const TupleId c = rng.UniformInt(0, 4);
    const TupleId p = rng.UniformInt(0, 3);
    const TupleId old = stats.edge(e).Parent(c);
    auto& from = want[static_cast<size_t>(old)];
    *std::find(from.begin(), from.end(), c) = from.back();
    from.pop_back();
    want[static_cast<size_t>(p)].push_back(c);
    stats.Detach(e, c);
    stats.Attach(e, c, p);
    for (TupleId q = 0; q < 4; ++q) {
      ASSERT_TRUE(std::ranges::equal(stats.edge(e).Children(q),
                                     want[static_cast<size_t>(q)]))
          << "round " << round;
    }
  }
  EXPECT_LE(stats.edge(e).ArenaCells(), 2 * stats.edge(e).LiveCells());
}

TEST(JoinMatrixTest, ErrorAgainstPaperExample) {
  // Sec. VI-C1's example: eps_H = (1/3)(1/4 + 1/3 + 1/4) = 5/18.
  JoinMatrix tweaked(3), truth(3);
  tweaked.set(1, 0, 5);
  tweaked.set(2, 0, 2);
  tweaked.set(2, 1, 3);
  truth.set(1, 0, 4);
  truth.set(2, 0, 3);
  truth.set(2, 1, 4);
  EXPECT_NEAR(tweaked.ErrorAgainst(truth), 5.0 / 18.0, 1e-12);
  EXPECT_DOUBLE_EQ(truth.ErrorAgainst(truth), 0.0);
}

TEST(LinearFeasibilityTest, RealizedMatrixIsFeasible) {
  auto db = ChainDb();
  const JoinMatrix h = ComputeJoinMatrix(*db, TheChain(db->schema()));
  const std::vector<int64_t> sizes = {4, 5, 3, 2};
  EXPECT_TRUE(LinearPropertyTool::CheckMatrixFeasible(h, sizes).ok());
}

TEST(LinearFeasibilityTest, ViolationsDetected) {
  const std::vector<int64_t> sizes = {4, 5, 3, 2};
  JoinMatrix m(4);
  auto feasible_base = [&]() {
    JoinMatrix b(4);
    b.set(1, 0, 4);
    b.set(2, 0, 2);
    b.set(2, 1, 3);
    b.set(3, 0, 1);
    b.set(3, 1, 1);
    b.set(3, 2, 1);
    return b;
  };
  m = feasible_base();
  m.set(1, 0, 6);  // L1: exceeds |B| window
  EXPECT_FALSE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok());
  m = feasible_base();
  m.set(2, 0, 5);  // L2: column increases with j (5 > 4) and L1
  EXPECT_FALSE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok());
  m = feasible_base();
  m.set(2, 1, 1);  // L3: row decreasing (h(2,1)=1 < h(2,0)=2)
  EXPECT_FALSE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok());
}

TEST(LinearFeasibilityTest, RepairProducesFeasible) {
  Rng rng(123);
  const std::vector<int64_t> sizes = {40, 50, 30, 20};
  for (int trial = 0; trial < 50; ++trial) {
    JoinMatrix m(4);
    for (int j = 1; j < 4; ++j) {
      for (int i = 0; i < j; ++i) {
        m.set(j, i, rng.UniformInt(0, 80));
      }
    }
    LinearPropertyTool::RepairMatrix(&m, sizes);
    EXPECT_TRUE(LinearPropertyTool::CheckMatrixFeasible(m, sizes).ok())
        << "trial " << trial << ": " << m.ToString();
  }
}

class LinearTweakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinearTweakTest, TweaksRandScaledDatasetToGroundTruth) {
  const uint64_t seed = GetParam();
  auto gen = GenerateDataset(DoubanMusicLike(0.3), seed).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto scaled =
      scaler.Scale(*gen.Materialize(2).ValueOrAbort(),
                   gen.SnapshotSizes(4), seed)
          .ValueOrAbort();

  LinearPropertyTool tool(truth->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*truth).ok());
  ASSERT_TRUE(tool.Bind(scaled.get()).ok());
  ASSERT_TRUE(tool.CheckTargetFeasible().ok());

  const double before = tool.Error();
  EXPECT_GT(before, 0.05);

  Rng rng(seed + 1);
  TweakContext ctx(scaled.get(), {}, &rng);
  ASSERT_TRUE(tool.Tweak(&ctx).ok());
  const double after = tool.Error();
  EXPECT_LT(after, before / 20.0);
  EXPECT_LT(after, 0.01);
  // Tweaking must never corrupt referential integrity.
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
  tool.Unbind();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearTweakTest,
                         ::testing::Values(11u, 22u, 33u));

TEST(LinearToolTest, ValidationPenaltySigns) {
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 9).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  LinearPropertyTool tool(db->schema());
  // Target = the dataset itself: error 0, any structural change hurts.
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);

  // Find a chain FK modification that actually changes some matrix.
  const Table* fan = db->FindTable("User_Fan");
  ASSERT_NE(fan, nullptr);
  double worst = 0;
  for (TupleId t = 0; t < 20; ++t) {
    const int64_t cur = fan->column(0).GetInt(t);
    const Modification mod = Modification::ReplaceValues(
        "User_Fan", {t}, {0}, {Value((cur + 1) % 5)});
    worst = std::max(worst, tool.ValidationPenalty(mod));
  }
  EXPECT_GT(worst, 0.0);
  // A no-op move has zero penalty.
  const Modification noop = Modification::ReplaceValues(
      "User_Fan", {0}, {0}, {Value(fan->column(0).GetInt(0))});
  EXPECT_DOUBLE_EQ(tool.ValidationPenalty(noop), 0.0);
  // Non-FK columns are never penalized.
  const Modification attr = Modification::ReplaceValues(
      "User", {0}, {1}, {Value(int64_t{1})});
  EXPECT_DOUBLE_EQ(tool.ValidationPenalty(attr), 0.0);
  tool.Unbind();
}

TEST(LinearToolTest, BatchPenaltyGivesDistinctIdsToBatchedInserts) {
  // Two inserts in one batch land at consecutive tuple ids. The batch
  // validator must simulate them at those ids: collapsing both onto
  // the next-slot prediction double-attaches one ChainStats slot and
  // corrupts the join matrix (this crashed the CLI's --batch mode).
  auto db = ChainDb();
  LinearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);

  // d2->c1 and d3->c2 turn b2 and b3 (and a2) into D-reaching tuples.
  const std::vector<Modification> mods = {
      Modification::InsertTuple("D", {Value(int64_t{1})}),
      Modification::InsertTuple("D", {Value(int64_t{2})}),
  };
  const double penalty = tool.ValidationPenaltyBatch(mods);
  EXPECT_GT(penalty, 0.0);
  // The simulation must have been fully reverted...
  EXPECT_DOUBLE_EQ(tool.Error(), 0.0);
  // ...and its verdict must equal the error delta of really applying
  // the batch (the incremental update sees the true ids).
  ASSERT_TRUE(db->ApplyBatch(mods).ok());
  EXPECT_DOUBLE_EQ(penalty, tool.Error());
  EXPECT_EQ(tool.CurrentMatrix(0),
            ComputeJoinMatrix(*db, tool.chains()[0]));
  tool.Unbind();
}

TEST(LinearToolTest, InsertedTuplesGetCounterRows) {
  // A new root tuple, and a new child whose FK cell is NULL, attach
  // nowhere; the search may still sample them, so their counters must
  // exist (and read zero).
  auto db = ChainDb();
  LinearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());
  TupleId a = kInvalidTuple;
  ASSERT_TRUE(
      db->Apply(Modification::InsertTuple("A", {Value(int64_t{9})}), &a).ok());
  TupleId c = kInvalidTuple;
  ASSERT_TRUE(db->Apply(Modification::InsertTuple("C", {Value()}), &c).ok());
  const ChainStats& s = tool.stats().chain(0);
  EXPECT_EQ(s.MaxReach(0, a), 0);
  EXPECT_EQ(s.MaxReach(2, c), 2);
  EXPECT_EQ(s.Parent(2, c), kInvalidTuple);
  // Attaching under the new root makes it reach B.
  ASSERT_TRUE(db->Apply(Modification::InsertTuple("B", {Value(a)})).ok());
  EXPECT_EQ(s.MaxReach(0, a), 1);
  EXPECT_EQ(tool.CurrentMatrix(0), ComputeJoinMatrix(*db, tool.chains()[0]));
  tool.Unbind();
}

TEST(LinearToolTest, StatsFollowForeignModifications) {
  // The Statistics Updater must track modifications made by *other*
  // tools (here: simulated by direct Database::Apply calls).
  auto gen = GenerateDataset(DoubanMusicLike(0.3), 13).ValueOrAbort();
  auto db = gen.Materialize(3).ValueOrAbort();
  LinearPropertyTool tool(db->schema());
  ASSERT_TRUE(tool.SetTargetFromDataset(*db).ok());
  ASSERT_TRUE(tool.Bind(db.get()).ok());

  Rng rng(4);
  Table* comment = db->FindTable("Album_Comment");
  for (int step = 0; step < 50; ++step) {
    const TupleId t = rng.UniformInt(0, comment->NumTuples() - 1);
    const int64_t album = rng.UniformInt(
        0, db->FindTable("Album")->NumTuples() - 1);
    ASSERT_TRUE(db->Apply(Modification::ReplaceValues(
                              "Album_Comment", {t}, {0}, {Value(album)}))
                    .ok());
  }
  // Insert and delete tuples too.
  TupleId nt = kInvalidTuple;
  ASSERT_TRUE(
      db->Apply(Modification::InsertTuple(
                    "Album_Comment",
                    {Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{1})}),
                &nt)
          .ok());
  ASSERT_TRUE(db->Apply(Modification::DeleteTuple("Album_Comment", nt)).ok());

  // Incremental state must equal a from-scratch recomputation.
  for (size_t ci = 0; ci < tool.chains().size(); ++ci) {
    EXPECT_EQ(tool.CurrentMatrix(static_cast<int>(ci)),
              ComputeJoinMatrix(*db, tool.chains()[ci]))
        << tool.chains()[ci].ToString(db->schema());
  }
  tool.Unbind();
}

}  // namespace
}  // namespace aspect
