// Tests for src/stats: frequency distributions, count-gap tables,
// fitting, sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "relational/integrity.h"
#include "stats/count_gap.h"
#include "stats/fitting.h"
#include "stats/freq_dist.h"
#include "stats/sampler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

TEST(FreqDistTest, AddAndCount) {
  FrequencyDistribution f(2);
  f.Add({1, 2});
  f.Add({1, 2});
  f.Add({3, 4}, 5);
  EXPECT_EQ(f.Count({1, 2}), 2);
  EXPECT_EQ(f.Count({3, 4}), 5);
  EXPECT_EQ(f.Count({9, 9}), 0);
  EXPECT_EQ(f.NumKeys(), 2);
  EXPECT_EQ(f.TotalMass(), 7);
}

TEST(FreqDistTest, ZeroEntriesErased) {
  FrequencyDistribution f(1);
  f.Add({5}, 3);
  f.Add({5}, -3);
  EXPECT_EQ(f.NumKeys(), 0);
  EXPECT_EQ(f.Count({5}), 0);
}

TEST(FreqDistTest, NegativeCountsAllowed) {
  FrequencyDistribution f(1);
  f.Add({1}, -4);
  EXPECT_EQ(f.TotalMass(), -4);
  EXPECT_EQ(f.TotalAbsMass(), 4);
}

TEST(FreqDistTest, WeightedSum) {
  FrequencyDistribution f(2);
  f.Add({2, 3}, 4);  // contributes 8 to dim0, 12 to dim1
  f.Add({1, 0}, 2);  // contributes 2 to dim0, 0
  EXPECT_EQ(f.WeightedSum(0), 10);
  EXPECT_EQ(f.WeightedSum(1), 12);
}

TEST(FreqDistTest, L1Distance) {
  FrequencyDistribution f(1), g(1);
  f.Add({1}, 3);
  f.Add({2}, 1);
  g.Add({1}, 1);
  g.Add({3}, 2);
  // |3-1| + |1-0| + |0-2| = 5.
  EXPECT_EQ(f.L1Distance(g), 5);
  EXPECT_EQ(g.L1Distance(f), 5);
  EXPECT_EQ(f.L1Distance(f), 0);
}

TEST(FreqDistTest, Difference) {
  FrequencyDistribution f(1), g(1);
  f.Add({1}, 3);
  g.Add({1}, 1);
  g.Add({2}, 2);
  const FrequencyDistribution d = f.Difference(g);
  EXPECT_EQ(d.Count({1}), 2);
  EXPECT_EQ(d.Count({2}), -2);
}

TEST(FreqDistTest, EqualityAndToString) {
  FrequencyDistribution f(2), g(2);
  f.Add({1, 2});
  g.Add({1, 2});
  EXPECT_EQ(f, g);
  g.Add({0, 0});
  EXPECT_FALSE(f == g);
  EXPECT_EQ(f.ToString(), "{(1,2):1}");
}

TEST(FreqDistTest, ManhattanDistance) {
  EXPECT_EQ(ManhattanDistance({1, 2, 3}, {4, 0, 3}), 5);
  EXPECT_EQ(ManhattanDistance({}, {}), 0);
}

using Key = FrequencyDistribution::Key;

bool AllZero(const Key& k) {
  return std::all_of(k.begin(), k.end(), [](int64_t x) { return x == 0; });
}

// The Algorithm 2/3 loop as the coappear and pairwise tools wrote it
// over FrequencyDistributions, kept as the reference for
// CountGapTable::ConvertDeficits. The zero key is implicit on both
// sides: its count is the space minus the stored mass.
void ReferenceConvertDeficits(const FrequencyDistribution& cur,
                              int64_t space, const FrequencyDistribution& tgt,
                              int64_t tgt_space, int64_t guard,
                              const std::function<bool(Key, Key)>& convert) {
  const Key zero(static_cast<size_t>(cur.dim()), 0);
  auto current = [&](const Key& v) {
    return AllZero(v) ? space - cur.TotalMass() : cur.Count(v);
  };
  auto target = [&](const Key& v) {
    return AllZero(v) ? tgt_space - tgt.TotalMass() : tgt.Count(v);
  };
  std::set<Key> stuck;
  while (guard-- > 0) {
    Key deficit;
    bool found = false;
    for (const auto& [v, c] : tgt.counts()) {
      if (stuck.count(v) == 0 && current(v) < c) {
        deficit = v;
        found = true;
        break;
      }
    }
    if (!found && stuck.count(zero) == 0 && current(zero) < target(zero)) {
      deficit = zero;
      found = true;
    }
    if (!found) break;
    std::vector<std::pair<int64_t, Key>> surpluses;
    for (const auto& [v, c] : cur.counts()) {
      if (c > tgt.Count(v)) {
        surpluses.emplace_back(ManhattanDistance(v, deficit), v);
      }
    }
    if (current(zero) > target(zero)) {
      surpluses.emplace_back(ManhattanDistance(zero, deficit), zero);
    }
    std::sort(surpluses.begin(), surpluses.end());
    bool converted = false;
    for (const auto& [dist, surplus] : surpluses) {
      if (convert(surplus, deficit)) {
        converted = true;
        break;
      }
    }
    if (!converted) stuck.insert(deficit);
  }
}

// Seeded current and target distributions over 2-wide keys in [0, 4]^2
// (keys only in one of them, the implicit zero key on either side), and
// a conversion that fails for some pairs - sometimes after moving a
// unit elsewhere, as a half-applied tool conversion does - so that
// deficits get stuck and surplus lists go stale. The table must try
// the reference's (surplus, deficit) sequence and end at its gap.
TEST(CountGapTableTest, ConvertDeficitsMatchesReferenceLoop) {
  int64_t calls = 0, failures = 0, zero_deficits = 0, zero_surpluses = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    FrequencyDistribution cur(2), tgt(2);
    for (int64_t a = 0; a <= 4; ++a) {
      for (int64_t b = 0; b <= 4; ++b) {
        if (a == 0 && b == 0) continue;
        if (rng.UniformInt(0, 2) > 0) cur.Add({a, b}, rng.UniformInt(1, 4));
        if (rng.UniformInt(0, 2) > 0) tgt.Add({a, b}, rng.UniformInt(1, 4));
      }
    }
    const int64_t space = cur.TotalMass() + rng.UniformInt(0, 12);
    const int64_t tgt_space = tgt.TotalMass() + rng.UniformInt(0, 12);

    // One simulated tool state per run; `count` and `move` act on it.
    struct Run {
      std::function<int64_t(const Key&)> count;
      std::function<void(const Key&, const Key&)> move;
      std::vector<std::pair<Key, Key>> tried;
    };
    auto make_convert = [&](Run* run) {
      return [run, &calls, &failures](const Key& from, const Key& to) {
        run->tried.emplace_back(from, to);
        ++calls;
        const auto n = static_cast<int64_t>(run->tried.size());
        const int64_t h = (from[0] * 7 + from[1] * 13 + to[0] * 17 +
                           to[1] * 19 + n * 31) % 5;
        if (run->count(from) <= 0 || h == 0) {
          ++failures;
          return false;
        }
        if (h == 1) {  // half-applied: one unit moved elsewhere
          ++failures;
          run->move(from, {from[0] + 1, from[1]});
          return false;
        }
        run->move(from, to);
        return true;
      };
    };

    FrequencyDistribution ref = cur;
    Run ref_run;
    ref_run.count = [&](const Key& v) {
      return AllZero(v) ? space - ref.TotalMass() : ref.Count(v);
    };
    ref_run.move = [&](const Key& from, const Key& to) {
      if (!AllZero(from)) ref.Add(from, -1);
      if (!AllZero(to)) ref.Add(to, 1);
    };
    const int64_t guard =
        2 * (cur.L1Distance(tgt) +
             std::llabs((space - cur.TotalMass()) -
                        (tgt_space - tgt.TotalMass()))) +
        64;
    ReferenceConvertDeficits(ref, space, tgt, tgt_space, guard,
                             make_convert(&ref_run));

    CountGapTable table(2);
    for (const auto& [v, c] : cur.counts()) table.Add(table.Intern(v), c);
    table.SetTarget(tgt, tgt_space);
    table.SetSpace(space);
    ASSERT_EQ(table.full_gap() * 2 + 64, guard);
    Run table_run;
    table_run.count = [&](const Key& v) {
      if (AllZero(v)) return space - table.mass();
      const int32_t id = table.Find(v);
      return id < 0 ? int64_t{0} : table.count(id);
    };
    table_run.move = [&](const Key& from, const Key& to) {
      if (!AllZero(from)) table.Add(table.Find(from), -1);
      if (!AllZero(to)) table.Add(table.Intern(to), 1);
    };
    const auto table_convert = make_convert(&table_run);
    table.ConvertDeficits(guard, [&](CountGapTable::Keys from,
                                     CountGapTable::Keys to) {
      return table_convert(Key(from.begin(), from.end()),
                           Key(to.begin(), to.end()));
    });

    ASSERT_EQ(table_run.tried, ref_run.tried) << "seed " << seed;
    ASSERT_EQ(table.gap(), ref.L1Distance(tgt)) << "seed " << seed;
    ASSERT_EQ(table.Current(), ref) << "seed " << seed;
    for (const auto& [from, to] : ref_run.tried) {
      zero_surpluses += AllZero(from);
      zero_deficits += AllZero(to);
    }
  }
  // The seeds exercise every branch of the loop.
  EXPECT_GT(calls, 3000);
  EXPECT_GT(failures, 500);
  EXPECT_GT(zero_deficits, 20);
  EXPECT_GT(zero_surpluses, 20);
}

TEST(KeyInternerTest, ReserveKeepsIdsDenseAndGrowsPastIt) {
  constexpr int32_t kReserved = 3000;
  KeyInterner interner(2);
  interner.Reserve(kReserved);
  std::map<std::vector<int64_t>, int32_t> ref;
  Rng rng(9);
  // Past the reservation the table must still grow.
  while (ref.size() < static_cast<size_t>(kReserved) * 3) {
    const std::vector<int64_t> key = {rng.UniformInt(-5, 5),
                                      rng.UniformInt(0, int64_t{1} << 40)};
    const auto it = ref.find(key);
    const int32_t expect =
        it == ref.end() ? static_cast<int32_t>(ref.size()) : it->second;
    ASSERT_EQ(interner.Find(key), it == ref.end() ? -1 : expect);
    ASSERT_EQ(interner.Intern(key), expect);
    ref.emplace(key, expect);
    if (ref.size() == static_cast<size_t>(kReserved)) {
      interner.Reserve(kReserved / 2);  // smaller than held: a no-op
    }
  }
  ASSERT_EQ(interner.size(), static_cast<int32_t>(ref.size()));
  for (const auto& [key, id] : ref) {
    const auto k = interner.key(id);
    ASSERT_TRUE(std::equal(k.begin(), k.end(), key.begin(), key.end()));
    ASSERT_EQ(interner.Find(key), id);
  }
  EXPECT_EQ(interner.Find(std::vector<int64_t>{6, 0}), -1);
}

TEST(KeyInternerTest, AssignDistinctMatchesInterningOneByOne) {
  for (const int32_t n : {0, 1, 7, 8, 9, 1000}) {
    Rng rng(static_cast<uint64_t>(n) + 1);
    KeyInterner one(3);
    std::vector<int64_t> flat;
    while (one.size() < n) {
      const std::vector<int64_t> key = {rng.UniformInt(0, 20),
                                        rng.UniformInt(-3, 3),
                                        rng.UniformInt(0, int64_t{1} << 40)};
      if (one.Find(key) >= 0) continue;
      one.Intern(key);
      flat.insert(flat.end(), key.begin(), key.end());
    }
    KeyInterner bulk(3);
    bulk.AssignDistinct(flat);
    ASSERT_EQ(bulk.size(), n);
    for (int32_t id = 0; id < n; ++id) {
      const auto k = one.key(id);
      ASSERT_EQ(bulk.Find(k), id);
      ASSERT_TRUE(std::ranges::equal(bulk.key(id), k));
    }
    EXPECT_EQ(bulk.Find(std::vector<int64_t>{21, 0, 0}), -1);
    // Interning goes on past the bulk keys with the next ids.
    const std::vector<int64_t> fresh = {-1, -1, -1};
    EXPECT_EQ(bulk.Intern(fresh), n);
    EXPECT_EQ(bulk.Find(fresh), n);
  }
}

TEST(KeyOrderTest, MatchesStableLexicographicSort) {
  Rng rng(10);
  // Column value ranges by bit width; 64 is the full int64 span.
  const std::vector<std::vector<int>> layouts = {
      {2},                    // one small column with duplicates
      {17, 64},               // two words
      {64, 0, 2},             // a constant column
      {17, 64, 0, 2, 17, 64}, // a 0+2+17-bit word between 64-bit ones
      {32, 32},               // exactly one full word
      {33, 32, 2},            // 33 + 32 bits do not share a word
      {1, 64},                // nor do 1 + 64
      {2, 2, 2, 2, 2, 2},     // an appearance vector
  };
  auto draw = [&](int bits) -> int64_t {
    if (bits == 64) return static_cast<int64_t>(rng.Next());
    return rng.UniformInt(-5, (int64_t{1} << bits) - 6);
  };
  for (const std::vector<int>& layout : layouts) {
    const auto w = layout.size();
    for (const size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{3000}}) {
      std::vector<int64_t> keys;
      for (size_t i = 0; i < n * w; ++i) keys.push_back(draw(layout[i % w]));
      std::vector<int32_t> expect(n);
      std::iota(expect.begin(), expect.end(), 0);
      std::stable_sort(expect.begin(), expect.end(), [&](int32_t a, int32_t b) {
        return std::lexicographical_compare(
            keys.begin() + a * std::ptrdiff_t(w),
            keys.begin() + (a + 1) * std::ptrdiff_t(w),
            keys.begin() + b * std::ptrdiff_t(w),
            keys.begin() + (b + 1) * std::ptrdiff_t(w));
      });
      EXPECT_EQ(KeyOrder(keys, static_cast<int>(w)), expect)
          << "layout " << ::testing::PrintToString(layout) << ", n " << n;
    }
  }
}

TEST(CountGapTableTest, GapMassAndTermsTrackAdds) {
  FrequencyDistribution tgt(1);
  tgt.Add({1}, 3);
  tgt.Add({2}, 1);
  CountGapTable table(1);
  table.SetTarget(tgt, 10);
  table.SetSpace(8);
  EXPECT_EQ(table.target_mass(), 4);
  EXPECT_EQ(table.gap(), 4);
  EXPECT_EQ(table.full_gap(), 4 + 2);  // zero key: 8 - 0 vs 10 - 4
  const int32_t one = table.Find(std::vector<int64_t>{1});
  ASSERT_GE(one, 0);
  EXPECT_EQ(table.Term(one, 2), -2);
  EXPECT_EQ(table.Term(one, 7), 1);
  EXPECT_EQ(table.Term(-1, -3), 3);  // never interned: both counts 0
  table.Add(one, 2);
  table.Add(table.Intern(std::vector<int64_t>{7}), 1);
  EXPECT_EQ(table.mass(), 3);
  EXPECT_EQ(table.gap(), 1 + 1 + 1);
  EXPECT_EQ(table.full_gap(), 3 + 1);  // zero key: 8 - 3 vs 6
  FrequencyDistribution want(1);
  want.Add({1}, 2);
  want.Add({7}, 1);
  EXPECT_EQ(table.Current(), want);
}

TEST(FittingTest, ExactPolynomialRecovered) {
  // y = 2 + 3x - x^2
  std::vector<double> xs, ys;
  for (int i = 0; i < 8; ++i) {
    const double x = i;
    xs.push_back(x);
    ys.push_back(2 + 3 * x - x * x);
  }
  const auto fit = PolyFit(xs, ys, 2).ValueOrAbort();
  ASSERT_EQ(fit.size(), 3u);
  EXPECT_NEAR(fit[0], 2.0, 1e-6);
  EXPECT_NEAR(fit[1], 3.0, 1e-6);
  EXPECT_NEAR(fit[2], -1.0, 1e-6);
  EXPECT_NEAR(PolyEval(fit, 10.0), 2 + 30 - 100, 1e-5);
}

TEST(FittingTest, UnderdeterminedRejected) {
  EXPECT_FALSE(PolyFit({1.0}, {2.0}, 2).ok());
}

TEST(FittingTest, SingularRejected) {
  // All x equal: Vandermonde is rank deficient for degree >= 1.
  EXPECT_FALSE(PolyFit({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0}, 1).ok());
}

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto gen = GenerateDataset(DoubanMusicLike(0.5), 42);
    ASSERT_TRUE(gen.ok()) << gen.status();
    set_ = std::make_unique<SnapshotSet>(std::move(gen).ValueOrDie());
  }
  std::unique_ptr<SnapshotSet> set_;
};

TEST_F(SamplerTest, SamplesAreFkClosedAndShrinking) {
  const auto samples =
      NestedSamples(set_->full(), {0.2, 0.5, 0.9}, 7).ValueOrAbort();
  ASSERT_EQ(samples.size(), 3u);
  int64_t prev = 0;
  for (const auto& s : samples) {
    EXPECT_TRUE(CheckIntegrity(*s).ok());
    EXPECT_GT(s->TotalTuples(), prev);
    prev = s->TotalTuples();
  }
  EXPECT_LT(samples[2]->TotalTuples(), set_->full().TotalTuples());
}

TEST_F(SamplerTest, FractionRoughlyHitsRootTables) {
  const auto samples =
      NestedSamples(set_->full(), {0.5}, 11).ValueOrAbort();
  const double got =
      static_cast<double>(samples[0]->FindTable("User")->NumTuples()) /
      static_cast<double>(set_->full().FindTable("User")->NumTuples());
  EXPECT_NEAR(got, 0.5, 0.15);
}

TEST_F(SamplerTest, BadFractionRejected) {
  EXPECT_FALSE(NestedSamples(set_->full(), {0.0}, 1).ok());
  EXPECT_FALSE(NestedSamples(set_->full(), {1.5}, 1).ok());
}

}  // namespace
}  // namespace aspect
