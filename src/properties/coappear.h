// CoappearPropertyTool: enforces the coappear property (Sec. V-B).
//
// For each coappear group (tables T1..Tk referencing the same parents
// T'1..T'm) the property is the distribution xi(v1..vk) = number of
// distinct foreign-key combinations b = (b1..bm) that appear vi times
// in table Ti (Definition 4). The all-zero vector is implicit:
// xi(0..0) = prod |T'j| - sum of the stored counts (Theorem 2, C2).
//
// The tweaking algorithm is Algorithm 2: for every deficit vector v it
// repeatedly picks the Manhattan-closest surplus vector v', selects a
// combination b currently realizing v', and inserts/deletes tuples
// with foreign keys b until b realizes v. Each group keeps xi and its
// target in one CountGapTable (stats/count_gap.h), which runs that
// loop and measures the error; this tool supplies the conversion.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "aspect/property_tool.h"
#include "aspect/tweak_context.h"
#include "properties/coappear_index.h"
#include "relational/refgraph.h"
#include "stats/count_gap.h"
#include "stats/freq_dist.h"

namespace aspect {

class CoappearPropertyTool : public PropertyTool {
 public:
  explicit CoappearPropertyTool(const Schema& schema);

  std::string name() const override { return "coappear"; }

  std::unique_ptr<PropertyTool> Clone() const override {
    return bound() ? nullptr : std::make_unique<CoappearPropertyTool>(*this);
  }

  Status SetTargetFromDataset(const Database& ground_truth) override;
  /// User-input mode: explicit target distributions, one per group (in
  /// `groups()` order), plus the target parent sizes used for the
  /// implicit zero vector.
  Status SetTargetDistributions(
      std::vector<FrequencyDistribution> targets,
      std::vector<std::vector<int64_t>> target_parent_sizes,
      std::vector<std::vector<int64_t>> target_member_sizes);
  Status RepairTarget() override;
  Status CheckTargetFeasible() const override;
  Status SaveTarget(std::ostream* out) const override;
  Status LoadTarget(std::istream* in) override;

  Status Bind(Database* db) override;
  void Unbind() override;
  bool bound() const override { return db_ != nullptr; }

  double Error() const override;
  double ValidationPenalty(const Modification& mod) const override;
  /// Exact composite vote: transitions of all modifications are
  /// simulated against one shared overlay, so several tuples of the
  /// batch moving onto (or off) the same combo are priced jointly.
  /// Assumes disjoint tuples (the ApplyBatch caller contract).
  /// `veto_cap` licenses an early exit: one transition moves each
  /// group's penalty numerator by at most 4 (two combo adjusts, each
  /// touching at most two xi entries by one), so once the running
  /// exact numerators minus the remaining 4/N_FK movement budget
  /// provably clear the cap, the tail is left unpriced and that lower
  /// bound is returned. A batch priced to completion goes through the
  /// same final pricing loop as the uncapped path, bit for bit.
  double ValidationPenaltyBatch(std::span<const Modification> mods,
                                double veto_cap) const override;
  using PropertyTool::ValidationPenaltyBatch;
  /// Whole-table row structure of member tables (inserts/deletes copy
  /// entire template rows), whole-table reads of parent tables (combo
  /// sampling and the implicit-zero space), and the FK columns of
  /// tables referencing a member (reference evacuation).
  AccessScope DeclaredScope() const override;
  Status Tweak(TweakContext* ctx) override;

  void OnApplied(const Modification& mod,
                 const std::vector<Value>& old_values,
                 TupleId new_tuple) override;

  const std::vector<CoappearGroup>& groups() const { return groups_; }
  /// Current distribution of group g (zero vector implicit), built
  /// from the bound table; empty while unbound.
  FrequencyDistribution CurrentXi(int g) const;
  const FrequencyDistribution& TargetXi(int g) const {
    return target_xi_[static_cast<size_t>(g)];
  }

  using Key = FrequencyDistribution::Key;  // combo b or vector v

  /// The search index only Tweak reads: per group the combos realizing
  /// each vector (buckets) and per member the tuples carrying each
  /// combo. Tweak builds it from the statistics on entry and releases
  /// it on exit, and while it exists OnApplied keeps it current. Public
  /// so tests can check that upkeep; requires bound.
  void BuildSearchIndex();
  void ReleaseSearchIndex();

  /// Layout-free view of group g's bound state, for comparing
  /// incrementally maintained state with a fresh Bind. Buckets and
  /// tuple lists are the search index's, empty while it does not
  /// exist. They are sets because a fresh index orders buckets by combo
  /// id while upkeep orders them by arrival.
  struct StateSnapshot {
    std::map<Key, Key> combo_vec;          // live combos only
    std::map<Key, std::set<Key>> buckets;  // vector -> combos
    std::vector<std::map<Key, std::set<TupleId>>> tuples_by_combo;
    std::vector<std::map<TupleId, Key>> tuple_combo;  // counted tuples
    bool operator==(const StateSnapshot&) const = default;
  };
  StateSnapshot Snapshot(int g) const;
  /// The orders ConvertOne's rank draws read: the live combos realizing
  /// vector `v` of group g, in bucket order, and the tuples of member
  /// `mi` carrying combo `b`, in list order (empty if none). Require
  /// the search index.
  std::vector<Key> BucketOrder(int g, const Key& v) const;
  std::vector<TupleId> TupleOrder(int g, int mi, const Key& b) const;

 private:
  /// Bound state of one group (DESIGN.md §15). FK combos b and
  /// appearance vectors v are interned as dense ids, so every table
  /// below is a flat array indexed by an id or a tuple slot.
  struct GroupState {
    // Statistics, from Bind to Unbind.
    KeyInterner combos;  // combo b; width = number of parents
    // vector v (width = number of members) -> current count xi(v) and
    // target count; the all-zero vector's count is implicit.
    CountGapTable xi;
    // combo id -> vector id (-1: all-zero, i.e. the combo is absent).
    std::vector<int32_t> combo_vec;
    // per member: tuple slot -> combo id (-1 = not counted).
    std::vector<std::vector<int32_t>> tuple_combo;
    std::vector<int64_t> vec_buf;  // AdjustCombo's working vector

    // Search index, while indexed_. Vector id -> combos realizing it:
    // a fresh index fills a bucket in combo id order (key order for the
    // combos Bind found); later arrivals append and removals tombstone,
    // so live order is what push_back + find/erase would leave. Each
    // combo's slot in its bucket. Per member, one list of tuple slots
    // per combo id: slot order when built, then arrival order.
    std::vector<TombstoneBucket> buckets;
    std::vector<int32_t> combo_slot;
    std::vector<SlotLists> tuples_by_combo;
  };

  static constexpr int32_t kNoCombo = -1;
  /// A combo that was never interned; its key is in the buffer.
  static constexpr int32_t kUnseen = -2;

  /// One member-tuple transition: tuple of member `member` changes its
  /// combo from `old_c` to `new_c` (combo ids; kNoCombo = uncounted).
  /// Only `new_c` can be kUnseen, with its key at `TransitionBuffer::
  /// keys[key..]`: pricing treats it as absent with the zero vector and
  /// never interns it; ApplyTransitions interns it.
  struct Transition {
    int group;
    int member;
    TupleId tuple;
    int32_t old_c;
    int32_t new_c;
    size_t key;
  };
  struct TransitionBuffer {
    std::vector<Transition> ts;
    std::vector<int64_t> keys;
    void clear() {
      ts.clear();
      keys.clear();
    }
  };
  /// Per-thread working memory of pricing (defined in coappear.cc).
  /// Validators may be priced from concurrent parallel-pass members,
  /// so pricing keeps no scratch in the tool itself.
  struct PricingScratch;
  static PricingScratch& ThreadScratch();

  /// Appends the transitions `mod` causes to `out`.
  void CollectTransitions(const Modification& mod, TupleId new_tuple,
                          bool pre_apply, TransitionBuffer* out) const;
  void ApplyTransitions(const TransitionBuffer& tb);
  /// Moves combo `c` of group g by `delta` appearances in member `mi`
  /// (tuple `t` joins or leaves its list).
  void AdjustCombo(int g, int mi, TupleId t, int32_t c, int64_t delta);
  /// Id of combo b, growing the per-combo tables on first use.
  int32_t InternCombo(GroupState* st, std::span<const int64_t> b);
  /// Loads every group's target into its bound table; every target
  /// setter calls it.
  void IndexTargets();
  /// Simulated error change of applying `s`'s transitions (shared by
  /// the single and batch validation paths). A finite `veto_cap` allows
  /// stopping as soon as the final penalty is provably above the cap,
  /// returning a conservative lower bound that is itself above the cap.
  double PenaltyOfTransitions(PricingScratch* s, double veto_cap) const;
  Status ReadTarget(std::istream* in);

  /// Reads the combo of a member tuple from the database into `b`
  /// (one value per parent); false if any FK cell is not a value. With
  /// `overlay`, the given columns take the proposed values instead
  /// (pre-apply simulation).
  bool ReadCombo(int g, int member, TupleId t,
                 const std::vector<int>* overlay_cols,
                 const std::vector<Value>* overlay_vals, bool deleted_cells,
                 int64_t* b) const;

  /// Number of possible combos = product of parent sizes: the mass of
  /// xi including the zero vector.
  int64_t CurrentComboSpace(int g) const;
  /// max(1, target mass): group g's error normalizer N_FK.
  double NFk(int g) const;

  /// One Algorithm-2 unit: convert one combo from vector `from` to
  /// vector `to` in group g. Returns false if no combo realizes
  /// `from` (or no fresh combo can be sampled when `from` is zero).
  bool ConvertOne(TweakContext* ctx, int g, std::span<const int64_t> from,
                  std::span<const int64_t> to);

  Status ProposeOrForce(TweakContext* ctx, const Modification& mod,
                        int* veto_budget, TupleId* new_tuple = nullptr);

  /// Re-points every inbound foreign key referencing `victim` of table
  /// `table_index` to another live tuple, so the victim becomes
  /// deletable. Members that are post tables need this when their
  /// tuples carry responses (the overlapping-property case of
  /// Sec. VII-A). Returns false if no survivor tuple exists.
  bool EvacuateReferences(TweakContext* ctx, int table_index,
                          TupleId victim);

  Schema schema_;
  ReferenceGraph graph_;  // InEdges: the FK edges evacuation re-points
  std::vector<CoappearGroup> groups_;
  // table -> (group, member) memberships.
  std::map<int, std::vector<std::pair<int, int>>> member_index_;

  Database* db_ = nullptr;
  std::vector<GroupState> state_;
  bool indexed_ = false;  // the search index in state_ exists

  std::vector<FrequencyDistribution> target_xi_;
  std::vector<std::vector<int64_t>> target_parent_sizes_;
  std::vector<std::vector<int64_t>> target_member_sizes_;
  int max_attempts_ = 24;
};

}  // namespace aspect
