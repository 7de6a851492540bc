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
// with foreign keys b until b realizes v.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "aspect/property_tool.h"
#include "aspect/tweak_context.h"
#include "relational/refcount.h"
#include "relational/refgraph.h"
#include "stats/freq_dist.h"

namespace aspect {

class CoappearPropertyTool : public PropertyTool {
 public:
  explicit CoappearPropertyTool(const Schema& schema);

  std::string name() const override { return "coappear"; }

  /// Custom clone: the refcount cache is non-copyable bound state.
  std::unique_ptr<PropertyTool> Clone() const override;

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
  /// The tool plus its RefCounter (the auxiliary listener Bind
  /// installs). Inside a parallel group the counter sees only this
  /// tool's writes, so counts of tables outside the declared scope may
  /// go stale; Tweak only queries member tables, whose inbound FK
  /// columns the declared scope names, so those counts stay exact.
  void AppendListeners(std::vector<ModificationListener*>* out) override;

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
  /// Current distribution of group g (stored, zero vector implicit).
  const FrequencyDistribution& CurrentXi(int g) const {
    return xi_[static_cast<size_t>(g)];
  }
  const FrequencyDistribution& TargetXi(int g) const {
    return target_xi_[static_cast<size_t>(g)];
  }

 private:
  using Key = FrequencyDistribution::Key;  // combo b or vector v

  struct GroupState {
    // combo b -> appearance vector v (per member); absent == all-zero.
    std::map<Key, Key> combo_vec;
    // vector v -> combos currently realizing it.
    std::map<Key, std::vector<Key>> buckets;
    // per member: combo -> tuple ids carrying it.
    std::vector<std::map<Key, std::vector<TupleId>>> tuples_by_combo;
    // per member: tuple slot -> its combo (empty key = not counted).
    std::vector<std::vector<Key>> tuple_combo;
  };

  /// One member-tuple transition: tuple of member `member` changes its
  /// combo from `old_b` to `new_b` (either may be empty = uncounted).
  struct Transition {
    int group;
    int member;
    TupleId tuple;
    Key old_b;
    Key new_b;
  };

  std::vector<Transition> CollectTransitions(const Modification& mod,
                                             TupleId new_tuple,
                                             bool pre_apply) const;
  void ApplyTransitions(const std::vector<Transition>& ts);
  /// Simulated error change of applying `ts` (shared across the single
  /// and batch validation paths). A finite `veto_cap` allows stopping
  /// as soon as the final penalty is provably above the cap, returning
  /// a conservative lower bound that is itself above the cap.
  double PenaltyOfTransitions(const std::vector<Transition>& ts,
                              double veto_cap = kNoPenaltyCap) const;

  /// Reads the combo of a member tuple from the database (empty key if
  /// any FK cell is not a value). With `overlay`, the given columns
  /// take the proposed values instead (pre-apply simulation).
  Key ReadCombo(int g, int member, TupleId t,
                const std::vector<int>* overlay_cols,
                const std::vector<Value>* overlay_vals,
                bool deleted_cells) const;

  /// Current count of vector v in group g, including the implicit
  /// zero vector.
  int64_t CurrentCount(int g, const Key& v) const;
  int64_t TargetCount(int g, const Key& v) const;
  /// Number of possible combos = product of parent sizes.
  int64_t CurrentComboSpace(int g) const;

  double GroupError(int g) const;

  /// One Algorithm-2 unit: convert one combo from vector `from` to
  /// vector `to` in group g. Returns false if no combo realizes
  /// `from` (or no fresh combo can be sampled when `from` is zero).
  bool ConvertOne(TweakContext* ctx, int g, const Key& from, const Key& to);

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
  std::vector<CoappearGroup> groups_;
  // (table, col) -> (group, member, col position within combo).
  std::map<std::pair<int, int>, std::vector<std::tuple<int, int, int>>>
      fk_index_;
  // table -> (group, member) memberships.
  std::map<int, std::vector<std::pair<int, int>>> member_index_;
  // table -> FK edges referencing it (for reference evacuation).
  std::map<int, std::vector<FkEdge>> inbound_;

  Database* db_ = nullptr;
  std::vector<GroupState> state_;
  std::vector<FrequencyDistribution> xi_;
  // Deletion victims must be unreferenced (members can be post tables
  // that response tables reference, e.g. Review in the Douban schemas).
  std::unique_ptr<RefCounter> refcount_;

  std::vector<FrequencyDistribution> target_xi_;
  std::vector<std::vector<int64_t>> target_parent_sizes_;
  std::vector<std::vector<int64_t>> target_member_sizes_;
  int max_attempts_ = 24;
};

}  // namespace aspect
