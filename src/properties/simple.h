// Simple property tools (Sec. V: "Tools for simple properties, such as
// 'number of null values in a column' or 'number of tuples in each
// table', are easy to implement; they are already in the current
// version of ASPECT"). This repository ships two: TupleCountTool
// and ColumnFreqTool.
//
// ColumnFreqTool additionally powers the Theorem 6-8 experiments: when
// several tools enforce frequency distributions over the same column,
// the total error and the optimal tweaking order have closed forms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aspect/property_tool.h"
#include "aspect/tweak_context.h"
#include "stats/freq_dist.h"

namespace aspect {

/// Enforces the value-frequency distribution of one int64 column.
/// Error is the L1 distance normalized by the table size (bounded by
/// 2), matching the frequency-difference measure of Theorem 6.
class ColumnFreqTool : public PropertyTool {
 public:
  ColumnFreqTool(const Schema& schema, std::string table,
                 std::string column, std::string tool_name = "");

  std::string name() const override { return name_; }

  std::unique_ptr<PropertyTool> Clone() const override {
    return bound() ? nullptr : std::make_unique<ColumnFreqTool>(*this);
  }

  Status SetTargetFromDataset(const Database& ground_truth) override;
  /// User-input mode (also used by the Theorem 6-8 benches).
  Status SetTargetDistribution(FrequencyDistribution target);
  /// Statistical-extrapolation mode (Sec. III-C, mode (c)): fits the
  /// column's distribution across the snapshots and extrapolates to a
  /// dataset of `target_size` total tuples.
  Status SetTargetByExtrapolation(
      const std::vector<const Database*>& snapshots, double target_size);
  Status RepairTarget() override;
  Status CheckTargetFeasible() const override;

  Status Bind(Database* db) override;
  void Unbind() override;
  bool bound() const override { return db_ != nullptr; }
  double Error() const override;
  double ValidationPenalty(const Modification& mod) const override;
  /// Exact composite vote: simulates the batch's cumulative frequency
  /// deltas, so values hit by several modifications of one batch are
  /// priced correctly (the default sum over singles is only exact for
  /// disjoint values). Honors `veto_cap`: each simulated step moves
  /// the total by at most 2/n, so the tail is skipped once the sum
  /// provably stays above the cap.
  double ValidationPenaltyBatch(std::span<const Modification> mods,
                                double veto_cap) const override;
  using PropertyTool::ValidationPenaltyBatch;
  AccessScope DeclaredScope() const override;
  Status Tweak(TweakContext* ctx) override;

  void OnApplied(const Modification& mod,
                 const std::vector<Value>& old_values,
                 TupleId new_tuple) override;

  const FrequencyDistribution& Current() const { return current_; }
  const FrequencyDistribution& Target() const { return target_; }

 private:
  FrequencyDistribution Extract(const Database& db) const;

  std::string name_;
  std::string table_;
  std::string column_;
  int table_index_ = -1;
  int col_index_ = -1;
  Database* db_ = nullptr;
  FrequencyDistribution current_{1};
  FrequencyDistribution target_{1};
  int max_attempts_ = 8;
};

/// Enforces per-table tuple counts (the size-scaler contract); its
/// tweak inserts template tuples or deletes unreferenced ones.
class TupleCountTool : public PropertyTool {
 public:
  explicit TupleCountTool(const Schema& schema);

  std::string name() const override { return "tuple-count"; }

  std::unique_ptr<PropertyTool> Clone() const override {
    return bound() ? nullptr : std::make_unique<TupleCountTool>(*this);
  }

  Status SetTargetFromDataset(const Database& ground_truth) override;
  Status SetTargetSizes(std::vector<int64_t> sizes);
  Status RepairTarget() override;
  Status CheckTargetFeasible() const override;

  Status Bind(Database* db) override;
  void Unbind() override;
  bool bound() const override { return db_ != nullptr; }

  double Error() const override;
  double ValidationPenalty(const Modification& mod) const override;
  /// Whole-table row structure everywhere: the tweak inserts and
  /// deletes tuples in every table, and its unreferenced-victim test
  /// reads every FK column through the database's referrer index.
  AccessScope DeclaredScope() const override;
  Status Tweak(TweakContext* ctx) override;

  /// Sizes are read live from the database; nothing is cached.
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}

 private:
  Schema schema_;
  Database* db_ = nullptr;
  std::vector<int64_t> targets_;
};

}  // namespace aspect
