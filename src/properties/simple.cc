#include "properties/simple.h"

#include <algorithm>
#include <cmath>

#include "aspect/target_generator.h"
#include "common/string_util.h"

namespace aspect {

// ---------------------------------------------------------------------
// ColumnFreqTool
// ---------------------------------------------------------------------

ColumnFreqTool::ColumnFreqTool(const Schema& schema, std::string table,
                               std::string column, std::string tool_name)
    : name_(tool_name.empty() ? "freq:" + table + "." + column
                              : std::move(tool_name)),
      table_(std::move(table)),
      column_(std::move(column)) {
  table_index_ = schema.TableIndex(table_);
  if (table_index_ >= 0) {
    col_index_ =
        schema.tables[static_cast<size_t>(table_index_)].ColumnIndex(column_);
  }
}

void ColumnFreqTool::SetRowRange(int64_t lo, int64_t hi) {
  if (lo > hi) std::swap(lo, hi);
  has_range_ = true;
  range_lo_ = lo;
  range_hi_ = hi;
  name_ = StrFormat("%s@%lld-%lld", name_.c_str(),
                    static_cast<long long>(lo), static_cast<long long>(hi));
}

AccessScope ColumnFreqTool::DeclaredScope() const {
  AccessScope scope;
  if (table_index_ < 0 || col_index_ < 0) return scope;  // unknown
  scope.known = true;
  if (has_range_) {
    // The range filter runs before every cell access, so the column
    // footprint is certified to stay inside [lo, hi]. The row-structure
    // read below stays whole-table: live-tuple membership of in-range
    // rows is still read through ForEachLive.
    scope.AddWriteRange(table_index_, col_index_, range_lo_, range_hi_);
  } else {
    scope.AddWrite(table_index_, col_index_);
  }
  // Tweak scans the live-tuple set (ForEachLive / NumSlots) and the
  // frequency statistics count one entry per live row, so row
  // membership is part of the read contract, not just the column.
  scope.AddRead(table_index_, AccessScope::kRowStructure);
  return scope;
}

FrequencyDistribution ColumnFreqTool::Extract(const Database& db) const {
  FrequencyDistribution dist(1);
  const Table* t = db.FindTable(table_);
  if (t == nullptr) return dist;
  const int col = t->ColumnIndex(column_);
  if (col < 0) return dist;
  t->ForEachLive([&](TupleId tid) {
    if (!InRange(tid)) return;  // before any cell read
    if (t->column(col).IsValue(tid)) {
      dist.Add({t->column(col).GetInt(tid)}, 1);
    }
  });
  return dist;
}

Status ColumnFreqTool::SetTargetFromDataset(const Database& ground_truth) {
  target_ = Extract(ground_truth);
  return Status::OK();
}

Status ColumnFreqTool::SetTargetDistribution(FrequencyDistribution target) {
  if (target.dim() != 1) {
    return Status::Invalid("column frequency targets are 1-dimensional");
  }
  target_ = std::move(target);
  return Status::OK();
}

Status ColumnFreqTool::SetTargetByExtrapolation(
    const std::vector<const Database*>& snapshots, double target_size) {
  ASPECT_ASSIGN_OR_RETURN(
      FrequencyDistribution predicted,
      ExtrapolateDistribution(
          snapshots,
          [this](const Database& db) { return Extract(db); }, target_size));
  target_ = std::move(predicted);
  return Status::OK();
}

Status ColumnFreqTool::RepairTarget() {
  if (!bound()) return Status::Invalid("freq: RepairTarget needs Bind");
  // Rescale counts proportionally so their total equals the bound
  // table's (non-null) population.
  const int64_t want = current_.TotalMass();
  const int64_t have = target_.TotalMass();
  if (have == want || have == 0) return Status::OK();
  FrequencyDistribution scaled(1);
  int64_t placed = 0;
  FrequencyDistribution::Key largest;
  int64_t largest_count = -1;
  for (const auto& [k, c] : target_.counts()) {
    const int64_t v = static_cast<int64_t>(std::llround(
        static_cast<double>(c) * static_cast<double>(want) /
        static_cast<double>(have)));
    if (v > 0) scaled.Add(k, v);
    placed += v;
    if (c > largest_count) {
      largest_count = c;
      largest = k;
    }
  }
  if (placed != want && !largest.empty()) {
    // Put the rounding residual on the most frequent value; clamp so
    // the entry never goes negative.
    const int64_t fix =
        std::max<int64_t>(-scaled.Count(largest), want - placed);
    scaled.Add(largest, fix);
  }
  target_ = std::move(scaled);
  return Status::OK();
}

Status ColumnFreqTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("freq: needs Bind");
  for (const auto& [k, c] : target_.counts()) {
    if (c < 0) return Status::Infeasible("negative frequency");
  }
  if (target_.TotalMass() != current_.TotalMass()) {
    return Status::Infeasible(StrFormat(
        "frequency total %lld != population %lld",
        static_cast<long long>(target_.TotalMass()),
        static_cast<long long>(current_.TotalMass())));
  }
  return Status::OK();
}

Status ColumnFreqTool::Bind(Database* db) {
  if (db->FindTable(table_) == nullptr ||
      db->FindTable(table_)->ColumnIndex(column_) < 0) {
    return Status::KeyError(
        StrFormat("freq: no column %s.%s", table_.c_str(), column_.c_str()));
  }
  db_ = db;
  current_ = Extract(*db_);
  db_->AddListener(this);
  return Status::OK();
}

void ColumnFreqTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
}

double ColumnFreqTool::Error() const {
  const int64_t n = std::max<int64_t>(1, target_.TotalMass());
  return static_cast<double>(current_.L1Distance(target_)) /
         static_cast<double>(n);
}

void ColumnFreqTool::OnApplied(const Modification& mod,
                               const std::vector<Value>& old_values,
                               TupleId new_tuple) {
  if (db_ == nullptr || mod.table != table_) return;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return;  // table dropped since the bind
  const int col = t->ColumnIndex(column_);
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues: {
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        if (mod.cols[cj] != col) continue;
        for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
          if (!InRange(mod.tuples[tj])) continue;
          const Value& old_v = old_values[tj * mod.cols.size() + cj];
          if (!old_v.is_null()) current_.Add({old_v.int64()}, -1);
          if (mod.kind != OpKind::kDeleteValues &&
              !mod.values[cj].is_null()) {
            current_.Add({mod.values[cj].int64()}, 1);
          }
        }
      }
      break;
    }
    case OpKind::kInsertTuple: {
      if (!InRange(new_tuple)) break;
      const Value& v = mod.values[static_cast<size_t>(col)];
      if (!v.is_null()) current_.Add({v.int64()}, 1);
      break;
    }
    case OpKind::kDeleteTuple: {
      if (!InRange(mod.tuples[0])) break;
      const Value& v = old_values[static_cast<size_t>(col)];
      if (!v.is_null()) current_.Add({v.int64()}, -1);
      break;
    }
  }
}

double ColumnFreqTool::ValidationPenalty(const Modification& mod) const {
  if (db_ == nullptr || mod.table != table_) return 0.0;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return 0.0;  // table dropped: nothing to defend
  const int col = t->ColumnIndex(column_);
  const int64_t n = std::max<int64_t>(1, target_.TotalMass());
  auto delta_for = [&](const Value& old_v, const Value& new_v) {
    double d = 0;
    if (!old_v.is_null()) {
      const int64_t cur = current_.Count({old_v.int64()});
      const int64_t tgt = target_.Count({old_v.int64()});
      d += std::llabs(cur - 1 - tgt) - std::llabs(cur - tgt);
    }
    if (!new_v.is_null() && new_v != old_v) {
      const int64_t cur = current_.Count({new_v.int64()});
      const int64_t tgt = target_.Count({new_v.int64()});
      d += std::llabs(cur + 1 - tgt) - std::llabs(cur - tgt);
    }
    return d / static_cast<double>(n);
  };
  double penalty = 0;
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        if (mod.cols[cj] != col) continue;
        for (const TupleId tid : mod.tuples) {
          // Out-of-range cells are outside the enforced statistic (and
          // outside the declared read scope): skip before the read.
          if (!InRange(tid)) continue;
          const Value old_v = t->column(col).Get(tid);
          const Value new_v = mod.kind == OpKind::kDeleteValues
                                  ? Value()
                                  : mod.values[cj];
          penalty += delta_for(old_v, new_v);
        }
      }
      break;
    case OpKind::kInsertTuple:
      // The tuple id is assigned at apply time; price the insert as if
      // it may land in range (the incremental statistics settle it).
      penalty += delta_for(Value(), mod.values[static_cast<size_t>(col)]);
      break;
    case OpKind::kDeleteTuple:
      if (InRange(mod.tuples[0])) {
        penalty += delta_for(t->column(col).Get(mod.tuples[0]), Value());
      }
      break;
  }
  return penalty;
}

double ColumnFreqTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  if (db_ == nullptr) return 0.0;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return 0.0;
  const int col = t->ColumnIndex(column_);
  const int64_t n = std::max<int64_t>(1, target_.TotalMass());
  // Early-exit support: each step() call below adds two contributions
  // of at most 1/n each in either direction, so an upper bound on the
  // remaining step count bounds how far the running penalty can still
  // fall. Once it provably stays above the cap, the tail cannot change
  // the veto decision (property_tool.h cap contract).
  const auto step_cap = [&](const Modification& mod) -> int64_t {
    if (mod.table != table_) return 0;
    switch (mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues: {
        int64_t matching_cols = 0;
        for (const int c : mod.cols) matching_cols += c == col;
        return matching_cols * static_cast<int64_t>(mod.tuples.size());
      }
      case OpKind::kInsertTuple:
      case OpKind::kDeleteTuple:
        return 1;
    }
    return 1;
  };
  int64_t steps_left = 0;
  const bool capped = veto_cap < kNoPenaltyCap;
  if (capped) {
    for (const Modification& mod : mods) steps_left += step_cap(mod);
  }
  // Cumulative overlay over current_: several modifications of one
  // batch may move the same value's count, so each step is priced
  // against the counts the earlier steps left behind. The per-step L1
  // deltas telescope to the batch's total L1 change.
  std::map<int64_t, int64_t> overlay;
  const auto count = [&](int64_t v) {
    const auto it = overlay.find(v);
    return current_.Count({v}) + (it == overlay.end() ? 0 : it->second);
  };
  double penalty = 0;
  const auto step = [&](const Value& old_v, const Value& new_v) {
    if (!old_v.is_null()) {
      const int64_t v = old_v.int64();
      const int64_t cur = count(v);
      const int64_t tgt = target_.Count({v});
      penalty += static_cast<double>(std::llabs(cur - 1 - tgt) -
                                     std::llabs(cur - tgt)) /
                 static_cast<double>(n);
      --overlay[v];
    }
    if (!new_v.is_null() && new_v != old_v) {
      const int64_t v = new_v.int64();
      const int64_t cur = count(v);
      const int64_t tgt = target_.Count({v});
      penalty += static_cast<double>(std::llabs(cur + 1 - tgt) -
                                     std::llabs(cur - tgt)) /
                 static_cast<double>(n);
      ++overlay[v];
    }
  };
  for (const Modification& mod : mods) {
    if (mod.table != table_) continue;
    if (capped) steps_left -= step_cap(mod);
    switch (mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues:
        for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
          if (mod.cols[cj] != col) continue;
          for (const TupleId tid : mod.tuples) {
            if (!InRange(tid)) continue;  // see ValidationPenalty
            // Batches touch disjoint tuples, so the stored cell is
            // still this tuple's pre-batch value.
            const Value old_v = t->column(col).Get(tid);
            const Value new_v = mod.kind == OpKind::kDeleteValues
                                    ? Value()
                                    : mod.values[cj];
            step(old_v, new_v);
          }
        }
        break;
      case OpKind::kInsertTuple:
        step(Value(), mod.values[static_cast<size_t>(col)]);
        break;
      case OpKind::kDeleteTuple:
        if (InRange(mod.tuples[0])) {
          step(t->column(col).Get(mod.tuples[0]), Value());
        }
        break;
    }
    if (capped && penalty - 2.0 * static_cast<double>(steps_left) /
                                static_cast<double>(n) >
                      veto_cap) {
      // The remaining steps cannot pull the total back to the cap;
      // `penalty` is already above it, which is all the caller reads.
      return penalty;
    }
  }
  return penalty;
}

Status ColumnFreqTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("freq: Tweak needs Bind");
  Table* t = db_->FindTable(table_);
  const int col = t->ColumnIndex(column_);
  // Build per-value surplus tuple pools once, then move tuples from
  // surplus values to deficit values.
  FrequencyDistribution diff = current_.Difference(target_);
  std::vector<std::pair<int64_t, int64_t>> deficits;   // value, amount
  std::map<int64_t, int64_t> surplus;                  // value -> amount
  for (const auto& [k, c] : diff.counts()) {
    if (c < 0) deficits.emplace_back(k[0], -c);
    if (c > 0) surplus[k[0]] = c;
  }
  if (deficits.empty()) return Status::OK();
  // Collect surplus tuples by scanning once.
  std::map<int64_t, std::vector<TupleId>> pool;
  t->ForEachLive([&](TupleId tid) {
    if (!InRange(tid)) return;  // before any cell read
    if (!t->column(col).IsValue(tid)) return;
    const int64_t v = t->column(col).GetInt(tid);
    const auto it = surplus.find(v);
    if (it != surplus.end() &&
        static_cast<int64_t>(pool[v].size()) < it->second) {
      pool[v].push_back(tid);
    }
  });
  auto pool_it = pool.begin();
  int veto_budget = max_attempts_;
  if (ctx->batch_hint() > 1) {
    // Batched pipeline: all victims destined for one deficit value
    // receive the same new value, so up to batch_hint of them fit in a
    // single broadcast ReplaceValues — one validator vote, one columnar
    // write, one listener notification. A vetoed chunk falls back to
    // the one-at-a-time policy below (burn the veto budget, then
    // force), preserving the serial semantics per tuple.
    const int64_t hint = ctx->batch_hint();
    for (const auto& [value, amount] : deficits) {
      int64_t remaining = amount;
      while (remaining > 0) {
        std::vector<TupleId> chunk;
        const int64_t want = std::min<int64_t>(remaining, hint);
        while (static_cast<int64_t>(chunk.size()) < want) {
          while (pool_it != pool.end() && pool_it->second.empty()) {
            ++pool_it;
          }
          if (pool_it == pool.end()) break;
          chunk.push_back(pool_it->second.back());
          pool_it->second.pop_back();
        }
        if (chunk.empty()) return Status::OK();
        remaining -= static_cast<int64_t>(chunk.size());
        Modification mod = Modification::ReplaceValues(
            table_, chunk, {col}, {Value(value)});
        Status st = ctx->TryApply(mod);
        if (st.IsValidationFailed()) {
          for (const TupleId victim : chunk) {
            Modification one = Modification::ReplaceValues(
                table_, {victim}, {col}, {Value(value)});
            Status s1 = ctx->TryApply(one);
            while (s1.IsValidationFailed() && veto_budget-- > 0) {
              s1 = ctx->TryApply(one);
            }
            if (s1.IsValidationFailed()) s1 = ctx->ForceApply(one);
            ASPECT_RETURN_NOT_OK(s1);
          }
          continue;
        }
        ASPECT_RETURN_NOT_OK(st);
      }
    }
    return Status::OK();
  }
  for (const auto& [value, amount] : deficits) {
    for (int64_t i = 0; i < amount; ++i) {
      // Next surplus tuple.
      while (pool_it != pool.end() && pool_it->second.empty()) ++pool_it;
      if (pool_it == pool.end()) return Status::OK();
      const TupleId victim = pool_it->second.back();
      Modification mod = Modification::ReplaceValues(
          table_, {victim}, {col}, {Value(value)});
      Status st = ctx->TryApply(mod);
      if (st.IsValidationFailed()) {
        if (veto_budget-- > 0) {
          // Alternatives cannot help a value-level conflict (the
          // penalty depends on values, not tuples), so keep the victim
          // and burn budget until the forced fallback kicks in.
          --i;
          continue;
        }
        st = ctx->ForceApply(mod);
      }
      ASPECT_RETURN_NOT_OK(st);
      pool_it->second.pop_back();
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// NullCountTool
// ---------------------------------------------------------------------

NullCountTool::NullCountTool(const Schema& schema, std::string table,
                             std::string column)
    : name_("nulls:" + table + "." + column),
      table_(std::move(table)),
      column_(std::move(column)) {
  table_index_ = schema.TableIndex(table_);
  if (table_index_ >= 0) {
    col_index_ =
        schema.tables[static_cast<size_t>(table_index_)].ColumnIndex(column_);
  }
}

void NullCountTool::SetRowRange(int64_t lo, int64_t hi) {
  if (lo > hi) std::swap(lo, hi);
  has_range_ = true;
  range_lo_ = lo;
  range_hi_ = hi;
  name_ = StrFormat("%s@%lld-%lld", name_.c_str(),
                    static_cast<long long>(lo), static_cast<long long>(hi));
}

AccessScope NullCountTool::DeclaredScope() const {
  AccessScope scope;
  if (table_index_ < 0 || col_index_ < 0) return scope;  // unknown
  scope.known = true;
  if (has_range_) {
    scope.AddWriteRange(table_index_, col_index_, range_lo_, range_hi_);
  } else {
    scope.AddWrite(table_index_, col_index_);
  }
  // The null count is taken over the live-tuple set.
  scope.AddRead(table_index_, AccessScope::kRowStructure);
  return scope;
}

Status NullCountTool::SetTargetFromDataset(const Database& ground_truth) {
  const Table* t = ground_truth.FindTable(table_);
  if (t == nullptr) return Status::KeyError("nulls: no table " + table_);
  const int col = t->ColumnIndex(column_);
  if (col < 0) return Status::KeyError("nulls: no column " + column_);
  target_ = 0;
  t->ForEachLive([&](TupleId tid) {
    if (InRange(tid)) target_ += t->column(col).IsNull(tid);
  });
  return Status::OK();
}

Status NullCountTool::RepairTarget() {
  if (!bound()) return Status::Invalid("nulls: RepairTarget needs Bind");
  target_ = std::min(target_, db_->FindTable(table_)->NumTuples());
  return Status::OK();
}

Status NullCountTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("nulls: needs Bind");
  if (target_ < 0 || target_ > db_->FindTable(table_)->NumTuples()) {
    return Status::Infeasible("null count outside [0, |T|]");
  }
  return Status::OK();
}

Status NullCountTool::Bind(Database* db) {
  const Table* t = db->FindTable(table_);
  if (t == nullptr || t->ColumnIndex(column_) < 0) {
    return Status::KeyError("nulls: missing " + table_ + "." + column_);
  }
  if (t->column(t->ColumnIndex(column_)).is_foreign_key()) {
    return Status::Invalid("nulls: foreign keys cannot be nulled");
  }
  db_ = db;
  const int col = t->ColumnIndex(column_);
  current_ = 0;
  t->ForEachLive([&](TupleId tid) {
    if (InRange(tid)) current_ += t->column(col).IsNull(tid);
  });
  db_->AddListener(this);
  return Status::OK();
}

void NullCountTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
}

double NullCountTool::Error() const {
  const int64_t n =
      std::max<int64_t>(1, db_->FindTable(table_)->NumTuples());
  return static_cast<double>(std::llabs(current_ - target_)) /
         static_cast<double>(n);
}

void NullCountTool::OnApplied(const Modification& mod,
                              const std::vector<Value>& old_values,
                              TupleId new_tuple) {
  (void)new_tuple;
  if (db_ == nullptr || mod.table != table_) return;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return;  // table dropped since the bind
  const int col = t->ColumnIndex(column_);
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        if (mod.cols[cj] != col) continue;
        for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
          if (!InRange(mod.tuples[tj])) continue;
          current_ -= old_values[tj * mod.cols.size() + cj].is_null();
          if (mod.kind != OpKind::kDeleteValues) {
            current_ += mod.values[cj].is_null();
          }
        }
      }
      break;
    case OpKind::kInsertTuple:
      if (InRange(new_tuple)) {
        current_ += mod.values[static_cast<size_t>(col)].is_null();
      }
      break;
    case OpKind::kDeleteTuple:
      if (InRange(mod.tuples[0])) {
        current_ -= old_values[static_cast<size_t>(col)].is_null();
      }
      break;
  }
}

int64_t NullCountTool::DeltaOf(const Modification& mod) const {
  if (mod.table != table_) return 0;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return 0;  // table dropped: nothing to defend
  const int col = t->ColumnIndex(column_);
  int64_t delta = 0;
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        if (mod.cols[cj] != col) continue;
        for (const TupleId tid : mod.tuples) {
          // Out-of-range cells are outside the statistic and the
          // declared read scope: skip before the read.
          if (!InRange(tid)) continue;
          delta -= t->column(col).IsNull(tid);
          if (mod.kind != OpKind::kDeleteValues) {
            delta += mod.values[cj].is_null();
          }
        }
      }
      break;
    case OpKind::kInsertTuple:
      delta += mod.values[static_cast<size_t>(col)].is_null();
      break;
    case OpKind::kDeleteTuple:
      if (InRange(mod.tuples[0])) {
        delta -= t->column(col).IsNull(mod.tuples[0]);
      }
      break;
  }
  return delta;
}

double NullCountTool::ValidationPenalty(const Modification& mod) const {
  if (db_ == nullptr) return 0.0;
  const int64_t delta = DeltaOf(mod);
  if (delta == 0) return 0.0;
  const int64_t n =
      std::max<int64_t>(1, db_->FindTable(table_)->NumTuples());
  return static_cast<double>(std::llabs(current_ + delta - target_) -
                             std::llabs(current_ - target_)) /
         static_cast<double>(n);
}

double NullCountTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  (void)veto_cap;  // one |sum| evaluation at the end; nothing to cap
  if (db_ == nullptr) return 0.0;
  // Disjoint-tuple batches make the per-mod deltas independent, so the
  // composite is one |sum| evaluation (the per-mod penalty sum is not:
  // |.| is not additive).
  int64_t delta = 0;
  for (const Modification& mod : mods) delta += DeltaOf(mod);
  if (delta == 0) return 0.0;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return 0.0;
  const int64_t n = std::max<int64_t>(1, t->NumTuples());
  return static_cast<double>(std::llabs(current_ + delta - target_) -
                             std::llabs(current_ - target_)) /
         static_cast<double>(n);
}

Status NullCountTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("nulls: Tweak needs Bind");
  Table* t = db_->FindTable(table_);
  const int col = t->ColumnIndex(column_);
  int64_t delta = target_ - current_;
  // Null surplus values or fill surplus nulls with a sampled value.
  Value fill;
  t->ForEachLive([&](TupleId tid) {
    if (!InRange(tid)) return;  // before any cell read
    if (fill.is_null() && t->column(col).IsValue(tid)) {
      fill = t->column(col).Get(tid);
    }
  });
  if (fill.is_null()) fill = Value(int64_t{0});
  std::vector<TupleId> candidates;
  t->ForEachLive([&](TupleId tid) {
    if (!InRange(tid)) return;
    if (delta > 0 ? t->column(col).IsValue(tid)
                  : t->column(col).IsNull(tid)) {
      candidates.push_back(tid);
    }
  });
  ctx->rng()->Shuffle(&candidates);
  for (const TupleId tid : candidates) {
    if (delta == 0) break;
    Modification mod = Modification::ReplaceValues(
        table_, {tid}, {col}, {delta > 0 ? Value() : fill});
    Status st = ctx->TryApply(mod);
    if (st.IsValidationFailed()) continue;  // plenty of alternatives
    ASPECT_RETURN_NOT_OK(st);
    delta += delta > 0 ? -1 : 1;
  }
  // Force the remainder if validators blocked everything.
  for (const TupleId tid : candidates) {
    if (delta == 0) break;
    if (delta > 0 ? !t->column(col).IsValue(tid)
                  : !t->column(col).IsNull(tid)) {
      continue;
    }
    ASPECT_RETURN_NOT_OK(ctx->ForceApply(Modification::ReplaceValues(
        table_, {tid}, {col}, {delta > 0 ? Value() : fill})));
    delta += delta > 0 ? -1 : 1;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// DomainBoundsTool
// ---------------------------------------------------------------------

DomainBoundsTool::DomainBoundsTool(const Schema& schema, std::string table,
                                   std::string column)
    : name_("bounds:" + table + "." + column),
      table_(std::move(table)),
      column_(std::move(column)) {
  table_index_ = schema.TableIndex(table_);
  if (table_index_ >= 0) {
    col_index_ =
        schema.tables[static_cast<size_t>(table_index_)].ColumnIndex(column_);
  }
}

void DomainBoundsTool::SetRowRange(int64_t lo, int64_t hi) {
  if (lo > hi) std::swap(lo, hi);
  has_range_ = true;
  range_lo_ = lo;
  range_hi_ = hi;
  name_ = StrFormat("%s@%lld-%lld", name_.c_str(),
                    static_cast<long long>(lo), static_cast<long long>(hi));
}

AccessScope DomainBoundsTool::DeclaredScope() const {
  AccessScope scope;
  if (table_index_ < 0 || col_index_ < 0) return scope;  // unknown
  scope.known = true;
  if (has_range_) {
    scope.AddWriteRange(table_index_, col_index_, range_lo_, range_hi_);
  } else {
    scope.AddWrite(table_index_, col_index_);
  }
  // Victim scans and the random bound-pinning picks walk the slot /
  // liveness structure of the table.
  scope.AddRead(table_index_, AccessScope::kRowStructure);
  return scope;
}

Status DomainBoundsTool::SetTargetFromDataset(const Database& ground_truth) {
  const Table* t = ground_truth.FindTable(table_);
  if (t == nullptr) return Status::KeyError("bounds: no table " + table_);
  const int col = t->ColumnIndex(column_);
  if (col < 0) return Status::KeyError("bounds: no column " + column_);
  bool any = false;
  t->ForEachLive([&](TupleId tid) {
    if (!InRange(tid)) return;  // before any cell read
    if (!t->column(col).IsValue(tid)) return;
    const int64_t v = t->column(col).GetInt(tid);
    if (!any) {
      target_min_ = target_max_ = v;
      any = true;
    } else {
      target_min_ = std::min(target_min_, v);
      target_max_ = std::max(target_max_, v);
    }
  });
  if (!any) return Status::Invalid("bounds: ground-truth column empty");
  return Status::OK();
}

Status DomainBoundsTool::RepairTarget() {
  if (target_min_ > target_max_) std::swap(target_min_, target_max_);
  return Status::OK();
}

Status DomainBoundsTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("bounds: needs Bind");
  if (target_min_ > target_max_) {
    return Status::Infeasible("bounds: min above max");
  }
  if (db_->FindTable(table_)->NumTuples() < 2 &&
      target_min_ != target_max_) {
    return Status::Infeasible("bounds: need two tuples for two bounds");
  }
  return Status::OK();
}

void DomainBoundsTool::Recount() {
  const Table* t = db_->FindTable(table_);
  const int col = t->ColumnIndex(column_);
  out_of_range_ = at_min_ = at_max_ = 0;
  t->ForEachLive([&](TupleId tid) {
    if (!InRange(tid)) return;
    if (!t->column(col).IsValue(tid)) return;
    const int64_t v = t->column(col).GetInt(tid);
    out_of_range_ += v < target_min_ || v > target_max_;
    at_min_ += v == target_min_;
    at_max_ += v == target_max_;
  });
}

Status DomainBoundsTool::Bind(Database* db) {
  const Table* t = db->FindTable(table_);
  if (t == nullptr || t->ColumnIndex(column_) < 0) {
    return Status::KeyError("bounds: missing " + table_ + "." + column_);
  }
  if (t->column(t->ColumnIndex(column_)).type() != ColumnType::kInt64) {
    return Status::Invalid("bounds: column must be int64");
  }
  db_ = db;
  Recount();
  db_->AddListener(this);
  return Status::OK();
}

void DomainBoundsTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
}

double DomainBoundsTool::ErrorOf(int64_t out_of_range, bool has_min,
                                 bool has_max) const {
  const double n = static_cast<double>(
      std::max<int64_t>(1, db_->FindTable(table_)->NumTuples()));
  return static_cast<double>(out_of_range) / n + (has_min ? 0.0 : 1.0) +
         (has_max ? 0.0 : 1.0);
}

double DomainBoundsTool::Error() const {
  return ErrorOf(out_of_range_, at_min_ > 0, at_max_ > 0);
}

void DomainBoundsTool::OnApplied(const Modification& mod,
                                 const std::vector<Value>& old_values,
                                 TupleId new_tuple) {
  (void)new_tuple;
  if (db_ == nullptr || mod.table != table_) return;
  const Table* table = db_->FindTable(table_);
  if (table == nullptr) return;  // table dropped since the bind
  const int col = table->ColumnIndex(column_);
  auto remove = [&](const Value& v) {
    if (v.is_null()) return;
    const int64_t x = v.int64();
    out_of_range_ -= x < target_min_ || x > target_max_;
    at_min_ -= x == target_min_;
    at_max_ -= x == target_max_;
  };
  auto add = [&](const Value& v) {
    if (v.is_null()) return;
    const int64_t x = v.int64();
    out_of_range_ += x < target_min_ || x > target_max_;
    at_min_ += x == target_min_;
    at_max_ += x == target_max_;
  };
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        if (mod.cols[cj] != col) continue;
        for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
          if (!InRange(mod.tuples[tj])) continue;
          remove(old_values[tj * mod.cols.size() + cj]);
          if (mod.kind != OpKind::kDeleteValues) add(mod.values[cj]);
        }
      }
      break;
    case OpKind::kInsertTuple:
      if (InRange(new_tuple)) add(mod.values[static_cast<size_t>(col)]);
      break;
    case OpKind::kDeleteTuple:
      if (InRange(mod.tuples[0])) {
        remove(old_values[static_cast<size_t>(col)]);
      }
      break;
  }
}

void DomainBoundsTool::AccumulateDeltas(const Modification& mod,
                                        const Table* t, int col,
                                        int64_t* oor, int64_t* dmin,
                                        int64_t* dmax) const {
  auto remove = [&](const Value& v) {
    if (v.is_null()) return;
    const int64_t x = v.int64();
    *oor -= x < target_min_ || x > target_max_;
    *dmin -= x == target_min_;
    *dmax -= x == target_max_;
  };
  auto add = [&](const Value& v) {
    if (v.is_null()) return;
    const int64_t x = v.int64();
    *oor += x < target_min_ || x > target_max_;
    *dmin += x == target_min_;
    *dmax += x == target_max_;
  };
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
        if (mod.cols[cj] != col) continue;
        for (const TupleId tid : mod.tuples) {
          // Out-of-range cells are outside the statistic and the
          // declared read scope: skip before the read.
          if (!InRange(tid)) continue;
          remove(t->column(col).Get(tid));
          if (mod.kind != OpKind::kDeleteValues) add(mod.values[cj]);
        }
      }
      break;
    case OpKind::kInsertTuple:
      add(mod.values[static_cast<size_t>(col)]);
      break;
    case OpKind::kDeleteTuple:
      if (InRange(mod.tuples[0])) {
        remove(t->column(col).Get(mod.tuples[0]));
      }
      break;
  }
}

double DomainBoundsTool::ValidationPenalty(const Modification& mod) const {
  if (db_ == nullptr || mod.table != table_) return 0.0;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return 0.0;  // table dropped: nothing to defend
  const int col = t->ColumnIndex(column_);
  int64_t oor = 0, dmin = 0, dmax = 0;
  AccumulateDeltas(mod, t, col, &oor, &dmin, &dmax);
  if (oor == 0 && dmin == 0 && dmax == 0) return 0.0;
  return ErrorOf(out_of_range_ + oor, at_min_ + dmin > 0,
                 at_max_ + dmax > 0) -
         Error();
}

double DomainBoundsTool::ValidationPenaltyBatch(
    std::span<const Modification> mods, double veto_cap) const {
  (void)veto_cap;  // composite priced once at the end; nothing to cap
  if (db_ == nullptr) return 0.0;
  const Table* t = db_->FindTable(table_);
  if (t == nullptr) return 0.0;
  const int col = t->ColumnIndex(column_);
  // The at-bound error terms are thresholded, not additive: sum every
  // mod's deltas first (independent on disjoint tuples), then price the
  // composite once.
  int64_t oor = 0, dmin = 0, dmax = 0;
  for (const Modification& mod : mods) {
    if (mod.table != table_) continue;
    AccumulateDeltas(mod, t, col, &oor, &dmin, &dmax);
  }
  if (oor == 0 && dmin == 0 && dmax == 0) return 0.0;
  return ErrorOf(out_of_range_ + oor, at_min_ + dmin > 0,
                 at_max_ + dmax > 0) -
         Error();
}

Status DomainBoundsTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("bounds: Tweak needs Bind");
  Table* t = db_->FindTable(table_);
  const int col = t->ColumnIndex(column_);
  // Clamp every out-of-range value.
  std::vector<TupleId> victims;
  t->ForEachLive([&](TupleId tid) {
    if (!InRange(tid)) return;  // before any cell read
    if (!t->column(col).IsValue(tid)) return;
    const int64_t v = t->column(col).GetInt(tid);
    if (v < target_min_ || v > target_max_) victims.push_back(tid);
  });
  for (const TupleId tid : victims) {
    const int64_t v = t->column(col).GetInt(tid);
    Modification mod = Modification::ReplaceValues(
        table_, {tid}, {col},
        {Value(v < target_min_ ? target_min_ : target_max_)});
    ASPECT_RETURN_NOT_OK(ctx->TryOrForce(mod));
  }
  // Pin one tuple to each missing bound.
  for (const auto& [needed, value] :
       {std::pair<bool, int64_t>{at_min_ == 0, target_min_},
        std::pair<bool, int64_t>{at_max_ == 0, target_max_}}) {
    if (!needed || t->NumTuples() == 0) continue;
    // Restrict the random pick to the declared row interval so the pin
    // never reads (or writes) a cell outside the certified range.
    const int64_t pick_lo = has_range_ ? std::max<int64_t>(0, range_lo_) : 0;
    const int64_t pick_hi = has_range_
                                ? std::min<int64_t>(range_hi_,
                                                    t->NumSlots() - 1)
                                : t->NumSlots() - 1;
    if (pick_hi < pick_lo) continue;
    for (int tries = 0; tries < 64; ++tries) {
      const TupleId tid = ctx->rng()->UniformInt(pick_lo, pick_hi);
      if (!t->IsLive(tid) || !t->column(col).IsValue(tid)) continue;
      const int64_t v = t->column(col).GetInt(tid);
      if (v == target_min_ || v == target_max_) continue;  // keep bounds
      Modification mod = Modification::ReplaceValues(table_, {tid}, {col},
                                                     {Value(value)});
      ASPECT_RETURN_NOT_OK(ctx->TryOrForce(mod));
      break;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// TupleCountTool
// ---------------------------------------------------------------------

TupleCountTool::TupleCountTool(const Schema& schema) : schema_(schema) {}

AccessScope TupleCountTool::DeclaredScope() const {
  // The tool only inserts and deletes whole tuples; it never rewrites
  // another tool's cell values. Declaring row-structure writes instead
  // of whole-table writes means cell-scoped tools stay parallel-
  // eligible after this tool is enforced: its votes depend only on
  // live-tuple counts (stats_reads = row structure), which cell writes
  // cannot disturb.
  AccessScope scope;
  scope.known = true;
  for (size_t t = 0; t < schema_.tables.size(); ++t) {
    const int ti = static_cast<int>(t);
    scope.AddWrite(ti, AccessScope::kRowStructure);
    // Growing clones a random live template row, which reads every
    // column of the table — but only inside Tweak; Error() and
    // ValidationPenalty() never look at cell values.
    scope.AddTweakOnlyRead(ti, AccessScope::kWholeTable);
  }
  // Shrinking deletes only unreferenced tuples: the referrer index's
  // victim test depends on every inbound foreign-key column.
  for (size_t t = 0; t < schema_.tables.size(); ++t) {
    const TableSpec& ts = schema_.tables[t];
    for (size_t c = 0; c < ts.columns.size(); ++c) {
      if (!ts.columns[c].ref_table.empty()) {
        scope.AddTweakOnlyRead(static_cast<int>(t), static_cast<int>(c));
      }
    }
  }
  return scope;
}

Status TupleCountTool::SetTargetFromDataset(const Database& ground_truth) {
  targets_.clear();
  for (int t = 0; t < ground_truth.num_tables(); ++t) {
    targets_.push_back(ground_truth.table(t).NumTuples());
  }
  return Status::OK();
}

Status TupleCountTool::SetTargetSizes(std::vector<int64_t> sizes) {
  if (sizes.size() != schema_.tables.size()) {
    return Status::Invalid("tuple-count: wrong number of sizes");
  }
  targets_ = std::move(sizes);
  return Status::OK();
}

Status TupleCountTool::RepairTarget() {
  if (!bound()) return Status::Invalid("tuple-count: needs Bind");
  for (int64_t& s : targets_) s = std::max<int64_t>(1, s);
  return Status::OK();
}

Status TupleCountTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("tuple-count: needs Bind");
  if (targets_.size() != schema_.tables.size()) {
    return Status::Infeasible("tuple-count: no targets");
  }
  for (const int64_t s : targets_) {
    if (s < 1) return Status::Infeasible("tuple-count: size below 1");
  }
  return Status::OK();
}

Status TupleCountTool::Bind(Database* db) {
  db_ = db;
  db_->BuildReferrerIndex();
  db_->AddListener(this);
  return Status::OK();
}

void TupleCountTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
}

double TupleCountTool::Error() const {
  if (targets_.empty()) return 0.0;
  double sum = 0;
  for (int t = 0; t < db_->num_tables(); ++t) {
    const double tgt =
        std::max<int64_t>(1, targets_[static_cast<size_t>(t)]);
    sum += std::fabs(static_cast<double>(db_->table(t).NumTuples()) - tgt) /
           tgt;
  }
  return sum / static_cast<double>(db_->num_tables());
}

double TupleCountTool::ValidationPenalty(const Modification& mod) const {
  if (db_ == nullptr || targets_.empty()) return 0.0;
  if (mod.kind != OpKind::kInsertTuple && mod.kind != OpKind::kDeleteTuple) {
    return 0.0;
  }
  const int t = db_->schema().TableIndex(mod.table);
  if (t < 0) return 0.0;
  const double tgt = std::max<int64_t>(1, targets_[static_cast<size_t>(t)]);
  const double cur = static_cast<double>(db_->table(t).NumTuples());
  const double next = cur + (mod.kind == OpKind::kInsertTuple ? 1 : -1);
  return (std::fabs(next - tgt) - std::fabs(cur - tgt)) / tgt /
         static_cast<double>(db_->num_tables());
}

Status TupleCountTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("tuple-count: Tweak needs Bind");
  for (int ti = 0; ti < db_->num_tables(); ++ti) {
    Table& t = db_->table(ti);
    const int64_t want = targets_[static_cast<size_t>(ti)];
    // Grow: clone random template tuples.
    while (t.NumTuples() < want) {
      TupleId tmpl = kInvalidTuple;
      for (int tries = 0; tries < 64 && tmpl == kInvalidTuple; ++tries) {
        const TupleId cand = ctx->rng()->UniformInt(0, t.NumSlots() - 1);
        if (t.IsLive(cand)) tmpl = cand;
      }
      if (tmpl == kInvalidTuple) break;
      Modification mod = Modification::InsertTuple(t.name(), t.GetRow(tmpl));
      ASPECT_RETURN_NOT_OK(ctx->TryOrForce(mod));
    }
    // Shrink: delete unreferenced tuples.
    int64_t scan = t.NumSlots();
    while (t.NumTuples() > want && scan-- > 0) {
      const TupleId cand = ctx->rng()->UniformInt(0, t.NumSlots() - 1);
      if (!t.IsLive(cand) || !db_->Unreferenced(ti, cand)) continue;
      Modification mod = Modification::DeleteTuple(t.name(), cand);
      ASPECT_RETURN_NOT_OK(ctx->TryOrForce(mod));
    }
  }
  return Status::OK();
}

}  // namespace aspect
