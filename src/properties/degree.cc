#include "properties/degree.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <cassert>
#include <cmath>

#include "aspect/target_generator.h"
#include "common/string_util.h"
#include "stats/fitting.h"

namespace aspect {

DegreeDistributionTool::DegreeDistributionTool(const Schema& schema)
    : schema_(schema) {
  ReferenceGraph graph(schema_);
  edges_ = graph.edges();
  dist_.assign(edges_.size(), FrequencyDistribution(1));
  target_.assign(edges_.size(), FrequencyDistribution(1));
  target_parents_.assign(edges_.size(), 0);
}

Status DegreeDistributionTool::SetTargetFromDataset(
    const Database& ground_truth) {
  for (size_t e = 0; e < edges_.size(); ++e) {
    const FkEdge& edge = edges_[e];
    const Table& child = ground_truth.table(edge.child_table);
    const Table& parent = ground_truth.table(edge.parent_table);
    std::map<TupleId, int64_t> deg;
    child.ForEachLive([&](TupleId t) {
      if (child.column(edge.fk_col).IsValue(t)) {
        ++deg[child.column(edge.fk_col).GetInt(t)];
      }
    });
    FrequencyDistribution f(1);
    for (const auto& [p, d] : deg) f.Add({d}, 1);
    target_[e] = std::move(f);
    target_parents_[e] = parent.NumTuples();
  }
  return Status::OK();
}

Status DegreeDistributionTool::SetTargetDistributions(
    std::vector<FrequencyDistribution> targets,
    std::vector<int64_t> target_parents) {
  if (targets.size() != edges_.size() ||
      target_parents.size() != edges_.size()) {
    return Status::Invalid("degree: wrong number of edge targets");
  }
  target_ = std::move(targets);
  target_parents_ = std::move(target_parents);
  return Status::OK();
}

Status DegreeDistributionTool::SetTargetByExtrapolation(
    const std::vector<const Database*>& snapshots, double target_size) {
  for (size_t e = 0; e < edges_.size(); ++e) {
    const FkEdge edge = edges_[e];
    auto extract = [edge](const Database& db) {
      std::map<TupleId, int64_t> deg;
      const Table& child = db.table(edge.child_table);
      child.ForEachLive([&](TupleId t) {
        if (child.column(edge.fk_col).IsValue(t)) {
          ++deg[child.column(edge.fk_col).GetInt(t)];
        }
      });
      FrequencyDistribution f(1);
      for (const auto& [p, d] : deg) f.Add({d}, 1);
      return f;
    };
    ASPECT_ASSIGN_OR_RETURN(
        FrequencyDistribution predicted,
        ExtrapolateDistribution(snapshots, extract, target_size));
    target_[e] = std::move(predicted);
    // Extrapolate the parent count with a linear fit as well.
    std::vector<double> xs, ys;
    for (const Database* snap : snapshots) {
      xs.push_back(static_cast<double>(snap->TotalTuples()));
      ys.push_back(static_cast<double>(
          snap->table(edge.parent_table).NumTuples()));
    }
    ASPECT_ASSIGN_OR_RETURN(std::vector<double> fit, PolyFit(xs, ys, 1));
    target_parents_[e] = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(PolyEval(fit, target_size))));
  }
  return Status::OK();
}

Status DegreeDistributionTool::Bind(Database* db) {
  db_ = db;
  state_.assign(edges_.size(), EdgeState{});
  for (size_t e = 0; e < edges_.size(); ++e) {
    const FkEdge& edge = edges_[e];
    const Table& child = db_->table(edge.child_table);
    const Table& parent = db_->table(edge.parent_table);
    EdgeState& st = state_[e];
    st.degree.assign(static_cast<size_t>(parent.NumSlots()), 0);
    dist_[e].Clear();
    child.ForEachLive([&](TupleId t) {
      if (!child.column(edge.fk_col).IsValue(t)) return;
      const TupleId p = child.column(edge.fk_col).GetInt(t);
      ++st.degree[static_cast<size_t>(p)];
      st.children[p].push_back(t);
    });
    parent.ForEachLive([&](TupleId p) {
      const int64_t d = st.degree[static_cast<size_t>(p)];
      if (d > 0) dist_[e].Add({d}, 1);
    });
  }
  db_->AddListener(this);
  return Status::OK();
}

void DegreeDistributionTool::Unbind() {
  if (db_ != nullptr) {
    db_->RemoveListener(this);
    db_ = nullptr;
  }
  state_.clear();
}

void DegreeDistributionTool::AdjustEdge(int edge, TupleId parent,
                                        TupleId child, int64_t delta) {
  EdgeState& st = state_[static_cast<size_t>(edge)];
  if (parent >= static_cast<TupleId>(st.degree.size())) {
    st.degree.resize(static_cast<size_t>(parent) + 1, 0);
  }
  int64_t& d = st.degree[static_cast<size_t>(parent)];
  if (d > 0) dist_[static_cast<size_t>(edge)].Add({d}, -1);
  d += delta;
  assert(d >= 0);
  if (d > 0) dist_[static_cast<size_t>(edge)].Add({d}, 1);
  auto& kids = st.children[parent];
  if (delta > 0) {
    kids.push_back(child);
  } else {
    const auto it = std::find(kids.begin(), kids.end(), child);
    if (it != kids.end()) {
      *it = kids.back();
      kids.pop_back();
    }
    if (kids.empty()) st.children.erase(parent);
  }
}

void DegreeDistributionTool::OnApplied(const Modification& mod,
                                       const std::vector<Value>& old_values,
                                       TupleId new_tuple) {
  if (db_ == nullptr) return;
  const int table = db_->schema().TableIndex(mod.table);
  for (size_t e = 0; e < edges_.size(); ++e) {
    const FkEdge& edge = edges_[e];
    if (edge.child_table != table) continue;
    switch (mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues:
        for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
          if (mod.cols[cj] != edge.fk_col) continue;
          for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
            const Value& old_v = old_values[tj * mod.cols.size() + cj];
            if (!old_v.is_null()) {
              AdjustEdge(static_cast<int>(e), old_v.int64(),
                         mod.tuples[tj], -1);
            }
            if (mod.kind != OpKind::kDeleteValues &&
                !mod.values[cj].is_null()) {
              AdjustEdge(static_cast<int>(e), mod.values[cj].int64(),
                         mod.tuples[tj], +1);
            }
          }
        }
        break;
      case OpKind::kInsertTuple: {
        const Value& v = mod.values[static_cast<size_t>(edge.fk_col)];
        if (!v.is_null()) {
          AdjustEdge(static_cast<int>(e), v.int64(), new_tuple, +1);
        }
        break;
      }
      case OpKind::kDeleteTuple: {
        const Value& v = old_values[static_cast<size_t>(edge.fk_col)];
        if (!v.is_null()) {
          AdjustEdge(static_cast<int>(e), v.int64(), mod.tuples[0], -1);
        }
        break;
      }
    }
  }
}

double DegreeDistributionTool::EdgeError(int edge) const {
  // L1 over d >= 1 plus the implicit zero-degree difference,
  // normalized by the target parent count (bounded by 2).
  const size_t e = static_cast<size_t>(edge);
  const int64_t parents_cur =
      db_->table(edges_[e].parent_table).NumTuples();
  const int64_t zero_cur = parents_cur - dist_[e].TotalMass();
  const int64_t zero_tgt = target_parents_[e] - target_[e].TotalMass();
  const int64_t n = std::max<int64_t>(1, target_parents_[e]);
  return static_cast<double>(dist_[e].L1Distance(target_[e]) +
                             std::llabs(zero_cur - zero_tgt)) /
         static_cast<double>(n);
}

double DegreeDistributionTool::Error() const {
  if (edges_.empty() || db_ == nullptr) return 0.0;
  double sum = 0;
  for (size_t e = 0; e < edges_.size(); ++e) {
    sum += EdgeError(static_cast<int>(e));
  }
  return sum / static_cast<double>(edges_.size());
}

double DegreeDistributionTool::ValidationPenalty(
    const Modification& mod) const {
  if (db_ == nullptr) return 0.0;
  const int table = db_->schema().TableIndex(mod.table);
  double penalty = 0;
  for (size_t e = 0; e < edges_.size(); ++e) {
    const FkEdge& edge = edges_[e];
    if (edge.child_table != table) continue;
    // Per-parent degree deltas this modification would cause.
    std::map<TupleId, int64_t> deltas;
    switch (mod.kind) {
      case OpKind::kDeleteValues:
      case OpKind::kInsertValues:
      case OpKind::kReplaceValues: {
        const Column& col = db_->table(table).column(edge.fk_col);
        for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
          if (mod.cols[cj] != edge.fk_col) continue;
          for (const TupleId t : mod.tuples) {
            if (col.IsValue(t)) --deltas[col.GetInt(t)];
            if (mod.kind != OpKind::kDeleteValues &&
                !mod.values[cj].is_null()) {
              ++deltas[mod.values[cj].int64()];
            }
          }
        }
        break;
      }
      case OpKind::kInsertTuple: {
        const Value& v = mod.values[static_cast<size_t>(edge.fk_col)];
        if (!v.is_null()) ++deltas[v.int64()];
        break;
      }
      case OpKind::kDeleteTuple: {
        const Column& col = db_->table(table).column(edge.fk_col);
        if (col.IsValue(mod.tuples[0])) --deltas[col.GetInt(mod.tuples[0])];
        break;
      }
    }
    // Error delta from moving each touched parent between histogram
    // bins.
    const EdgeState& st = state_[e];
    std::map<int64_t, int64_t> bin_delta;
    for (const auto& [p, delta] : deltas) {
      if (delta == 0) continue;
      const int64_t before =
          p < static_cast<TupleId>(st.degree.size())
              ? st.degree[static_cast<size_t>(p)]
              : 0;
      const int64_t after = before + delta;
      if (before > 0) --bin_delta[before];
      if (after > 0) ++bin_delta[after];
    }
    const int64_t n = std::max<int64_t>(1, target_parents_[e]);
    for (const auto& [d, delta] : bin_delta) {
      if (delta == 0) continue;
      const int64_t cur = dist_[e].Count({d});
      const int64_t tgt = target_[e].Count({d});
      penalty += static_cast<double>(std::llabs(cur + delta - tgt) -
                                     std::llabs(cur - tgt)) /
                 static_cast<double>(n);
    }
  }
  return penalty / static_cast<double>(edges_.size());
}

Status DegreeDistributionTool::RepairTarget() {
  if (!bound()) return Status::Invalid("degree: RepairTarget needs Bind");
  for (size_t e = 0; e < edges_.size(); ++e) {
    FrequencyDistribution& tgt = target_[e];
    target_parents_[e] = db_->table(edges_[e].parent_table).NumTuples();
    // (D2): at most |P| parents may have children.
    while (tgt.TotalMass() > target_parents_[e] && tgt.NumKeys() >= 2) {
      // Merge the two smallest-degree bins into their sum.
      const auto a = tgt.counts().begin()->first;
      const auto b = std::next(tgt.counts().begin())->first;
      tgt.Add(a, -1);
      tgt.Add(b, -1);
      tgt.Add({a[0] + b[0]}, 1);
    }
    // (D1): weighted sum must equal |C|.
    const int64_t want = db_->table(edges_[e].child_table).NumTuples();
    int64_t d = want - tgt.WeightedSum(0);
    while (d > 0 && tgt.TotalMass() < target_parents_[e]) {
      tgt.Add({1}, 1);
      --d;
    }
    if (d > 0 && tgt.NumKeys() > 0) {
      // No spare parents: pile the remainder onto the largest bin.
      const auto last = std::prev(tgt.counts().end())->first;
      tgt.Add(last, -1);
      tgt.Add({last[0] + d}, 1);
      d = 0;
    }
    while (d < 0) {
      FrequencyDistribution::Key victim;
      for (const auto& [k, c] : tgt.counts()) {
        if (k[0] > 0 && c > 0) victim = k;  // prefer the largest degree
      }
      if (victim.empty()) break;
      tgt.Add(victim, -1);
      if (victim[0] > 1) tgt.Add({victim[0] - 1}, 1);
      ++d;
    }
  }
  return Status::OK();
}

Status DegreeDistributionTool::CheckTargetFeasible() const {
  if (!bound()) return Status::Invalid("degree: needs Bind");
  for (size_t e = 0; e < edges_.size(); ++e) {
    for (const auto& [k, c] : target_[e].counts()) {
      if (c < 0 || k[0] < 1) {
        return Status::Infeasible("degree: bad target bin");
      }
    }
    if (target_[e].WeightedSum(0) !=
        db_->table(edges_[e].child_table).NumTuples()) {
      return Status::Infeasible(StrFormat("degree: D1 violated (edge %zu)",
                                          e));
    }
    if (target_[e].TotalMass() >
        db_->table(edges_[e].parent_table).NumTuples()) {
      return Status::Infeasible(StrFormat("degree: D2 violated (edge %zu)",
                                          e));
    }
  }
  return Status::OK();
}

std::vector<int64_t> DegreeDistributionTool::TargetDegreeSequence(
    int edge) const {
  const size_t e = static_cast<size_t>(edge);
  std::vector<int64_t> seq;
  for (const auto& [k, c] : target_[e].counts()) {
    for (int64_t i = 0; i < c; ++i) seq.push_back(k[0]);
  }
  const int64_t parents = db_->table(edges_[e].parent_table).NumTuples();
  while (static_cast<int64_t>(seq.size()) < parents) seq.push_back(0);
  std::sort(seq.rbegin(), seq.rend());
  return seq;
}

Status DegreeDistributionTool::Tweak(TweakContext* ctx) {
  if (!bound()) return Status::Invalid("degree: Tweak needs Bind");
  for (size_t e = 0; e < edges_.size(); ++e) {
    const FkEdge& edge = edges_[e];
    const Table& parent = db_->table(edge.parent_table);
    const Table& child = db_->table(edge.child_table);
    EdgeState& st = state_[e];

    // Rank-match the current degree sequence to the target sequence:
    // sorting both minimizes the number of re-pointed children.
    std::vector<TupleId> parents;
    parent.ForEachLive([&](TupleId p) { parents.push_back(p); });
    std::stable_sort(parents.begin(), parents.end(),
                     [&](TupleId a, TupleId b) {
                       return st.degree[static_cast<size_t>(a)] >
                              st.degree[static_cast<size_t>(b)];
                     });
    const std::vector<int64_t> want = TargetDegreeSequence(static_cast<int>(e));
    if (want.size() < parents.size()) continue;  // infeasible target

    std::vector<std::pair<TupleId, int64_t>> donors;    // parent, excess
    std::vector<std::pair<TupleId, int64_t>> receivers;  // parent, need
    for (size_t r = 0; r < parents.size(); ++r) {
      const int64_t have = st.degree[static_cast<size_t>(parents[r])];
      const int64_t need = want[r];
      if (have > need) donors.emplace_back(parents[r], have - need);
      if (have < need) receivers.emplace_back(parents[r], need - have);
    }
    size_t di = 0;
    int veto_budget = max_attempts_;
    for (auto& [receiver, need] : receivers) {
      while (need > 0) {
        while (di < donors.size() && donors[di].second == 0) ++di;
        if (di >= donors.size()) break;
        auto& [donor, excess] = donors[di];
        const auto cit = st.children.find(donor);
        if (cit == st.children.end() || cit->second.empty()) {
          excess = 0;
          continue;
        }
        // Pick a child of the donor, trying alternatives on veto.
        const auto& kids = cit->second;
        const TupleId moved = kids[static_cast<size_t>(
            ctx->rng()->UniformInt(0, static_cast<int64_t>(kids.size()) - 1))];
        Modification mod = Modification::ReplaceValues(
            child.name(), {moved}, {edge.fk_col},
            {Value(static_cast<int64_t>(receiver))});
        Status s = ctx->TryApply(mod);
        if (s.IsValidationFailed()) {
          if (veto_budget-- > 0) continue;
          s = ctx->ForceApply(mod);
        }
        ASPECT_RETURN_NOT_OK(s);
        --need;
        --excess;
      }
    }
  }
  return Status::OK();
}

Status DegreeDistributionTool::SaveTarget(std::ostream* out) const {
  *out << "degree " << edges_.size() << "\n";
  for (size_t e = 0; e < edges_.size(); ++e) {
    *out << "edge " << target_parents_[e] << "\n";
    target_[e].Write(out);
  }
  return Status::OK();
}

Status DegreeDistributionTool::LoadTarget(std::istream* in) {
  std::string tag;
  size_t n = 0;
  if (!(*in >> tag >> n) || tag != "degree" || n != edges_.size()) {
    return Status::IoError("degree: bad target header");
  }
  for (size_t e = 0; e < n; ++e) {
    if (!(*in >> tag >> target_parents_[e]) || tag != "edge") {
      return Status::IoError("degree: bad edge header");
    }
    ASPECT_ASSIGN_OR_RETURN(target_[e], FrequencyDistribution::Read(in, 1));
  }
  return Status::OK();
}

}  // namespace aspect
