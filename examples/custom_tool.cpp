// Custom tool: how a developer contributes a new tweaking tool to the
// ASPECT repository (the collaborative model of Sec. I-B / III-C).
//
// The example implements GenderRatioTool from scratch: it enforces a
// target fraction of male users - the user-input Target Generator mode
// from the paper ("the user may want to specify the fraction of males
// in D~"). All five components are spelled out:
//
//   Target Generator     : SetTargetFraction / SetTargetFromDataset
//   Property Evaluator   : Error()
//   Tweaking Algorithm   : Tweak()
//   Property Validator   : ValidationPenalty()
//   Statistics Updater   : OnApplied()
//
// The tool is then registered and composed with the built-in pairwise
// tool; the coordinator routes every proposal through both validators.
//
// Build & run:  ./build/examples/custom_tool
#include <cmath>
#include <cstdio>
#include <vector>

#include "aspect/coordinator.h"
#include "aspect/registry.h"
#include "aspect/tweak_context.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

using namespace aspect;

namespace {

class GenderRatioTool : public PropertyTool {
 public:
  explicit GenderRatioTool(const Schema& schema) {
    user_table_ = schema.user_table;
  }

  std::string name() const override { return "gender-ratio"; }

  // Lets Coordinator::CompareOrders run candidate orders side by side.
  std::unique_ptr<PropertyTool> Clone() const override {
    return bound() ? nullptr : std::make_unique<GenderRatioTool>(*this);
  }

  // ---- Target Generator ----
  void SetTargetFraction(double males) { target_fraction_ = males; }
  Status SetTargetFromDataset(const Database& truth) override {
    const Table* users = truth.FindTable(user_table_);
    if (users == nullptr) return Status::KeyError("no user table");
    const int col = users->ColumnIndex("gender");
    int64_t males = 0;
    users->ForEachLive([&](TupleId t) {
      males += users->column(col).GetInt(t) == 0;
    });
    target_fraction_ = static_cast<double>(males) /
                       static_cast<double>(users->NumTuples());
    return Status::OK();
  }
  Status RepairTarget() override { return Status::OK(); }
  Status CheckTargetFeasible() const override {
    return target_fraction_ >= 0 && target_fraction_ <= 1
               ? Status::OK()
               : Status::Infeasible("fraction outside [0,1]");
  }

  // ---- Binding + Statistics Updater ----
  Status Bind(Database* db) override {
    db_ = db;
    const Table* users = db_->FindTable(user_table_);
    gender_col_ = users->ColumnIndex("gender");
    males_ = 0;
    users->ForEachLive([&](TupleId t) {
      males_ += users->column(gender_col_).GetInt(t) == 0;
    });
    db_->AddListener(this);
    return Status::OK();
  }
  void Unbind() override {
    if (db_ != nullptr) db_->RemoveListener(this);
    db_ = nullptr;
  }
  bool bound() const override { return db_ != nullptr; }

  void OnApplied(const Modification& mod,
                 const std::vector<Value>& old_values,
                 TupleId new_tuple) override {
    (void)new_tuple;
    if (mod.table != user_table_ ||
        mod.kind != OpKind::kReplaceValues) {
      return;
    }
    for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
      if (mod.cols[cj] != gender_col_) continue;
      for (size_t tj = 0; tj < mod.tuples.size(); ++tj) {
        males_ -= old_values[tj * mod.cols.size() + cj].int64() == 0;
        males_ += mod.values[cj].int64() == 0;
      }
    }
  }

  // ---- Property Evaluator ----
  double Error() const override {
    const double n = static_cast<double>(
        db_->FindTable(user_table_)->NumTuples());
    return std::fabs(static_cast<double>(males_) / n - target_fraction_);
  }

  // ---- Property Validator ----
  double ValidationPenalty(const Modification& mod) const override {
    if (mod.table != user_table_ ||
        mod.kind != OpKind::kReplaceValues) {
      return 0.0;
    }
    int64_t delta = 0;
    const Table* users = db_->FindTable(user_table_);
    for (size_t cj = 0; cj < mod.cols.size(); ++cj) {
      if (mod.cols[cj] != gender_col_) continue;
      for (const TupleId t : mod.tuples) {
        delta -= users->column(gender_col_).GetInt(t) == 0;
        delta += mod.values[cj].int64() == 0;
      }
    }
    if (delta == 0) return 0.0;
    const double n = static_cast<double>(users->NumTuples());
    const double now = std::fabs(static_cast<double>(males_) / n -
                                 target_fraction_);
    const double then = std::fabs(
        static_cast<double>(males_ + delta) / n - target_fraction_);
    return then - now;
  }

  // ---- Tweaking Algorithm ----
  // The users whose gender must flip are a search index: only this
  // Tweak reads them, so they are gathered here and dropped on return.
  // Bind keeps just the count that Error and ValidationPenalty read,
  // which is all OnApplied has to maintain while other tools tweak.
  Status Tweak(TweakContext* ctx) override {
    Table* users = db_->FindTable(user_table_);
    const int64_t n = users->NumTuples();
    const int64_t want = static_cast<int64_t>(
        std::llround(target_fraction_ * static_cast<double>(n)));
    const int64_t from = males_ < want ? 1 : 0;
    std::vector<TupleId> candidates;
    users->ForEachLive([&](TupleId t) {
      if (users->column(gender_col_).GetInt(t) == from) {
        candidates.push_back(t);
      }
    });
    while (males_ != want && !candidates.empty()) {
      const auto i = static_cast<size_t>(ctx->rng()->UniformInt(
          0, static_cast<int64_t>(candidates.size()) - 1));
      const TupleId t = candidates[i];
      candidates[i] = candidates.back();
      candidates.pop_back();
      // Propose through the context so other tools can vote; a vetoed
      // user keeps its gender and leaves the candidates.
      Status st = ctx->TryApply(Modification::ReplaceValues(
          user_table_, {t}, {gender_col_}, {Value(1 - from)}));
      if (st.IsValidationFailed()) continue;
      ASPECT_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

 private:
  std::string user_table_;
  Database* db_ = nullptr;
  int gender_col_ = -1;
  int64_t males_ = 0;
  double target_fraction_ = 0.5;
};

}  // namespace

int main() {
  auto gen = GenerateDataset(DoubanMusicLike(0.5), 11).ValueOrAbort();
  auto truth = gen.Materialize(4).ValueOrAbort();
  RandScaler scaler;
  auto scaled = scaler
                    .Scale(*gen.Materialize(2).ValueOrAbort(),
                           gen.SnapshotSizes(4), 3)
                    .ValueOrAbort();

  // Contribute the new tool to the repository, like any developer
  // would, then compose it with a built-in tool by name.
  RegisterBuiltinTools();
  ToolRegistry::Global().Register("gender-ratio", [](const Schema& s) {
    auto tool = std::make_unique<GenderRatioTool>(s);
    tool->SetTargetFraction(0.70);  // user-input target: 70% male
    return tool;
  });

  Coordinator coordinator;
  coordinator.AddTool(ToolRegistry::Global()
                          .Make("gender-ratio", truth->schema())
                          .ValueOrAbort());
  coordinator.AddTool(ToolRegistry::Global()
                          .Make("pairwise", truth->schema())
                          .ValueOrAbort());
  coordinator.tool(1)->SetTargetFromDataset(*truth).Check();

  CoordinatorOptions options;
  options.seed = 5;
  const RunReport report =
      coordinator.Run(scaled.get(), {0, 1}, options).ValueOrAbort();
  std::printf("%s\n", report.ToString().c_str());
  std::printf("gender-ratio error after run: %.6f (target fraction "
              "0.70 enforced)\n",
              report.final_errors[0]);
  return 0;
}
