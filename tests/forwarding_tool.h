// Test helper: a PropertyTool that forwards every call to a tool it
// owns. The inner tool registers itself as the database listener when
// bound, so the wrapper's own OnApplied is never called. Tests derive
// from it to observe or alter the calls the coordinator makes.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "aspect/property_tool.h"

namespace aspect {

class ForwardingTool : public PropertyTool {
 public:
  explicit ForwardingTool(std::unique_ptr<PropertyTool> inner)
      : inner_(std::move(inner)) {}

  PropertyTool& inner() { return *inner_; }
  const PropertyTool& inner() const { return *inner_; }

  std::string name() const override { return inner_->name(); }
  Status SetTargetFromDataset(const Database& truth) override {
    return inner_->SetTargetFromDataset(truth);
  }
  Status RepairTarget() override { return inner_->RepairTarget(); }
  Status CheckTargetFeasible() const override {
    return inner_->CheckTargetFeasible();
  }
  Status Bind(Database* db) override { return inner_->Bind(db); }
  void Unbind() override { inner_->Unbind(); }
  bool bound() const override { return inner_->bound(); }
  void AppendListeners(std::vector<ModificationListener*>* out) override {
    inner_->AppendListeners(out);
  }
  double Error() const override { return inner_->Error(); }
  double ValidationPenalty(const Modification& mod) const override {
    return inner_->ValidationPenalty(mod);
  }
  double ValidationPenaltyBatch(std::span<const Modification> mods,
                                double veto_cap) const override {
    return inner_->ValidationPenaltyBatch(mods, veto_cap);
  }
  using PropertyTool::ValidationPenaltyBatch;
  AccessScope DeclaredScope() const override {
    return inner_->DeclaredScope();
  }
  Status Tweak(TweakContext* ctx) override { return inner_->Tweak(ctx); }
  void OnApplied(const Modification&, const std::vector<Value>&,
                 TupleId) override {}

 private:
  std::unique_ptr<PropertyTool> inner_;
};

}  // namespace aspect
