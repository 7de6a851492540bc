// Registers the tools shipped with this repository into the global
// ToolRegistry - the "repository of tweaking tools" the paper's
// collaborative model is built around.
#include "aspect/registry.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "properties/simple.h"

namespace aspect {

void RegisterBuiltinTools() {
  ToolRegistry& registry = ToolRegistry::Global();
  registry.Register("linear", [](const Schema& schema) {
    return std::make_unique<LinearPropertyTool>(schema);
  });
  registry.Register("coappear", [](const Schema& schema) {
    return std::make_unique<CoappearPropertyTool>(schema);
  });
  registry.Register("pairwise", [](const Schema& schema) {
    return std::make_unique<PairwisePropertyTool>(schema);
  });
  registry.Register("tuple-count", [](const Schema& schema) {
    return std::make_unique<TupleCountTool>(schema);
  });
}

}  // namespace aspect
