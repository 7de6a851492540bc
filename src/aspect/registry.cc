#include "aspect/registry.h"

#include "common/string_util.h"

namespace aspect {

ToolRegistry& ToolRegistry::Global() {
  static ToolRegistry* registry = new ToolRegistry();
  return *registry;
}

void ToolRegistry::Register(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

Result<std::unique_ptr<PropertyTool>> ToolRegistry::Make(
    const std::string& name, const Schema& schema) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::KeyError(
        StrFormat("unknown tool '%s' (registered: %s)", name.c_str(),
                  Join(Names(), ", ").c_str()));
  }
  return it->second(schema);
}

std::vector<std::string> ToolRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, f] : factories_) names.push_back(name);
  return names;
}

}  // namespace aspect
