// ToolRegistry: the collaborative repository at the heart of ASPECT's
// pitch (Sec. I-B). Developers register factories for their tweaking
// tools under a name; users compose scaled datasets by picking tools
// from the repository by name.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aspect/property_tool.h"
#include "common/result.h"

namespace aspect {

class ToolRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<PropertyTool>(const Schema& schema)>;

  /// The process-wide repository.
  static ToolRegistry& Global();

  /// Registers a factory under `name`; replaces an existing entry.
  void Register(const std::string& name, Factory factory);

  /// Instantiates the named tool for a schema.
  Result<std::unique_ptr<PropertyTool>> Make(const std::string& name,
                                             const Schema& schema) const;

  /// Names of all registered tools, sorted.
  std::vector<std::string> Names() const;

  bool Contains(const std::string& name) const {
    return factories_.count(name) > 0;
  }

 private:
  std::map<std::string, Factory> factories_;
};

/// Registers the tools shipped with this repository (linear, coappear,
/// pairwise, tuple-count) into the global registry. Idempotent.
void RegisterBuiltinTools();

}  // namespace aspect
