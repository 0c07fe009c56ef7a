#include "runtime/fault_registry.h"

namespace drivefi::runtime {

void FaultRegistry::register_target(FaultTarget target) {
  targets_.push_back(std::move(target));
}

const FaultTarget* FaultRegistry::find(const std::string& name) const {
  for (const auto& t : targets_)
    if (t.name == name) return &t;
  return nullptr;
}

}  // namespace drivefi::runtime
