// Registry of injectable scalar state. Every named target is one ADS
// variable the paper's fault models can corrupt: module outputs (fault
// model b: min/max corruption) and raw words for the hardware injector
// (fault model a: bit flips). Modules register lenses (get/set closures)
// over their freshest channel message.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace drivefi::runtime {

struct FaultTarget {
  std::string name;        // e.g. "control.throttle"
  std::string module;      // producing module, e.g. "control"
  double min_value = 0.0;  // documented valid range of the variable
  double max_value = 1.0;
  std::function<double()> get;
  std::function<void(double)> set;
};

class FaultRegistry {
 public:
  void register_target(FaultTarget target);

  std::size_t size() const { return targets_.size(); }
  const std::vector<FaultTarget>& targets() const { return targets_; }
  const FaultTarget* find(const std::string& name) const;

 private:
  std::vector<FaultTarget> targets_;
};

}  // namespace drivefi::runtime
