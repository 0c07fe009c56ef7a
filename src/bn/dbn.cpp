#include "bn/dbn.h"

#include <cassert>
#include <stdexcept>

namespace drivefi::bn {

void DbnTemplate::add_variable(const std::string& name) {
  for (const auto& v : variables_)
    if (v == name) throw std::invalid_argument("duplicate DBN variable: " + name);
  variables_.push_back(name);
}

void DbnTemplate::add_intra_edge(const std::string& parent,
                                 const std::string& child) {
  intra_edges_.emplace_back(parent, child);
}

void DbnTemplate::add_inter_edge(const std::string& parent,
                                 const std::string& child) {
  inter_edges_.emplace_back(parent, child);
}

std::string DbnTemplate::slice_name(const std::string& variable, int slice) {
  return variable + "@" + std::to_string(slice);
}

std::vector<NodeSpec> DbnTemplate::unrolled_specs(int slices) const {
  assert(slices >= 1);
  std::vector<NodeSpec> specs;
  specs.reserve(variables_.size() * static_cast<std::size_t>(slices));
  for (int t = 0; t < slices; ++t) {
    for (const auto& var : variables_) {
      NodeSpec spec;
      spec.name = slice_name(var, t);
      for (const auto& [p, c] : intra_edges_)
        if (c == var) spec.parents.push_back(slice_name(p, t));
      if (t > 0)
        for (const auto& [p, c] : inter_edges_)
          if (c == var) spec.parents.push_back(slice_name(p, t - 1));
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

}  // namespace drivefi::bn
