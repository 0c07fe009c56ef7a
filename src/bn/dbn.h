// Dynamic Bayesian network template and unrolling. The paper's model is a
// 3-Temporal Bayesian Network (3-TBN, Fig. 6): a per-slice ("intra")
// topology mirroring the ADS dataflow, plus "inter" edges from slice t-1
// to slice t, unrolled three times. This module expresses the template
// once and mechanically produces the unrolled node specs for fitting; the
// sliding-window training rows come from the golden scene logs
// (core::SafetyPredictor).
#pragma once

#include <string>
#include <vector>

#include "bn/fit.h"

namespace drivefi::bn {

class DbnTemplate {
 public:
  // Declaration order is the intra-slice topological order; a variable's
  // intra parents must be declared before it.
  void add_variable(const std::string& name);
  void add_intra_edge(const std::string& parent, const std::string& child);
  // Parent lives one slice earlier than child.
  void add_inter_edge(const std::string& parent, const std::string& child);

  const std::vector<std::string>& variables() const { return variables_; }

  // "v" at slice 2 -> "v@2".
  static std::string slice_name(const std::string& variable, int slice);

  // Node specs for a k-slice unrolled network, slice-0 inter-parents
  // dropped (slice 0 nodes keep only intra parents).
  std::vector<NodeSpec> unrolled_specs(int slices) const;

 private:
  std::vector<std::string> variables_;
  std::vector<std::pair<std::string, std::string>> intra_edges_;
  std::vector<std::pair<std::string, std::string>> inter_edges_;
};

}  // namespace drivefi::bn
