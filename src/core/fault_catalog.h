/// \file
/// Fault catalog for the value-corruption fault model (paper fault model
/// (b)): every (scenario, scene, module-output variable, {min, max}) tuple
/// is one candidate fault. The paper's 98,400-fault list is exactly this
/// cross product over its scenario corpus; the catalog here computes ours
/// and the exhaustive-evaluation cost model behind the "615 days" number.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace drivefi::core {

enum class Extreme { kMin, kMax };

struct CandidateFault {
  std::size_t scenario_index = 0;
  std::size_t scene_index = 0;  // frame within the scenario at scene_hz
  double inject_time = 0.0;     // s
  std::string target;           // FaultRegistry name
  Extreme extreme = Extreme::kMax;
  double value = 0.0;           // corrupted value (target min or max)
};

struct FaultCatalog {
  std::vector<CandidateFault> faults;
  std::size_t scenario_count = 0;
  std::size_t scene_count = 0;
  std::size_t variable_count = 0;

  std::size_t size() const { return faults.size(); }
};

/// Target names + [min,max] ranges; decoupled from a live pipeline so the
/// catalog can be built without running anything.
struct TargetRange {
  std::string name;
  double min_value;
  double max_value;
};

/// The default injectable-variable list (mirrors AdsPipeline's registry).
std::vector<TargetRange> default_target_ranges();

/// Builds the full catalog over a scenario suite at the given scene rate.
FaultCatalog build_catalog(const std::vector<sim::Scenario>& scenarios,
                           const std::vector<TargetRange>& targets,
                           double scene_hz = 7.5);

}  // namespace drivefi::core
