#include "core/fault_catalog.h"

namespace drivefi::core {

std::vector<TargetRange> default_target_ranges() {
  // Keep in sync with AdsPipeline::register_fault_targets().
  return {
      {"gps.x", 0.0, 2000.0},
      {"gps.y", -5.0, 12.0},
      {"gps.heading", -0.6, 0.6},
      {"imu.speed", 0.0, 45.0},
      {"imu.accel", -10.0, 10.0},
      {"imu.yaw_rate", -1.0, 1.0},
      {"localization.x", 0.0, 2000.0},
      {"localization.y", -5.0, 12.0},
      {"localization.theta", -0.6, 0.6},
      {"localization.v", 0.0, 45.0},
      {"perception.range", 15.0, 250.0},
      {"world_model.lead_gap", 0.0, 250.0},
      {"world_model.lead_rel_speed", -40.0, 40.0},
      {"plan.target_accel", -6.0, 2.5},
      {"plan.target_steer", -0.3, 0.3},
      {"plan.target_speed", 0.0, 45.0},
      {"control.throttle", 0.0, 1.0},
      {"control.brake", 0.0, 1.0},
      {"control.steering", -0.55, 0.55},
  };
}

FaultCatalog build_catalog(const std::vector<sim::Scenario>& scenarios,
                           const std::vector<TargetRange>& targets,
                           double scene_hz) {
  FaultCatalog catalog;
  catalog.scenario_count = scenarios.size();
  catalog.variable_count = targets.size();

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const std::size_t frames = sim::scene_count(scenarios[s], scene_hz);
    catalog.scene_count += frames;
    for (std::size_t frame = 0; frame < frames; ++frame) {
      const double t = static_cast<double>(frame) / scene_hz;
      for (const auto& target : targets) {
        for (const Extreme extreme : {Extreme::kMin, Extreme::kMax}) {
          CandidateFault fault;
          fault.scenario_index = s;
          fault.scene_index = frame;
          fault.inject_time = t;
          fault.target = target.name;
          fault.extreme = extreme;
          fault.value = extreme == Extreme::kMin ? target.min_value
                                                 : target.max_value;
          catalog.faults.push_back(std::move(fault));
        }
      }
    }
  }
  return catalog;
}

}  // namespace drivefi::core
