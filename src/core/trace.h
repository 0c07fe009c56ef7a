/// \file
/// Bridges ADS scene logs to BN datasets. Golden (fault-free) traces are
/// the training data for the 3-TBN, exactly as the paper fits its model on
/// fault-free ADS executions. Golden runs additionally record pipeline
/// checkpoints at a configurable scene stride. Forked replays restore the
/// latest checkpoint strictly before their injection instead of
/// re-simulating the (bit-identical) prefix, and the checkpoints after it
/// are the states a reconverged replay splices the golden tail at.
#pragma once

#include <vector>

#include "ads/pipeline.h"
#include "bn/fit.h"
#include "sim/scenario.h"

namespace drivefi::core {

/// A golden run of one scenario: scene log plus bookkeeping.
struct GoldenTrace {
  std::size_t scenario_index = 0;
  std::string scenario_name;
  std::vector<ads::SceneRecord> scenes;
  double wall_seconds = 0.0;  // measured cost of the run (steady clock)

  /// Pipeline checkpoints captured every `checkpoint_stride` scenes
  /// (checkpoint k covers scene k * stride); empty when stride == 0.
  /// Stride is the memory/speed knob: stride 1 forks replays closest to
  /// their injection but stores a snapshot per scene.
  std::size_t checkpoint_stride = 0;
  std::vector<ads::PipelineSnapshot> checkpoints;

  /// Latest checkpoint strictly before `inject_time` (value faults apply
  /// from t >= inject_time on; a checkpoint taken at exactly that time
  /// could already sit past the first assertion). Null when none qualifies.
  const ads::PipelineSnapshot* checkpoint_before_time(double inject_time) const;
  /// Latest checkpoint strictly before the dynamic instruction trigger of
  /// a bit fault. Null when none qualifies.
  const ads::PipelineSnapshot* checkpoint_before_instruction(
      std::uint64_t instruction_index) const;
};

/// Runs the scenario fault-free and records all scenes, capturing a
/// checkpoint every `checkpoint_stride` scenes (0 = no checkpoints).
GoldenTrace run_golden(const sim::Scenario& scenario,
                       const ads::PipelineConfig& config,
                       std::size_t scenario_index = 0,
                       std::size_t checkpoint_stride = 0);

/// Runs all scenarios fault-free.
std::vector<GoldenTrace> run_golden_suite(
    const std::vector<sim::Scenario>& scenarios,
    const ads::PipelineConfig& config, std::size_t checkpoint_stride = 0);

/// Number of scene records a run of `duration` seconds produces (the scene
/// module fires on tick 0 and every base_hz/scene_hz ticks after).
std::size_t expected_scene_records(double duration,
                                   const ads::PipelineConfig& config);

/// Concatenated per-scene BN dataset over all traces. Only scenes with a
/// valid lead object (lead_gap >= 0) are kept when require_lead is set,
/// since lead_gap = -1 sentinel rows would poison the linear fit.
bn::Dataset traces_to_dataset(const std::vector<GoldenTrace>& traces,
                              bool require_lead = true);

}  // namespace drivefi::core
