#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <sstream>

#include "core/fault_model.h"
#include "core/result_store.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace drivefi::core {

namespace {

// Per-thread scene-log storage, recycled across the runs a campaign
// worker executes so the replay hot loop allocates nothing after the
// first run on each thread warms the buffer up.
thread_local std::vector<ads::SceneRecord> t_scene_scratch;

// A stride of 0 with forking on would record no checkpoints yet claim to
// fork; normalize it to per-scene checkpoints up front so options(),
// forking_enabled(), and the golden suite all agree.
ExperimentOptions normalize(ExperimentOptions options) {
  if (options.fork_replays && options.checkpoint_stride == 0)
    options.checkpoint_stride = 1;
  return options;
}

}  // namespace

Experiment::Experiment(std::vector<sim::Scenario> scenarios,
                       ads::PipelineConfig pipeline_config,
                       ClassifierConfig classifier_config,
                       ExperimentOptions options)
    : scenarios_(std::move(scenarios)),
      pipeline_config_(pipeline_config),
      classifier_config_(classifier_config),
      options_(normalize(options)),
      goldens_(run_golden_suite(
          scenarios_, pipeline_config_,
          options_.fork_replays ? options_.checkpoint_stride : 0)) {}

double Experiment::mean_run_wall_seconds() const {
  if (goldens_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& trace : goldens_) total += trace.wall_seconds;
  return total / static_cast<double>(goldens_.size());
}

double Experiment::median_run_wall_seconds() const {
  if (goldens_.empty()) return 0.0;
  std::vector<double> walls;
  walls.reserve(goldens_.size());
  for (const auto& trace : goldens_) walls.push_back(trace.wall_seconds);
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  return n % 2 == 1 ? walls[n / 2]
                    : 0.5 * (walls[n / 2 - 1] + walls[n / 2]);
}

double Experiment::mean_forked_run_wall_seconds() const {
  const std::uint64_t runs = forked_runs_.load(std::memory_order_relaxed);
  if (runs == 0) return 0.0;
  const std::uint64_t nanos =
      forked_wall_nanos_.load(std::memory_order_relaxed);
  return static_cast<double>(nanos) * 1e-9 / static_cast<double>(runs);
}

CampaignStats Experiment::run(const FaultModel& model,
                              const std::vector<ResultSink*>& sinks) const {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = model.run_count();

  CampaignMeta meta;
  meta.model_name = model.name();
  meta.planned_runs = n;
  for (ResultSink* sink : sinks) sink->begin(meta);
  // Model-specific campaign artifacts (e.g. the Bayesian selection behind
  // a selected-fault replay) land between the header and the first record.
  for (ResultSink* sink : sinks) model.describe(*sink);

  CampaignStats stats;
  stats.records.reserve(n);
  const std::function<void(InjectionRecord&&)> consume =
      [&](InjectionRecord&& record) {
        stats.add(record);
        for (ResultSink* sink : sinks) sink->consume(record);
      };
  const ParallelExecutor executor(options_.executor);
  executor.run_ordered<InjectionRecord>(
      n, [&](std::size_t i) { return execute(model.spec(i, *this)); },
      consume);

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (ResultSink* sink : sinks) sink->finish(stats);
  return stats;
}

CampaignStats Experiment::run_shard(const FaultModel& model,
                                    ShardStore& store,
                                    const std::vector<ResultSink*>& sinks) const {
  const CampaignManifest& manifest = store.manifest();
  // This shard's residue class, minus what the store already holds -- the
  // resume semantics fall out of the subtraction: a fresh store yields the
  // whole class, a complete store yields nothing.
  std::vector<std::size_t> missing;
  for (std::size_t r = manifest.shard_index; r < manifest.planned_runs;
       r += manifest.shard_count)
    if (!store.contains(r)) missing.push_back(r);
  return run_indices(model, missing, &store, sinks);
}

CampaignStats Experiment::run_indices(
    const FaultModel& model, const std::vector<std::size_t>& run_indices,
    ShardStore* store, const std::vector<ResultSink*>& sinks) const {
  const auto start = std::chrono::steady_clock::now();
  if (store != nullptr) {
    // The store's manifest must describe THIS experiment and model, not
    // just agree on the run count -- otherwise records produced under a
    // different seed/corpus/config would be durably stored (and later
    // merged) under another campaign's identity. Same comparison the store
    // itself applies when resuming; shard coordinates and provenance
    // spelling are the caller's business.
    const std::string reason =
        make_manifest(*this, model, store->manifest().scenario_spec)
            .mismatch_reason(store->manifest());
    if (!reason.empty())
      throw std::invalid_argument(
          "run_indices: store manifest does not describe this campaign: " +
          reason);
  }
  // Delivery happens in ascending run-index order whatever order the
  // caller handed us (a lease reclaimed from a dead worker arrives
  // front-loaded with the oldest work).
  std::vector<std::size_t> ordered = run_indices;
  std::sort(ordered.begin(), ordered.end());
  for (const std::size_t r : ordered)
    if (r >= model.run_count())
      throw std::invalid_argument(
          "run_indices: run_index " + std::to_string(r) +
          " is outside the campaign (run_count " +
          std::to_string(model.run_count()) + ")");

  CampaignMeta meta;
  meta.model_name = model.name();
  meta.planned_runs = ordered.size();
  for (ResultSink* sink : sinks) sink->begin(meta);
  for (ResultSink* sink : sinks) model.describe(*sink);

  CampaignStats stats;
  stats.records.reserve(ordered.size());
  const std::function<void(InjectionRecord&&)> consume =
      [&](InjectionRecord&& record) {
        // A re-granted lease can overlap records an earlier sitting of the
        // same store already holds; re-execution is deterministic, so the
        // fresh copy is identical and only the append is skipped.
        if (store != nullptr && !store->contains(record.run_index))
          store->append(record);
        stats.add(record);
        for (ResultSink* sink : sinks) sink->consume(record);
      };
  const ParallelExecutor executor(options_.executor);
  executor.run_ordered<InjectionRecord>(
      ordered.size(),
      [&](std::size_t i) { return execute(model.spec(ordered[i], *this)); },
      consume);

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (ResultSink* sink : sinks) sink->finish(stats);
  return stats;
}

InjectionRecord Experiment::execute(const RunSpec& spec) const {
  InjectionRecord record;
  record.run_index = spec.run_index;
  record.description = spec.description;

  if (spec.kind == RunSpec::Kind::kValue) {
    const RunResult result = replay_value_fault(spec.fault, spec.hold_seconds);
    if (record.description.empty()) {
      std::ostringstream desc;
      desc << scenarios_.at(spec.fault.scenario_index).name
           << " t=" << spec.fault.inject_time << " " << spec.fault.target
           << "=" << spec.fault.value;
      record.description = desc.str();
    }
    record.scenario_index = spec.fault.scenario_index;
    record.scene_index = result.outcome == Outcome::kHazard
                             ? result.hazard_scene_index
                             : spec.fault.scene_index;
    record.outcome = result.outcome;
    record.min_delta_lon = result.min_delta_lon;
    record.max_actuation_divergence = result.max_actuation_divergence;
    return record;
  }

  const RunResult result =
      replay_bit_fault(spec.scenario_index, spec.target, spec.bits,
                       spec.instruction_index, spec.fault_seed);
  record.scenario_index = spec.scenario_index;
  record.scene_index = result.hazard_scene_index;
  record.outcome = result.outcome;
  record.min_delta_lon = result.min_delta_lon;
  record.max_actuation_divergence = result.max_actuation_divergence;
  return record;
}

RunResult Experiment::run_replay(const sim::Scenario& scenario,
                                 const GoldenTrace& golden,
                                 ads::AdsPipeline& pipeline,
                                 const ads::PipelineSnapshot* fork_from) const {
  DFI_SPAN("replay");
  const bool fork = forking_enabled() && golden.checkpoint_stride > 0;
  const auto start = std::chrono::steady_clock::now();

  // Recycle this worker thread's scene storage and pre-size it: the
  // replay loop below must never touch the allocator.
  pipeline.adopt_scene_log(std::move(t_scene_scratch));
  const std::size_t expected =
      expected_scene_records(scenario.duration, pipeline_config_);
  pipeline.reserve_scenes(std::max(expected, golden.scenes.size()));
  [[maybe_unused]] const std::size_t reserved_capacity =
      pipeline.scenes().capacity();

  if (fork && fork_from != nullptr) {
    // Fork: resume from the golden checkpoint instead of re-simulating
    // the bit-identical prefix (same noise seed, fault still unarmed).
    pipeline.restore(*fork_from);
    pipeline.preload_scene_prefix(golden.scenes, fork_from->scene_index + 1);
  }

  const auto total_ticks = static_cast<std::uint64_t>(
      std::llround(scenario.duration * pipeline_config_.base_hz));
  bool spliced = false;
  while (pipeline.tick() < total_ticks) {
    const std::size_t scenes_before = pipeline.scenes().size();
    pipeline.step();
    if (!fork || spliced || pipeline.scenes().size() == scenes_before)
      continue;

    // A scene frame just closed. If the fault window is over and the
    // faulty state is bit-equal to the golden checkpoint at this scene,
    // every remaining tick would replay the golden run: splice its tail
    // instead of simulating it (this also decides kMasked exactly and
    // early: a spliced run can never diverge later). A match at any scene
    // implies a match at every later one, so the stride moves only where
    // the splice lands, never the record.
    const std::size_t scene = pipeline.scenes().size() - 1;
    if (scene % golden.checkpoint_stride != 0) continue;
    const std::size_t k = scene / golden.checkpoint_stride;
    if (k >= golden.checkpoints.size()) continue;
    if (!pipeline.faults_quiescent()) continue;
    if (!pipeline.state_matches(golden.checkpoints[k])) continue;
    pipeline.splice_golden_tail(golden.scenes, scene + 1);
    spliced = true;
    break;
  }
  assert(pipeline.scenes().capacity() == reserved_capacity &&
         "replay scene log reallocated despite reserve");

  const RunResult result =
      classify_run(golden.scenes, pipeline.scenes(),
                   pipeline.any_module_hung(), classifier_config_);
  t_scene_scratch = pipeline.release_scenes();

  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  // Function-local statics: one registry lookup ever, then lock-free
  // relaxed-atomic updates on the per-run hot path.
  static obs::Histogram& run_wall_hist =
      obs::metrics().histogram("experiment.run_wall_seconds");
  static obs::Counter& forked_metric =
      obs::metrics().counter("experiment.replays_forked");
  static obs::Counter& full_metric =
      obs::metrics().counter("experiment.replays_full");
  static obs::Counter& spliced_metric =
      obs::metrics().counter("experiment.replays_spliced");
  run_wall_hist.observe(static_cast<double>(nanos) * 1e-9);
  if (fork) {
    forked_metric.add();
    forked_runs_.fetch_add(1, std::memory_order_relaxed);
    forked_wall_nanos_.fetch_add(static_cast<std::uint64_t>(nanos),
                                 std::memory_order_relaxed);
    if (spliced) {
      spliced_metric.add();
      spliced_runs_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    full_metric.add();
  }
  return result;
}

RunResult Experiment::replay_value_fault(const CandidateFault& fault,
                                         double hold_seconds) const {
  const sim::Scenario& scenario = scenarios_.at(fault.scenario_index);
  const GoldenTrace& golden = goldens_.at(fault.scenario_index);

  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, pipeline_config_);

  ads::ValueFault vf;
  vf.target = fault.target;
  vf.value = fault.value;
  vf.start_time = fault.inject_time;
  vf.hold_duration = hold_seconds;
  pipeline.arm_value_fault(vf);

  return run_replay(scenario, golden, pipeline,
                    golden.checkpoint_before_time(fault.inject_time));
}

RunResult Experiment::replay_bit_fault(std::size_t scenario_index,
                                       const std::string& target,
                                       unsigned bits,
                                       std::uint64_t instruction_index,
                                       std::uint64_t fault_seed) const {
  const sim::Scenario& scenario = scenarios_.at(scenario_index);
  const GoldenTrace& golden = goldens_.at(scenario_index);

  // The sensor-noise seed stays identical to the golden run so the
  // injected run is its exact counterfactual twin; only the bit-position
  // stream is per-run. Restoring a golden checkpoint leaves that per-run
  // stream untouched (PipelineSnapshot does not capture it).
  ads::PipelineConfig config = pipeline_config_;
  config.fault_seed = fault_seed;

  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, config);

  ads::BitFault bf;
  bf.target = target;
  bf.bits = bits;
  bf.instruction_index = instruction_index;
  pipeline.arm_bit_fault(bf);

  return run_replay(scenario, golden, pipeline,
                    golden.checkpoint_before_instruction(instruction_index));
}

}  // namespace drivefi::core
