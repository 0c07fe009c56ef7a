/// \file
/// The unified campaign engine. One Experiment owns a scenario suite, an
/// ADS configuration, and eagerly precomputed golden traces; every fault
/// model (random bit flips, random value corruption, Bayesian-selected
/// replays) runs through the same loop: FaultModel yields RunSpecs, a
/// ParallelExecutor replays them against the goldens concurrently, and the
/// classified records stream to ResultSinks in run-index order.
///
/// Replays fork from the golden twin instead of re-simulating it: golden
/// runs checkpoint the full pipeline state every `checkpoint_stride`
/// scenes, a replay restores the nearest checkpoint before its injection,
/// and once the fault window has passed and the faulty state compares
/// bit-equal to the golden checkpoint at the same scene the golden tail is
/// spliced in instead of simulated. Forked replays are bit-identical to
/// full replays -- records, stats, and JSONL output are byte-equal with
/// forking on or off, at any thread count and any stride (enforced by
/// tests/determinism_test.cpp).
///
/// Determinism: per-run randomness derives from (campaign seed, run index)
/// via splitmix64, golden traces are computed once up front, and every
/// replay constructs its own World/AdsPipeline -- so Experiment is const
/// and re-entrant during a campaign, and the resulting CampaignStats are
/// bit-identical at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign_stats.h"
#include "core/executor.h"
#include "core/fault_catalog.h"
#include "core/outcome.h"
#include "core/result_sink.h"
#include "core/trace.h"

namespace drivefi::core {

class FaultModel;
struct RunSpec;
class ShardStore;

struct ExperimentOptions {
  /// How many scene periods a TARGETED value fault is held (stuck-at)
  /// during replay; keep equal to SafetyPredictor::horizon() so replays
  /// validate exactly what the selector predicted. Random-campaign faults
  /// instead hold for one control period (transient, the paper's random
  /// model).
  double hold_scenes = 2.0;
  ExecutorConfig executor;

  /// Fork-from-golden replay. `checkpoint_stride` (scenes between golden
  /// checkpoints) is the memory/speed knob: stride 1 forks closest to the
  /// injection but stores one full PipelineSnapshot per scene; larger
  /// strides re-simulate up to stride-1 scenes of prefix per replay and
  /// delay the earliest possible golden-tail splice, but divide checkpoint
  /// memory by the stride. Forking never changes results -- only cost;
  /// full replay (`fork_replays = false`) is the oracle the determinism
  /// tests compare every stride against.
  bool fork_replays = true;
  std::size_t checkpoint_stride = 4;
};

class Experiment {
 public:
  /// Runs the golden suite eagerly: after construction the engine is
  /// immutable and safe to share across worker threads.
  Experiment(std::vector<sim::Scenario> scenarios,
             ads::PipelineConfig pipeline_config,
             ClassifierConfig classifier_config = {},
             ExperimentOptions options = {});

  const std::vector<sim::Scenario>& scenarios() const { return scenarios_; }
  const std::vector<GoldenTrace>& goldens() const { return goldens_; }
  const ads::PipelineConfig& pipeline_config() const { return pipeline_config_; }
  const ClassifierConfig& classifier_config() const { return classifier_config_; }
  const ExperimentOptions& options() const { return options_; }
  bool forking_enabled() const {
    return options_.fork_replays && options_.checkpoint_stride > 0;
  }

  double hold_scenes() const { return options_.hold_scenes; }
  double targeted_hold_seconds() const {
    return options_.hold_scenes / pipeline_config_.scene_hz;
  }
  double transient_hold_seconds() const {
    return 1.0 / pipeline_config_.control_hz;
  }

  /// Wall-clock cost of one FULL simulation run, measured from the golden
  /// runs on the steady clock (used by the E1 exhaustive-cost model). The
  /// median is robust to first-run warmup effects.
  double mean_run_wall_seconds() const;
  double median_run_wall_seconds() const;

  /// Wall-clock cost of one FORKED replay, measured over every replay this
  /// engine has executed with forking enabled (0 until the first such
  /// replay). The forked counterpart of mean_run_wall_seconds, so cost
  /// models can report both sides of the optimization.
  double mean_forked_run_wall_seconds() const;
  std::size_t forked_runs_executed() const {
    return forked_runs_.load(std::memory_order_relaxed);
  }
  /// How many of those replays ended in a golden-tail splice (the faulty
  /// state reconverged bit-exactly before the scenario ended).
  std::size_t spliced_runs_executed() const {
    return spliced_runs_.load(std::memory_order_relaxed);
  }

  /// Execute one campaign: every spec of the model, replayed in parallel
  /// on the executor and delivered to the sinks in run-index order.
  /// Returns the aggregate stats.
  CampaignStats run(const FaultModel& model,
                    const std::vector<ResultSink*>& sinks = {}) const;

  /// Execute one shard of a campaign: the deterministic run-index subset
  /// {r : r % store.manifest().shard_count == shard_index}, minus the
  /// indices already in the store (so a second call after a crash resumes
  /// exactly the missing work, and a call on a complete store is a no-op).
  /// Each record is appended to the durable store -- and delivered to the
  /// sinks -- in increasing run-index order. Because every run's seed
  /// derives from (campaign seed, run_index), shard results are
  /// bit-identical to the same indices of the single-process campaign;
  /// merge_shards (core/result_store.h) reassembles them. Returns stats
  /// over the runs executed by THIS call only. Throws std::invalid_argument
  /// when the store's planned_runs disagrees with model.run_count().
  CampaignStats run_shard(const FaultModel& model, ShardStore& store,
                          const std::vector<ResultSink*>& sinks = {}) const;

  /// Execute an explicit list of run indices -- the lease-execution path
  /// the fleet worker (coord/worker.h) uses, and what run_shard reduces to
  /// after subtracting the store. Indices may be any subset of
  /// [0, model.run_count()) in any order; records are produced in parallel
  /// and delivered to the store and sinks in ASCENDING run-index order.
  /// When `store` is non-null each record is appended durably -- unless the
  /// store already holds that index (a re-granted lease overlapping an
  /// earlier sitting), in which case the re-executed record is delivered to
  /// the sinks only; determinism makes the two copies identical. Throws
  /// std::invalid_argument on an index outside the campaign or a store
  /// whose manifest does not describe this experiment+model.
  CampaignStats run_indices(const FaultModel& model,
                            const std::vector<std::size_t>& run_indices,
                            ShardStore* store,
                            const std::vector<ResultSink*>& sinks = {}) const;

  /// Execute a single RunSpec and classify it (const, re-entrant; this is
  /// what campaign workers call).
  InjectionRecord execute(const RunSpec& spec) const;

  /// One-off replays for case studies and tests.
  RunResult replay_value_fault(const CandidateFault& fault,
                               double hold_seconds) const;
  RunResult replay_bit_fault(std::size_t scenario_index,
                             const std::string& target, unsigned bits,
                             std::uint64_t instruction_index,
                             std::uint64_t fault_seed) const;

 private:
  /// Shared replay driver: optionally restores `fork_from` (a golden
  /// checkpoint), simulates the remainder, and splices the golden tail as
  /// soon as the faulty state reconverges bit-exactly with a later golden
  /// checkpoint. The scene log lives in a recycled per-thread scratch
  /// buffer and never reallocates.
  RunResult run_replay(const sim::Scenario& scenario, const GoldenTrace& golden,
                       ads::AdsPipeline& pipeline,
                       const ads::PipelineSnapshot* fork_from) const;

  std::vector<sim::Scenario> scenarios_;
  ads::PipelineConfig pipeline_config_;
  ClassifierConfig classifier_config_;
  ExperimentOptions options_;
  std::vector<GoldenTrace> goldens_;

  /// Forked-replay cost accounting (relaxed atomics: counters only, never
  /// part of campaign results, so they cannot perturb determinism).
  mutable std::atomic<std::uint64_t> forked_runs_{0};
  mutable std::atomic<std::uint64_t> forked_wall_nanos_{0};
  mutable std::atomic<std::uint64_t> spliced_runs_{0};
};

}  // namespace drivefi::core
