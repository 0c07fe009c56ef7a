// Shared pieces of the campaign benchmark: the workload table, seed
// derivation, campaign set-up and execution through the library's public
// API, the output checks, and the metric list a pass reports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/coordinator.h"
#include "core/campaign_stats.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/result_store.h"
#include "sim/scenario.h"
#include "spans.h"

namespace perfbench {

namespace coord = drivefi::coord;
namespace core = drivefi::core;
namespace sim = drivefi::sim;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";     ///< repository root (scenario files)
  std::string scratch = ".";  ///< directory for stores and traces
};

enum class Corpus { kBase, kParametric };
enum class ModelKind { kRandomValue, kBayesian };

/// One reference workload. Everything else is derived from the seed.
struct Workload {
  const char* name;
  Corpus corpus;
  ModelKind model;
  bool fleet;            ///< in-process coordinator + single-thread workers
  unsigned threads;      ///< executor threads, or fleet worker count
  std::size_t runs;      ///< random-value campaign size
  std::size_t replays;   ///< bayesian: replay the top N of F_crit
};

const Workload* find_workload(const std::string& name);
std::string workload_names();

/// Campaign and sensor-noise seeds, both derived from --seed.
struct Inputs {
  std::uint64_t campaign_seed = 0;
  std::uint64_t pipeline_seed = 0;
};
Inputs derive_inputs(std::uint64_t seed);

std::vector<sim::Scenario> load_corpus(const Workload& workload,
                                       const Args& args);
std::string corpus_spec(const Workload& workload);

core::ExperimentOptions experiment_options(const Workload& workload);
drivefi::ads::PipelineConfig pipeline_config(const Inputs& inputs);
core::BayesianCampaignConfig bayes_config(const Workload& workload);

/// A finished campaign: records in run-index order and its wall time.
struct CampaignRun {
  core::CampaignStats stats;
  double seconds = 0.0;
  coord::FleetStats fleet;  ///< fleet workloads only
};

/// Runs one campaign of `model` into `store`, which must be empty.
/// Non-fleet workloads run Experiment::run_shard into it; the fleet
/// workload serves it as the coordinator's master and reads the merged
/// campaign back with merge_shards. Fleet workers keep their local stores
/// in `scratch`.
CampaignRun run_campaign(const Workload& workload,
                         const core::Experiment& experiment,
                         const core::FaultModel& model,
                         core::ShardStore& store, const std::string& scratch);

/// The same campaign in this process without coord/ or net/: run_indices
/// over `threads` interleaved index slices, reassembled in run-index order.
core::CampaignStats run_single_process(const core::Experiment& experiment,
                                       const core::FaultModel& model,
                                       unsigned threads);

/// Short identity of a campaign's records: FNV-1a64 of its fingerprint.
std::string fingerprint_id(const core::CampaignStats& stats);

/// Records of `a` and `b` that differ (bit-exact), plus any missing ones.
std::size_t record_mismatches(const std::vector<core::InjectionRecord>& a,
                              const std::vector<core::InjectionRecord>& b);

/// Operation accounting for the result line.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  /// Counts `operations` attempted of which `bad` failed; names the check
  /// in the report when any did.
  void record(const std::string& what, std::size_t operations, std::size_t bad);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> values);
double seconds_since(Clock::time_point start);
double peak_rss_mb();

/// End-to-end pass (spans off): prints its metrics, returns them.
std::vector<Metric> run_timed(const Workload& workload, const Args& args,
                              Checks& checks);

/// Per-layer pass: the traced pass plus the same pass with spans off.
std::vector<Metric> run_traced(const Workload& workload, const Args& args,
                               Checks& checks);

}  // namespace perfbench
