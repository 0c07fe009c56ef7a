#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "coord/worker.h"
#include "core/bayes_model.h"
#include "scenario/dsl.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Why each workload exists is recorded in BENCHMARK.json; the sizes here
// keep one campaign at a few seconds on a 4-core host, so a run fits two
// or more repetitions into its measuring window.
const Workload kWorkloads[] = {
    {"random_base", Corpus::kBase, ModelKind::kRandomValue, false, 2, 400, 0},
    {"random_parametric", Corpus::kParametric, ModelKind::kRandomValue, false,
     2, 480, 0},
    {"bayes_mining", Corpus::kBase, ModelKind::kBayesian, false, 2, 0, 200},
    {"fleet_random", Corpus::kBase, ModelKind::kRandomValue, true, 2, 240, 0},
};

// Small leases keep the fleet's tail imbalance down and put lease and frame
// round trips on the measured path.
constexpr std::size_t kFleetLeaseRuns = 4;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_record(const core::InjectionRecord& a, const core::InjectionRecord& b) {
  return a.run_index == b.run_index && a.description == b.description &&
         a.scenario_index == b.scenario_index &&
         a.scene_index == b.scene_index && a.outcome == b.outcome &&
         bits_equal(a.min_delta_lon, b.min_delta_lon) &&
         bits_equal(a.max_actuation_divergence, b.max_actuation_divergence);
}

/// Joins `threads`, then rethrows the first exception any of them stored.
void join_all(std::vector<std::thread>& threads,
              std::vector<std::exception_ptr>& errors) {
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads)
    if (name == workload.name) return &workload;
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const Workload& workload : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += workload.name;
  }
  return names;
}

Inputs derive_inputs(std::uint64_t seed) {
  std::uint64_t state = seed;
  Inputs inputs;
  // 31 bits: the seeds travel through JSONL manifests as plain integers.
  inputs.campaign_seed = drivefi::util::splitmix64_next(state) & 0x7fffffffULL;
  inputs.pipeline_seed = drivefi::util::splitmix64_next(state) & 0x7fffffffULL;
  return inputs;
}

std::vector<sim::Scenario> load_corpus(const Workload& workload,
                                       const Args& args) {
  if (workload.corpus == Corpus::kBase) return sim::base_suite();
  return drivefi::scenario::load_suite(args.root + "/" + corpus_spec(workload));
}

std::string corpus_spec(const Workload& workload) {
  return workload.corpus == Corpus::kBase
             ? "builtin:base"
             : "examples/scenarios/parametric_7200.scn";
}

core::ExperimentOptions experiment_options(const Workload& workload) {
  core::ExperimentOptions options;
  // Fleet workers each run a single-thread engine.
  options.executor.threads = workload.fleet ? 1 : workload.threads;
  return options;
}

drivefi::ads::PipelineConfig pipeline_config(const Inputs& inputs) {
  drivefi::ads::PipelineConfig config;
  config.seed = inputs.pipeline_seed;
  return config;
}

core::BayesianCampaignConfig bayes_config(const Workload& workload) {
  core::BayesianCampaignConfig config;
  config.max_replays = workload.replays;
  config.selection.executor.threads = workload.threads;
  return config;
}

CampaignRun run_campaign(const Workload& workload,
                         const core::Experiment& experiment,
                         const core::FaultModel& model,
                         core::ShardStore& store, const std::string& scratch) {
  CampaignRun run;
  if (!workload.fleet) {
    const auto start = Clock::now();
    run.stats = experiment.run_shard(model, store);
    run.seconds = seconds_since(start);
    return run;
  }

  coord::CoordinatorConfig config;
  config.lease_runs = kFleetLeaseRuns;
  config.tick_seconds = 0.01;
  config.print_progress = false;
  coord::Coordinator coordinator(store.manifest(), store, config);

  // The campaign is done when serve() returns with every run stored; a
  // worker idling in a coordinator "wait" may return later, off the clock.
  const auto start = Clock::now();
  std::vector<std::exception_ptr> errors(workload.threads + 1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      run.fleet = coordinator.serve();
      run.seconds = seconds_since(start);
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  for (unsigned w = 0; w < workload.threads; ++w) {
    threads.emplace_back([&, w] {
      try {
        coord::WorkerConfig worker_config;
        worker_config.port = coordinator.port();
        worker_config.name = "perfbench-w" + std::to_string(w);
        worker_config.store_path =
            scratch + "/worker" + std::to_string(w) + ".jsonl";
        worker_config.threads = 1;
        coord::WorkerClient worker(experiment, model,
                                   store.manifest().scenario_spec,
                                   worker_config);
        const coord::WorkerStats stats = worker.run();
        if (stats.gave_up || stats.aborted)
          throw std::runtime_error("fleet worker stopped before completion");
      } catch (...) {
        errors[w + 1] = std::current_exception();
        coordinator.request_stop();  // nobody else may finish the campaign
      }
    });
  }
  join_all(threads, errors);
  run.stats = core::merge_shards({store.path()}).stats;
  return run;
}

core::CampaignStats run_single_process(const core::Experiment& experiment,
                                       const core::FaultModel& model,
                                       unsigned threads) {
  std::vector<std::vector<std::size_t>> slices(threads);
  for (std::size_t i = 0; i < model.run_count(); ++i)
    slices[i % threads].push_back(i);
  std::vector<core::CampaignStats> parts(threads);
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      try {
        parts[t] = experiment.run_indices(model, slices[t], nullptr);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  join_all(pool, errors);

  std::vector<core::InjectionRecord> records;
  for (const core::CampaignStats& part : parts)
    records.insert(records.end(), part.records.begin(), part.records.end());
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.run_index < b.run_index; });
  core::CampaignStats stats;
  for (const core::InjectionRecord& record : records) stats.add(record);
  return stats;
}

std::string fingerprint_id(const core::CampaignStats& stats) {
  drivefi::util::Fnv1a fnv;
  fnv.add(std::string_view(core::campaign_fingerprint(stats)));
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(fnv.hash()));
  return text;
}

std::size_t record_mismatches(const std::vector<core::InjectionRecord>& a,
                              const std::vector<core::InjectionRecord>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t bad = std::max(a.size(), b.size()) - common;
  for (std::size_t i = 0; i < common; ++i)
    if (!same_record(a[i], b[i])) ++bad;
  return bad;
}

void Checks::record(const std::string& what, std::size_t operations,
                    std::size_t bad) {
  attempted += operations;
  failed += std::min(bad, operations);
  if (bad > 0)
    failures.push_back(what + ": " + std::to_string(bad) + " of " +
                       std::to_string(operations) + " failed");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  // VmHWM belongs to this address space; getrusage's ru_maxrss would also
  // carry the peak of the process image this one was exec'd from.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
