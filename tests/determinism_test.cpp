// Determinism regression tests for the Experiment engine: the same
// (campaign seed, fault model, scenario suite) must produce byte-identical
// CampaignStats records at 1 thread and at N threads, and across two
// consecutive runs. Per-run seeds derive from (campaign_seed, run_index)
// via splitmix64, and the executor delivers records in run-index order, so
// nothing about scheduling may leak into the results.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.h"
#include "coord/protocol.h"
#include "coord/worker.h"
#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/progress.h"
#include "core/result_sink.h"
#include "core/result_store.h"
#include "core/selector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"

namespace drivefi::core {
namespace {

ads::PipelineConfig test_pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 11;
  return config;
}

std::vector<sim::Scenario> one_scenario_suite() {
  return {sim::base_suite()[1]};
}

// Everything except wall_seconds, with exact double bit patterns; shared
// with the bench-side divergence gates (core/campaign_stats.h).
std::string fingerprint(const CampaignStats& stats) {
  return campaign_fingerprint(stats);
}

Experiment make_experiment(unsigned threads) {
  ExperimentOptions options;
  options.executor.threads = threads;
  return Experiment(one_scenario_suite(), test_pipeline_config(), {}, options);
}

TEST(Determinism, DerivedRunSeedsAreOrderFree) {
  // The per-run seed depends only on (campaign_seed, run_index).
  EXPECT_EQ(util::derive_run_seed(42, 3), util::derive_run_seed(42, 3));
  EXPECT_NE(util::derive_run_seed(42, 3), util::derive_run_seed(42, 4));
  EXPECT_NE(util::derive_run_seed(42, 3), util::derive_run_seed(43, 3));
}

TEST(Determinism, ValueCampaignIdenticalAcrossThreadCounts) {
  const Experiment single = make_experiment(1);
  const Experiment pooled = make_experiment(4);
  const RandomValueModel model(6, 2024);

  const std::string base = fingerprint(single.run(model));
  EXPECT_EQ(base, fingerprint(pooled.run(model)))
      << "4-thread campaign diverged from the single-threaded run";
  // And across two consecutive runs of the same engine.
  EXPECT_EQ(base, fingerprint(single.run(model)));
  EXPECT_EQ(base, fingerprint(pooled.run(model)));
}

TEST(Determinism, BitflipCampaignIdenticalAcrossThreadCounts) {
  const Experiment single = make_experiment(1);
  const Experiment pooled = make_experiment(3);
  const BitFlipModel model(6, 99, /*bits=*/2);

  const std::string base = fingerprint(single.run(model));
  EXPECT_EQ(base, fingerprint(pooled.run(model)));
  EXPECT_EQ(base, fingerprint(pooled.run(model)));
}

// Serializes a SelectionResult except wall_seconds, with exact bit
// patterns for every double (predictions included).
std::string selection_fingerprint(const SelectionResult& result) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "total=" << result.candidates_total
      << " evaluated=" << result.candidates_evaluated
      << " unmapped=" << result.skipped_unmapped
      << " no_window=" << result.skipped_no_window
      << " no_lead=" << result.skipped_no_lead
      << " golden_unsafe=" << result.skipped_golden_unsafe
      << " inferences=" << result.inference_calls << "\n";
  for (const auto& sf : result.critical) {
    out << sf.fault.scenario_index << "|" << sf.fault.scene_index << "|"
        << sf.fault.target << "|" << static_cast<int>(sf.fault.extreme) << "|"
        << sf.fault.value << "|" << sf.fault.inject_time << "|"
        << sf.prediction.delta_lon << "|" << sf.prediction.delta_lat << "|"
        << sf.prediction.predicted_v << "|" << sf.prediction.predicted_y
        << "|" << sf.prediction.predicted_theta << "|" << sf.golden_delta_lon
        << "|" << sf.golden_delta_lat << "\n";
  }
  return out.str();
}

TEST(Determinism, BayesianSelectionIdenticalAcrossThreadCounts) {
  // The parallel catalog sweep is a first-class campaign: its
  // SelectionResult (F_crit order, counters, every predicted double) must
  // be bit-identical at 1, 2, and 8 threads, and across repeated runs.
  const Experiment experiment = make_experiment(1);
  const SafetyPredictor predictor(experiment.goldens());
  const BayesianFaultSelector selector(predictor);
  const auto catalog = build_catalog(experiment.scenarios(),
                                     default_target_ranges(), 7.5);

  std::string base;
  for (unsigned threads : {1u, 2u, 8u}) {
    SelectionOptions options;
    options.executor.threads = threads;
    const SelectionResult result =
        selector.select_critical_faults(catalog, experiment.goldens(), options);
    EXPECT_GT(result.candidates_evaluated, 0u);
    const std::string fp = selection_fingerprint(result);
    if (threads == 1) {
      base = fp;
      // And stable across consecutive runs of the same configuration.
      EXPECT_EQ(base, selection_fingerprint(selector.select_critical_faults(
                          catalog, experiment.goldens(), options)));
    } else {
      EXPECT_EQ(base, fp)
          << threads << "-thread selection diverged from single-threaded";
    }
  }

  // An awkward chunk size (not dividing the catalog, smaller than a
  // thread's share) must not change the result either.
  SelectionOptions odd;
  odd.executor.threads = 3;
  odd.chunk = 17;
  EXPECT_EQ(base, selection_fingerprint(selector.select_critical_faults(
                      catalog, experiment.goldens(), odd)));
}

std::vector<sim::Scenario> three_scenario_suite() {
  const auto all = sim::base_suite();
  return {all.begin(), all.begin() + 3};
}

Experiment make_experiment_forked(
    unsigned threads, std::size_t stride,
    std::vector<sim::Scenario> suite = one_scenario_suite()) {
  ExperimentOptions options;
  options.executor.threads = threads;
  options.fork_replays = true;
  options.checkpoint_stride = stride;
  return Experiment(std::move(suite), test_pipeline_config(), {}, options);
}

Experiment make_experiment_full(
    unsigned threads, std::vector<sim::Scenario> suite = one_scenario_suite()) {
  ExperimentOptions options;
  options.executor.threads = threads;
  options.fork_replays = false;
  return Experiment(std::move(suite), test_pipeline_config(), {}, options);
}

// A shuffled, non-contiguous subset of [0, run_count): the shape of a fleet
// lease re-granted after a worker died, which run_indices must deliver in
// ascending order whatever order it arrives in.
std::vector<std::size_t> shuffled_lease(std::size_t run_count) {
  std::vector<std::size_t> lease;
  for (std::size_t r = 0; r < run_count; ++r)
    if (r % 3 != 1) lease.push_back(r);
  std::mt19937 rng(5);
  std::shuffle(lease.begin(), lease.end(), rng);
  return lease;
}

// Fingerprint of the records at `indices` of a whole campaign, accumulated
// in ascending run-index order as run_indices delivers them.
std::string lease_fingerprint(const CampaignStats& campaign,
                              std::vector<std::size_t> indices) {
  std::sort(indices.begin(), indices.end());
  CampaignStats lease;
  for (const std::size_t r : indices) lease.add(campaign.records.at(r));
  return fingerprint(lease);
}

TEST(Determinism, ForkedReplayBitIdenticalToFullReplay) {
  // The fork-from-golden contract is absolute: checkpoint restore and
  // golden-tail splicing change COST only, never results. CampaignStats
  // must be bit-identical with forking on or off, at every checkpoint
  // stride and thread count, for randomized faults over random injection
  // times (value campaign) and instruction indices (bit-flip campaign), on
  // a one-scenario and a three-scenario suite. A shuffled lease through
  // run_indices (the fleet-worker path) must reproduce exactly the same
  // indices of the full-replay campaign.
  struct Input {
    std::vector<sim::Scenario> suite;
    RandomValueModel values;
    BitFlipModel bitflips;
  };
  const Input inputs[] = {
      {one_scenario_suite(), RandomValueModel(8, 2024),
       BitFlipModel(6, 99, /*bits=*/2)},
      {three_scenario_suite(), RandomValueModel(18, 2024),
       BitFlipModel(12, 99, /*bits=*/2)},
  };

  for (const Input& input : inputs) {
    const Experiment full = make_experiment_full(1, input.suite);
    const CampaignStats value_campaign = full.run(input.values);
    const CampaignStats bit_campaign = full.run(input.bitflips);
    const std::string value_base = fingerprint(value_campaign);
    const std::string bit_base = fingerprint(bit_campaign);
    const auto value_lease = shuffled_lease(input.values.run_count());
    const auto bit_lease = shuffled_lease(input.bitflips.run_count());
    const std::string value_lease_base =
        lease_fingerprint(value_campaign, value_lease);
    const std::string bit_lease_base =
        lease_fingerprint(bit_campaign, bit_lease);

    for (const std::size_t stride : {std::size_t{1}, std::size_t{4},
                                     std::size_t{16}}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        const Experiment forked =
            make_experiment_forked(threads, stride, input.suite);
        const auto where = [&] {
          return " at stride " + std::to_string(stride) + ", " +
                 std::to_string(threads) + " threads, " +
                 std::to_string(input.suite.size()) + " scenarios";
        };
        EXPECT_EQ(value_base, fingerprint(forked.run(input.values)))
            << "value campaign diverged" << where();
        EXPECT_EQ(bit_base, fingerprint(forked.run(input.bitflips)))
            << "bit-flip campaign diverged" << where();
        EXPECT_EQ(value_lease_base,
                  fingerprint(forked.run_indices(input.values, value_lease,
                                                 nullptr)))
            << "value lease diverged" << where();
        EXPECT_EQ(bit_lease_base,
                  fingerprint(forked.run_indices(input.bitflips, bit_lease,
                                                 nullptr)))
            << "bit-flip lease diverged" << where();
        EXPECT_GT(forked.forked_runs_executed(), 0u);
      }
    }
  }
}

// scrub_wall_seconds (core/jsonl.h) drops the only legitimately non-
// deterministic JSONL payload before byte comparisons.

TEST(Determinism, ForkedJsonlByteEqualToFullJsonl) {
  // Byte-level twin of the sweep above: the canonical JSONL of a whole
  // campaign and of a shuffled lease through run_indices, for a value
  // campaign on one scenario and a bit-flip campaign on three.
  const auto jsonl_of = [](const Experiment& experiment,
                           const FaultModel& model,
                           const std::vector<std::size_t>* lease) {
    std::ostringstream out;
    JsonlSink sink(out);
    std::vector<ResultSink*> sinks = {&sink};
    if (lease != nullptr)
      experiment.run_indices(model, *lease, nullptr, sinks);
    else
      experiment.run(model, sinks);
    return scrub_wall_seconds(out.str());
  };

  const RandomValueModel values(8, 77);
  const BitFlipModel bitflips(12, 99, /*bits=*/2);
  const std::pair<std::vector<sim::Scenario>, const FaultModel*> inputs[] = {
      {one_scenario_suite(), &values},
      {three_scenario_suite(), &bitflips},
  };

  for (const auto& [suite, model] : inputs) {
    const Experiment full = make_experiment_full(1, suite);
    const auto lease = shuffled_lease(model->run_count());
    const std::string base = jsonl_of(full, *model, nullptr);
    const std::string lease_base = jsonl_of(full, *model, &lease);
    EXPECT_FALSE(base.empty());
    for (const std::size_t stride : {std::size_t{1}, std::size_t{4},
                                     std::size_t{16}}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        const Experiment forked = make_experiment_forked(threads, stride, suite);
        EXPECT_EQ(base, jsonl_of(forked, *model, nullptr))
            << model->name() << " JSONL diverged at stride " << stride << ", "
            << threads << " threads";
        EXPECT_EQ(lease_base, jsonl_of(forked, *model, &lease))
            << model->name() << " lease JSONL diverged at stride " << stride
            << ", " << threads << " threads";
      }
    }
  }
}

// Runs the model through `shard_count` durable stores under `dir`,
// returning the shard file paths (every shard executed in this process --
// multi-machine fan-out is the same loop with different hostnames).
std::vector<std::string> run_all_shards(const Experiment& experiment,
                                        const FaultModel& model,
                                        std::size_t shard_count,
                                        const std::string& tag) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < shard_count; ++i) {
    CampaignManifest manifest = make_manifest(experiment, model, "test");
    manifest.shard_index = i;
    manifest.shard_count = shard_count;
    const std::string path =
        (fs::path(::testing::TempDir()) /
         ("drivefi_determinism_" + tag + "_" + std::to_string(shard_count) +
          "_" + std::to_string(i) + ".jsonl"))
            .string();
    ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
    experiment.run_shard(model, store);
    paths.push_back(path);
  }
  return paths;
}

TEST(Determinism, ShardedCampaignMergesBitIdenticalToSingleProcess) {
  // The sharding contract: splitting a campaign into N residue-class
  // shards, persisting each through a durable store, and merging must be
  // invisible -- CampaignStats fingerprints AND the canonical JSONL are
  // byte-equal to the uninterrupted single-process run, at every shard
  // count (1 = the trivial sharding, 2, 8 > thread count interleavings).
  const Experiment experiment = make_experiment(4);
  const RandomValueModel model(10, 2024);

  const std::string base_fp = fingerprint(experiment.run(model));
  std::ostringstream base_out;
  {
    JsonlSink sink(base_out);
    std::vector<ResultSink*> sinks = {&sink};
    experiment.run(model, sinks);
  }
  const std::string base_jsonl = scrub_wall_seconds(base_out.str());

  for (const std::size_t shard_count :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto paths =
        run_all_shards(experiment, model, shard_count, "shard");
    const MergedCampaign merged = merge_shards(paths);
    EXPECT_EQ(base_fp, fingerprint(merged.stats))
        << "stats diverged at " << shard_count << " shards";
    std::ostringstream merged_out;
    write_merged_jsonl(merged, merged_out);
    EXPECT_EQ(base_jsonl, scrub_wall_seconds(merged_out.str()))
        << "JSONL diverged at " << shard_count << " shards";
  }
}

TEST(Determinism, KillThenResumeBitIdenticalToUninterrupted) {
  // Mid-campaign kill: shard 1 of 2 executes part of its work, the process
  // dies mid-append (torn trailing line), and a --resume run finishes only
  // the missing indices. The merged campaign must be byte-equal to the
  // uninterrupted single-process run.
  namespace fs = std::filesystem;
  const Experiment experiment = make_experiment(2);
  const BitFlipModel model(9, 99, /*bits=*/2);

  const std::string base_fp = fingerprint(experiment.run(model));

  // Shard 0/2 runs to completion in one sitting.
  CampaignManifest manifest0 = make_manifest(experiment, model, "test");
  manifest0.shard_index = 0;
  manifest0.shard_count = 2;
  const std::string path0 =
      (fs::path(::testing::TempDir()) / "drivefi_kill_s0.jsonl").string();
  {
    ShardResultStore store(path0, manifest0, StoreOpenMode::kOverwrite);
    experiment.run_shard(model, store);
  }

  // Shard 1/2 "crashes" after two runs, mid-append of a third.
  CampaignManifest manifest1 = manifest0;
  manifest1.shard_index = 1;
  const std::string path1 =
      (fs::path(::testing::TempDir()) / "drivefi_kill_s1.jsonl").string();
  {
    ShardResultStore store(path1, manifest1, StoreOpenMode::kOverwrite);
    store.append(experiment.execute(model.spec(1, experiment)));
    store.append(experiment.execute(model.spec(3, experiment)));
  }
  {
    std::ofstream torn(path1, std::ios::binary | std::ios::app);
    torn << "{\"type\":\"run\",\"run_index\":5,\"descripti";
  }

  // Resume executes exactly the missing indices {5, 7} of shard 1.
  {
    ShardResultStore store(path1, manifest1, StoreOpenMode::kResume);
    EXPECT_EQ(store.completed(), (std::set<std::size_t>{1, 3}));
    const CampaignStats resumed = experiment.run_shard(model, store);
    EXPECT_EQ(resumed.total(), 2u);
  }

  const MergedCampaign merged = merge_shards({path0, path1});
  EXPECT_EQ(base_fp, fingerprint(merged.stats))
      << "kill/resume campaign diverged from the uninterrupted run";
}

TEST(Determinism, FleetCampaignWithKilledWorkerBitIdenticalToSingleProcess) {
  // The fleet contract: a coordinator + workers campaign -- including a
  // worker that dies abruptly mid-lease, forcing its work to be reclaimed
  // and re-executed elsewhere -- merges byte-identical to the uninterrupted
  // single-process run. Records may arrive out of order, duplicated, or
  // from a re-granted lease; none of it may show in the output.
  namespace fs = std::filesystem;
  const Experiment experiment = make_experiment(2);
  const RandomValueModel model(14, 2024);

  const std::string base_fp = fingerprint(experiment.run(model));
  std::ostringstream base_out;
  {
    JsonlSink sink(base_out);
    std::vector<ResultSink*> sinks = {&sink};
    experiment.run(model, sinks);
  }
  const std::string base_jsonl = scrub_wall_seconds(base_out.str());

  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      (fs::path(::testing::TempDir()) / "drivefi_fleet_master.jsonl").string();
  ShardResultStore master(master_path, manifest, StoreOpenMode::kOverwrite);

  coord::CoordinatorConfig coord_config;
  coord_config.lease_runs = 3;
  coord_config.heartbeat_timeout = 1.0;
  coord_config.tick_seconds = 0.02;
  coord_config.print_progress = false;
  coord::Coordinator coordinator(manifest, master, coord_config);

  coord::FleetStats fleet;
  std::thread coordinator_thread(
      [&] { fleet = coordinator.serve(); });

  const auto worker_config = [&](const char* name) {
    coord::WorkerConfig config;
    config.port = coordinator.port();
    config.name = name;
    config.store_path =
        (fs::path(::testing::TempDir()) / ("drivefi_fleet_" + std::string(name) + ".jsonl"))
            .string();
    return config;
  };

  // Worker A vanishes (socket slammed shut, no goodbye) after streaming
  // two records of its first lease -- the in-process stand-in for SIGKILL,
  // which scripts/fleet_e2e.sh exercises for real across processes.
  {
    coord::WorkerConfig config = worker_config("wA");
    config.abort_after_records = 2;
    coord::WorkerClient killed(experiment, model, "test", config);
    const coord::WorkerStats stats = killed.run();
    EXPECT_TRUE(stats.aborted);
    EXPECT_EQ(stats.runs_executed, 2u);
  }

  // Workers B and C finish the campaign, re-executing the reclaimed work.
  coord::WorkerStats stats_b, stats_c;
  std::thread worker_b([&] {
    coord::WorkerClient worker(experiment, model, "test", worker_config("wB"));
    stats_b = worker.run();
  });
  std::thread worker_c([&] {
    coord::WorkerClient worker(experiment, model, "test", worker_config("wC"));
    stats_c = worker.run();
  });
  worker_b.join();
  worker_c.join();
  coordinator_thread.join();

  EXPECT_EQ(master.completed().size(), model.run_count());
  EXPECT_EQ(fleet.runs_completed, model.run_count());  // store began empty
  EXPECT_EQ(fleet.workers_seen, 3u);
  EXPECT_GE(stats_b.runs_executed + stats_c.runs_executed,
            model.run_count() - 2);

  const MergedCampaign merged = merge_shards({master_path});
  EXPECT_EQ(base_fp, fingerprint(merged.stats))
      << "fleet campaign stats diverged from the single-process run";
  std::ostringstream merged_out;
  write_merged_jsonl(merged, merged_out);
  EXPECT_EQ(base_jsonl, scrub_wall_seconds(merged_out.str()))
      << "fleet campaign JSONL diverged from the single-process run";
}

TEST(Determinism, FleetRefusesAMismatchedWorker) {
  // The compatibility half of the contract: a worker built for a different
  // campaign (different seed here) is refused at hello and executes
  // nothing; the coordinator keeps serving.
  const Experiment experiment = make_experiment(1);
  const RandomValueModel model(4, 2024);
  const RandomValueModel wrong_model(4, 9999);

  namespace fs = std::filesystem;
  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      (fs::path(::testing::TempDir()) / "drivefi_fleet_refuse.jsonl").string();
  ShardResultStore master(master_path, manifest, StoreOpenMode::kOverwrite);

  coord::CoordinatorConfig coord_config;
  coord_config.lease_runs = 2;
  coord_config.tick_seconds = 0.02;
  coord_config.print_progress = false;
  coord::Coordinator coordinator(manifest, master, coord_config);
  std::thread coordinator_thread([&] { coordinator.serve(); });

  {
    coord::WorkerConfig config;
    config.port = coordinator.port();
    config.name = "imposter";
    config.store_path =
        (fs::path(::testing::TempDir()) / "drivefi_fleet_imposter.jsonl")
            .string();
    coord::WorkerClient imposter(experiment, wrong_model, "test", config);
    EXPECT_THROW(imposter.run(), std::runtime_error);
  }

  coord::WorkerConfig config;
  config.port = coordinator.port();
  config.name = "honest";
  config.store_path =
      (fs::path(::testing::TempDir()) / "drivefi_fleet_honest.jsonl").string();
  coord::WorkerClient honest(experiment, model, "test", config);
  const coord::WorkerStats stats = honest.run();
  coordinator_thread.join();
  EXPECT_EQ(stats.runs_executed, model.run_count());
  EXPECT_EQ(master.completed().size(), model.run_count());
}

TEST(Determinism, ObservabilityIsInert) {
  // The telemetry contract: tracing and metrics are pure observation. A
  // campaign run with a live trace session, a metrics snapshot sink, and a
  // freshly reset registry must be byte-identical -- fingerprint, scrubbed
  // JSONL, and manifest compatibility hash -- to the same campaign with
  // observability off.
  namespace fs = std::filesystem;
  const Experiment experiment = make_experiment(4);
  const RandomValueModel model(10, 2024);

  const auto capture = [&](std::vector<ResultSink*> extra_sinks) {
    std::ostringstream out;
    JsonlSink sink(out);
    std::vector<ResultSink*> sinks = {&sink};
    for (ResultSink* extra : extra_sinks) sinks.push_back(extra);
    const CampaignStats stats = experiment.run(model, sinks);
    return std::pair<std::string, std::string>(
        fingerprint(stats), scrub_wall_seconds(out.str()));
  };

  const auto plain = capture({});
  const std::uint64_t plain_hash =
      coord::manifest_compat_hash(make_manifest(experiment, model, "test"));

  const std::string trace_path =
      (fs::path(::testing::TempDir()) / "drivefi_inert_trace.json").string();
  std::ostringstream metrics_out;
  MetricsSnapshotSink metrics_sink(metrics_out, /*interval_seconds=*/0.0);
  obs::metrics().reset();
  obs::start_tracing(trace_path);
  const auto instrumented = capture({&metrics_sink});
  const std::uint64_t events = obs::trace_events_written();
  obs::stop_tracing();

  EXPECT_EQ(plain.first, instrumented.first)
      << "campaign fingerprint changed under observability";
  EXPECT_EQ(plain.second, instrumented.second)
      << "canonical JSONL changed under observability";
  EXPECT_EQ(plain_hash, coord::manifest_compat_hash(
                            make_manifest(experiment, model, "test")));

  // ... and the observability actually observed: the replay spans hit the
  // trace file and every record produced a metrics snapshot.
  EXPECT_GT(events, 0u);
  EXPECT_EQ(metrics_sink.snapshots_written(), model.run_count() + 1);
  std::ifstream trace(trace_path, std::ios::binary);
  std::string trace_text((std::istreambuf_iterator<char>(trace)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"replay\""), std::string::npos);
}

TEST(Determinism, ThreadCountDoesNotLeakIntoSpecs) {
  // Spec generation itself must be pure: same index, same spec, whichever
  // engine asks.
  const Experiment a = make_experiment(1);
  const Experiment b = make_experiment(4);
  const RandomValueModel model(8, 7);
  for (std::size_t i = 0; i < model.run_count(); ++i) {
    const RunSpec sa = model.spec(i, a);
    const RunSpec sb = model.spec(i, b);
    EXPECT_EQ(sa.fault.target, sb.fault.target);
    EXPECT_EQ(sa.fault.scenario_index, sb.fault.scenario_index);
    EXPECT_DOUBLE_EQ(sa.fault.inject_time, sb.fault.inject_time);
    EXPECT_DOUBLE_EQ(sa.fault.value, sb.fault.value);
  }
}

}  // namespace
}  // namespace drivefi::core
