// Per-layer pass. Spans are recorded around calls into each layer's public
// functions from this file; the pass runs once with spans off and once with
// them on, and the difference is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "bench.h"
#include "core/bayes_model.h"
#include "core/fault_catalog.h"
#include "core/manifest.h"
#include "core/query.h"
#include "core/selector.h"
#include "obs/metrics.h"
#include "util/fnv.h"

namespace perfbench {
namespace {

namespace ads = drivefi::ads;
namespace obs = drivefi::obs;

// The golden walk visits at most this many scenarios, evenly spaced.
constexpr std::size_t kWalkScenarios = 6;
// Specs executed one at a time on the flat-fork path.
constexpr std::size_t kExecuteSample = 40;
// SafetyPredictor::predict calls timed one at a time.
constexpr std::size_t kPredictSample = 2000;
// Catalog candidates the selector probe sweeps on workloads whose campaign
// does not select (an evenly spaced sample of the full catalog).
constexpr std::size_t kProbeCandidates = 6000;

/// Times every append of the wrapped store; the engine and the coordinator
/// append from their own threads, so the parent span is passed explicitly.
class TracingStore : public core::ShardStore {
 public:
  TracingStore(core::ShardStore& inner, SpanRecorder& recorder,
               std::int64_t parent)
      : inner_(inner), recorder_(recorder), parent_(parent) {}

  const std::string& path() const override { return inner_.path(); }
  const core::CampaignManifest& manifest() const override {
    return inner_.manifest();
  }
  const std::set<std::size_t>& completed() const override {
    return inner_.completed();
  }
  void append(const core::InjectionRecord& record) override {
    ScopedSpan span(recorder_, "store.append", parent_);
    inner_.append(record);
  }

 private:
  core::ShardStore& inner_;
  SpanRecorder& recorder_;
  std::int64_t parent_;
};

/// Evenly spaced indices into a sequence of `size` elements.
std::vector<std::size_t> sample_indices(std::size_t size, std::size_t count) {
  count = std::min(count, size);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < count; ++i) indices.push_back(i * size / count);
  return indices;
}

/// Keeps a result observable, so a timed call cannot be optimized away.
void keep(double value) { asm volatile("" : : "r,m"(value) : "memory"); }

/// Layer figures that do not come from span timings.
struct LayerFigures {
  std::size_t scenes = 0;
  std::size_t snapshots = 0;
  double snapshot_bytes = 0.0;
  double checkpoint_bytes = 0.0;
  double splice_frac = 0.0;
  double busy_frac = 0.0;
  double fleet_overhead_ratio = 0.0;
  double bytes_per_record = 0.0;
  std::size_t inference_calls = 0;
  double critical_frac = 0.0;
  double hazard_precision = 0.0;
  std::size_t leases_granted = 0;
  std::size_t duplicates_dropped = 0;
  std::uint64_t replays_forked = 0;
  std::uint64_t replays_spliced = 0;
  std::uint64_t store_appends = 0;
};

/// Steps golden runs of a few scenarios tick by tick. At every scene it
/// re-calls both safety potentials on the scene state, captures a snapshot,
/// compares the live state against it and restores it into a twin
/// pipeline. Returns the number of states that failed to match.
std::size_t golden_walk(const std::vector<sim::Scenario>& corpus,
                        const ads::PipelineConfig& config,
                        SpanRecorder& recorder, LayerFigures& out) {
  const std::size_t step =
      std::max<std::size_t>(1, (corpus.size() + kWalkScenarios - 1) /
                                   kWalkScenarios);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < corpus.size(); i += step) {
    const sim::Scenario& scenario = corpus[i];
    sim::World world(scenario.world);
    ads::AdsPipeline pipeline(world, config);
    sim::World twin_world(scenario.world);
    ads::AdsPipeline twin(twin_world, config);
    pipeline.reserve_scenes(
        core::expected_scene_records(scenario.duration, config));
    const auto ticks = static_cast<std::uint64_t>(
        std::llround(scenario.duration * config.base_hz));
    for (std::uint64_t t = 0; t < ticks; ++t) {
      const std::size_t scenes_before = pipeline.scenes().size();
      {
        ScopedSpan span(recorder, "ads.tick");
        pipeline.step();
      }
      if (pipeline.scenes().size() == scenes_before) continue;
      ++out.scenes;
      {
        ScopedSpan span(recorder, "kinematics.true_safety");
        keep(world.true_safety_potential().longitudinal);
      }
      {
        ScopedSpan span(recorder, "kinematics.believed_safety");
        keep(pipeline.believed_safety_potential().longitudinal);
      }
      ads::PipelineSnapshot snapshot;
      {
        ScopedSpan span(recorder, "snapshot.capture");
        snapshot = pipeline.snapshot();
      }
      bool same = false;
      {
        ScopedSpan span(recorder, "snapshot.compare");
        same = pipeline.state_matches(snapshot);
      }
      {
        ScopedSpan span(recorder, "snapshot.restore");
        twin.restore(snapshot);
      }
      if (!same || !twin.state_matches(snapshot)) ++mismatches;
      ++out.snapshots;
      out.snapshot_bytes += static_cast<double>(snapshot.approx_size_bytes());
    }
  }
  return mismatches;
}

/// Fits the predictor and runs the selector sweep. The Bayesian workload
/// sweeps its whole catalog and returns its fault model; the others probe
/// the same layer on their own goldens with a sample of the catalog, off
/// their end-to-end path.
std::unique_ptr<core::BayesianFaultModel> trace_selection(
    const Workload& workload, const core::Experiment& experiment,
    SpanRecorder& recorder, LayerFigures& out) {
  const core::BayesianCampaignConfig config = bayes_config(workload);
  std::shared_ptr<const core::SafetyPredictor> predictor;
  {
    ScopedSpan span(recorder, "bn.fit");
    predictor = std::make_shared<const core::SafetyPredictor>(
        experiment.goldens(), config.predictor);
  }

  std::unique_ptr<core::BayesianFaultModel> bayes;
  core::FaultCatalog probe_catalog;
  core::SelectionResult probe;
  if (workload.model == ModelKind::kBayesian) {
    ScopedSpan span(recorder, "selector.sweep");
    bayes = std::make_unique<core::BayesianFaultModel>(experiment, predictor,
                                                       config);
  } else {
    const core::FaultCatalog full =
        core::build_catalog(experiment.scenarios(),
                            core::default_target_ranges(),
                            experiment.pipeline_config().scene_hz);
    probe_catalog = full;
    probe_catalog.faults.clear();
    for (const std::size_t index :
         sample_indices(full.faults.size(), kProbeCandidates))
      probe_catalog.faults.push_back(full.faults[index]);
    ScopedSpan span(recorder, "selector.sweep");
    probe = core::BayesianFaultSelector(*predictor, config.target_map)
                .select_critical_faults(probe_catalog, experiment.goldens(),
                                        config.selection);
  }
  const core::FaultCatalog& catalog = bayes ? bayes->catalog() : probe_catalog;
  const core::SelectionResult& selection = bayes ? bayes->selection() : probe;
  out.inference_calls = selection.inference_calls;
  out.critical_frac =
      selection.candidates_evaluated == 0
          ? 0.0
          : static_cast<double>(selection.critical.size()) /
                static_cast<double>(selection.candidates_evaluated);

  for (const std::size_t index :
       sample_indices(catalog.faults.size(), kPredictSample)) {
    const core::CandidateFault& fault = catalog.faults[index];
    const auto variable = config.target_map.find(fault.target);
    if (variable == config.target_map.end()) continue;
    const double value = core::fault_value_to_bn_value(fault, variable->second);
    const core::GoldenTrace& trace = experiment.goldens().at(fault.scenario_index);
    // Only candidates that reach inference are timed; skips return early.
    core::PredictSkip skip = core::PredictSkip::kNone;
    predictor->predict(trace, fault.scene_index, variable->second, value, &skip);
    if (skip != core::PredictSkip::kNone) continue;
    ScopedSpan span(recorder, "bn.predict");
    const auto prediction =
        predictor->predict(trace, fault.scene_index, variable->second, value);
    if (prediction) keep(prediction->delta_lon);
  }
  return bayes;
}

std::size_t file_bytes_after_first_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string manifest_line;
  std::getline(in, manifest_line);
  return static_cast<std::size_t>(std::filesystem::file_size(path)) -
         manifest_line.size() - 1;
}

/// One pass over every layer of the workload. Returns its wall seconds.
double layer_pass(const Workload& workload, const Args& args,
                  const Inputs& inputs, SpanRecorder& recorder, Checks& checks,
                  LayerFigures& out) {
  const auto start = Clock::now();
  ScopedSpan pass_span(recorder, "pass");
  const ads::PipelineConfig config = pipeline_config(inputs);
  const core::ExperimentOptions options = experiment_options(workload);

  std::vector<sim::Scenario> corpus;
  {
    ScopedSpan span(recorder, "scenario.load");
    corpus = load_corpus(workload, args);
  }
  {
    ScopedSpan span(recorder, "golden");
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      core::GoldenTrace trace;
      {
        ScopedSpan scenario_span(recorder, "golden.scenario");
        trace = core::run_golden(corpus[i], config, i, options.checkpoint_stride);
      }
      for (const ads::PipelineSnapshot& checkpoint : trace.checkpoints)
        out.checkpoint_bytes +=
            static_cast<double>(checkpoint.approx_size_bytes());
    }
  }
  {
    ScopedSpan span(recorder, "golden.walk");
    const std::size_t mismatches = golden_walk(corpus, config, recorder, out);
    checks.record("snapshot compare and restore", out.snapshots, mismatches);
  }

  std::unique_ptr<core::Experiment> experiment;
  {
    ScopedSpan span(recorder, "experiment.setup");
    experiment = std::make_unique<core::Experiment>(
        std::move(corpus), config, core::ClassifierConfig{}, options);
  }
  std::unique_ptr<core::BayesianFaultModel> bayes;
  {
    ScopedSpan span(recorder, "selection");
    bayes = trace_selection(workload, *experiment, recorder, out);
  }
  core::RandomValueModel random(workload.runs, inputs.campaign_seed);
  const core::FaultModel& model =
      bayes ? static_cast<const core::FaultModel&>(*bayes) : random;

  // Flat-fork path: one spec at a time, checked against the campaign below.
  std::vector<std::pair<std::size_t, core::InjectionRecord>> executed;
  for (const std::size_t index : sample_indices(model.run_count(), kExecuteSample)) {
    const core::RunSpec spec = model.spec(index, *experiment);
    ScopedSpan span(recorder, "experiment.execute");
    executed.emplace_back(index, experiment->execute(spec));
  }

  const std::string store_path =
      args.scratch + "/" + workload.name + ".layers.jsonl";
  obs::Histogram& run_wall = obs::metrics().histogram("experiment.run_wall_seconds");
  obs::Counter& forked = obs::metrics().counter("experiment.replays_forked");
  obs::Counter& spliced = obs::metrics().counter("experiment.replays_spliced");
  obs::Counter& appends = obs::metrics().counter("store.appends");
  const double run_wall_before = run_wall.snapshot().sum_seconds;
  const std::uint64_t forked_before = forked.value();
  const std::uint64_t spliced_before = spliced.value();
  const std::uint64_t appends_before = appends.value();
  const std::size_t engine_forked_before = experiment->forked_runs_executed();
  const std::size_t engine_spliced_before = experiment->spliced_runs_executed();

  CampaignRun run;
  {
    ScopedSpan campaign_span(recorder, "campaign");
    core::ShardResultStore inner(
        store_path,
        core::make_manifest(*experiment, model, corpus_spec(workload)),
        core::StoreOpenMode::kOverwrite);
    TracingStore store(inner, recorder, campaign_span.id());
    run = run_campaign(workload, *experiment, model, store, args.scratch);
  }
  const double run_wall_sum = run_wall.snapshot().sum_seconds - run_wall_before;
  out.replays_forked = forked.value() - forked_before;
  out.replays_spliced = spliced.value() - spliced_before;
  out.store_appends = appends.value() - appends_before;
  const std::size_t engine_forked =
      experiment->forked_runs_executed() - engine_forked_before;
  out.splice_frac =
      engine_forked == 0
          ? 0.0
          : static_cast<double>(experiment->spliced_runs_executed() -
                                engine_spliced_before) /
                static_cast<double>(engine_forked);
  out.busy_frac = run_wall_sum / (workload.threads * run.seconds);
  if (workload.fleet) {
    out.fleet_overhead_ratio = run.seconds / (run_wall_sum / workload.threads);
    out.leases_granted = run.fleet.leases_granted;
    out.duplicates_dropped = run.fleet.duplicates_dropped;
  }
  if (bayes)
    out.hazard_precision = static_cast<double>(run.stats.hazard) /
                           static_cast<double>(run.stats.total());

  const std::size_t planned = model.run_count();
  std::size_t bad = planned - std::min(planned, run.stats.total());
  for (const auto& [index, record] : executed)
    if (index >= run.stats.records.size() ||
        record_mismatches({record}, {run.stats.records[index]}) > 0)
      ++bad;
  {
    ScopedSpan span(recorder, "query.load");
    bad += record_mismatches(core::load_campaign({store_path}).records,
                             run.stats.records);
  }
  {
    ScopedSpan span(recorder, "fleet.merge");
    bad += record_mismatches(core::merge_shards({store_path}).stats.records,
                             run.stats.records);
  }
  checks.record("campaign records (store, merge, flat fork)", planned, bad);
  out.bytes_per_record =
      static_cast<double>(file_bytes_after_first_line(store_path)) /
      static_cast<double>(std::max<std::size_t>(1, run.stats.total()));
  std::printf("%s pass: %.3f s, campaign %zu runs in %.3f s, fingerprint %s\n",
              recorder.enabled() ? "traced" : "untraced", seconds_since(start),
              run.stats.total(), run.seconds,
              fingerprint_id(run.stats).c_str());
  return seconds_since(start);
}

/// Cost of one span open plus close on this host, from a throwaway
/// recorder: the deterministic half of the tracing-overhead estimate.
double seconds_per_span() {
  constexpr int kSpans = 100000;
  SpanRecorder probe(0);
  probe.set_enabled(true);
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) ScopedSpan span(probe, "probe");
  return seconds_since(start) / kSpans;
}

std::vector<double> span_seconds(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans)
    if (span.end_ns >= 0 && name == span.name)
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
  return out;
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

std::vector<Metric> run_traced(const Workload& workload, const Args& args,
                               Checks& checks) {
  const Inputs inputs = derive_inputs(args.seed);
  drivefi::util::Fnv1a run_id;
  run_id.add(std::string_view(workload.name));
  run_id.add(static_cast<std::uint64_t>(args.seed));
  SpanRecorder recorder(run_id.hash());

  LayerFigures untraced_figures, f;
  const double untraced_s =
      layer_pass(workload, args, inputs, recorder, checks, untraced_figures);
  recorder.set_enabled(true);
  const double traced_s = layer_pass(workload, args, inputs, recorder, checks, f);
  recorder.set_enabled(false);

  const std::string trace_path =
      args.scratch + "/" + workload.name + ".trace.json";
  recorder.write_chrome_trace(trace_path);
  const std::vector<Span> spans = recorder.spans();
  checks.record("span self time within span", 1,
                recorder.malformed_spans() > 0 ? 1 : 0);

  const std::map<std::string, LayerTotals> totals = recorder.totals();
  std::printf("trace: %s (%zu spans, run id %llu)\n", trace_path.c_str(),
              spans.size(), static_cast<unsigned long long>(recorder.run_id()));
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : totals)
    std::printf("%-28s %8zu %12.6f %12.6f\n", name.c_str(), t.count,
                t.total_seconds, t.self_seconds);

  const auto total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_seconds;
  };
  const auto mean_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_seconds /
                     static_cast<double>(it->second.count);
  };
  const double tick_s = total_s("ads.tick");
  const double scenes = static_cast<double>(std::max<std::size_t>(1, f.scenes));
  const std::vector<double> executes = span_seconds(spans, "experiment.execute");

  return {
      {"scenario.load_ms", total_s("scenario.load") * 1e3, "ms"},
      {"golden.total_s", total_s("golden"), "s"},
      {"golden.scenario_ms", mean_s("golden.scenario") * 1e3, "ms"},
      {"golden.checkpoint_mb", f.checkpoint_bytes / (1024.0 * 1024.0), "MiB"},
      {"ads.tick_us", mean_s("ads.tick") * 1e6, "us"},
      {"ads.scene_us", tick_s / scenes * 1e6, "us"},
      {"kinematics.true_safety_us", mean_s("kinematics.true_safety") * 1e6, "us"},
      {"kinematics.believed_safety_us",
       mean_s("kinematics.believed_safety") * 1e6, "us"},
      {"kinematics.scene_share",
       (total_s("kinematics.true_safety") + total_s("kinematics.believed_safety")) /
           tick_s,
       "ratio"},
      {"snapshot.capture_us", mean_s("snapshot.capture") * 1e6, "us"},
      {"snapshot.restore_us", mean_s("snapshot.restore") * 1e6, "us"},
      {"snapshot.compare_us", mean_s("snapshot.compare") * 1e6, "us"},
      {"snapshot.kb",
       f.snapshot_bytes / static_cast<double>(std::max<std::size_t>(1, f.snapshots)) /
           1024.0,
       "KiB"},
      {"experiment.execute_ms_p50", nearest_rank(executes, 0.50) * 1e3, "ms"},
      {"experiment.execute_ms_p95", nearest_rank(executes, 0.95) * 1e3, "ms"},
      {"experiment.splice_frac", f.splice_frac, "ratio"},
      {"executor.busy_frac", f.busy_frac, "ratio"},
      {"store.append_us", mean_s("store.append") * 1e6, "us"},
      {"store.bytes_per_record", f.bytes_per_record, "B"},
      {"query.load_ms", total_s("query.load") * 1e3, "ms"},
      {"bn.fit_s", total_s("bn.fit"), "s"},
      {"bn.predict_us", mean_s("bn.predict") * 1e6, "us"},
      {"selector.sweep_s", total_s("selector.sweep"), "s"},
      {"selector.inference_calls", static_cast<double>(f.inference_calls), "count"},
      {"selector.critical_frac", f.critical_frac, "ratio"},
      {"selector.hazard_precision", f.hazard_precision, "ratio"},
      {"coord.leases_granted", static_cast<double>(f.leases_granted), "count"},
      {"coord.duplicates_dropped", static_cast<double>(f.duplicates_dropped),
       "count"},
      {"fleet.overhead_ratio", f.fleet_overhead_ratio, "ratio"},
      {"fleet.merge_ms", total_s("fleet.merge") * 1e3, "ms"},
      {"trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio"},
      {"trace.span_cost_frac",
       static_cast<double>(spans.size()) * seconds_per_span() / traced_s,
       "ratio"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"obs.experiment.replays_forked", static_cast<double>(f.replays_forked),
       "count"},
      {"obs.experiment.replays_spliced", static_cast<double>(f.replays_spliced),
       "count"},
      {"obs.store.appends", static_cast<double>(f.store_appends), "count"},
  };
}

}  // namespace perfbench
