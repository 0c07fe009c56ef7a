// End-to-end pass: set-up, selection and campaign phases timed with no
// tracing, then the output checks outside the timed window.
#include <cstdio>
#include <exception>
#include <iterator>
#include <map>

#include "bench.h"
#include "core/manifest.h"
#include "core/query.h"

namespace perfbench {
namespace {

// Set-up is repeated and reported as a median; a campaign is repeated until
// the measuring window is spent, and at least twice so every run checks
// that repetitions agree.
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinCampaignRepeats = 2;
// Runs replayed without forking after the window: the first few of each of
// the lowest scenarios the campaign injects into.
constexpr std::size_t kUnforkedScenarios = 2;
constexpr std::size_t kUnforkedPerScenario = 3;
// Shape of a healthy campaign: random faults are nearly all masked or
// benign, Bayesian-selected replays are mostly hazards.
constexpr double kRandomMaxHazardFrac = 0.10;
constexpr double kBayesMinPrecision = 0.50;

void print_phase(const char* phase, const std::vector<double>& seconds) {
  std::printf("%-10s", phase);
  for (const double s : seconds) std::printf(" %.3f", s);
  std::printf("  (median %.3f s)\n", median(seconds));
}

}  // namespace

std::vector<Metric> run_timed(const Workload& workload, const Args& args,
                              Checks& checks) {
  const Inputs inputs = derive_inputs(args.seed);
  std::printf("inputs: campaign_seed=%llu pipeline_seed=%llu corpus=%s\n",
              static_cast<unsigned long long>(inputs.campaign_seed),
              static_cast<unsigned long long>(inputs.pipeline_seed),
              corpus_spec(workload).c_str());

  // Set-up: corpus load plus Experiment construction (golden runs and
  // checkpoints). One engine is alive at a time, so peak RSS stays the
  // workload's own.
  std::vector<double> setup_seconds;
  std::unique_ptr<core::Experiment> experiment;
  for (int k = 0; k < kSetupRepeats; ++k) {
    experiment.reset();
    const auto start = Clock::now();
    experiment = std::make_unique<core::Experiment>(
        load_corpus(workload, args), pipeline_config(inputs),
        core::ClassifierConfig{}, experiment_options(workload));
    setup_seconds.push_back(seconds_since(start));
  }
  print_phase("setup", setup_seconds);

  // Selection: k-TBN fit plus the catalog sweep (Bayesian model only). It
  // runs once; repeating its seconds-long sweep would not fit the run.
  double selection_s = 0.0;
  std::unique_ptr<core::FaultModel> model;
  if (workload.model == ModelKind::kBayesian) {
    const auto start = Clock::now();
    model = std::make_unique<core::BayesianFaultModel>(*experiment,
                                                       bayes_config(workload));
    selection_s = seconds_since(start);
    std::printf("selection  %.3f s\n", selection_s);
  } else {
    model = std::make_unique<core::RandomValueModel>(workload.runs,
                                                     inputs.campaign_seed);
  }

  // Campaign: repeated into a fresh JSONL store until the window is spent.
  const std::size_t planned = model->run_count();
  const core::CampaignManifest manifest =
      core::make_manifest(*experiment, *model, corpus_spec(workload));
  const std::string store_path =
      args.scratch + "/" + workload.name + ".jsonl";
  std::vector<double> campaign_seconds, rates;
  core::CampaignStats first;
  const auto window = Clock::now();
  for (std::size_t rep = 0;
       rep < kMinCampaignRepeats || seconds_since(window) < args.seconds;
       ++rep) {
    CampaignRun run;
    try {
      core::ShardResultStore store(store_path, manifest,
                                   core::StoreOpenMode::kOverwrite);
      run = run_campaign(workload, *experiment, *model, store, args.scratch);
    } catch (const std::exception& error) {
      checks.record(std::string("campaign threw: ") + error.what(), planned,
                    planned);
      continue;
    }
    campaign_seconds.push_back(run.seconds);
    rates.push_back(static_cast<double>(run.stats.total()) / run.seconds);
    std::printf("campaign %zu: %zu runs in %.3f s (%.2f injections/s), "
                "fingerprint %s\n",
                rep, run.stats.total(), run.seconds, rates.back(),
                fingerprint_id(run.stats).c_str());
    if (workload.fleet)
      std::printf("  fleet: %zu leases granted, %zu stolen, %zu expired, %zu "
                  "duplicates dropped\n",
                  run.fleet.leases_granted, run.fleet.leases_stolen,
                  run.fleet.leases_expired, run.fleet.duplicates_dropped);

    checks.record("store read back",
                  planned,
                  record_mismatches(core::load_campaign({store_path}).records,
                                    run.stats.records) +
                      (planned - std::min(planned, run.stats.total())));
    if (first.records.empty())
      first = std::move(run.stats);
    else
      checks.record("repetition fingerprint", planned,
                    record_mismatches(run.stats.records, first.records));
  }
  const double peak_rss = peak_rss_mb();
  if (campaign_seconds.empty()) return {};

  // Checks outside the timed window.
  if (workload.fleet) {
    const core::CampaignStats reference =
        run_single_process(*experiment, *model, workload.threads);
    checks.record("fleet master vs single process", planned,
                  record_mismatches(first.records, reference.records));
    std::printf("single-process fingerprint %s\n",
                fingerprint_id(reference).c_str());
  }
  if (planned > 0) {
    // The first runs of the lowest scenarios the campaign injects into,
    // replayed on an unforked engine built over just the corpus prefix they
    // need: a few golden runs instead of a second full set-up.
    std::map<std::size_t, std::vector<core::RunSpec>> by_scenario;
    for (std::size_t index = 0; index < planned; ++index) {
      core::RunSpec spec = model->spec(index, *experiment);
      auto& specs = by_scenario[spec.kind == core::RunSpec::Kind::kValue
                                    ? spec.fault.scenario_index
                                    : spec.scenario_index];
      if (specs.size() < kUnforkedPerScenario) specs.push_back(std::move(spec));
    }
    while (by_scenario.size() > kUnforkedScenarios)
      by_scenario.erase(std::prev(by_scenario.end()));
    std::vector<sim::Scenario> prefix = load_corpus(workload, args);
    prefix.resize(by_scenario.rbegin()->first + 1);
    core::ExperimentOptions options = experiment_options(workload);
    options.fork_replays = false;
    const core::Experiment unforked(std::move(prefix), pipeline_config(inputs),
                                    core::ClassifierConfig{}, options);
    std::size_t sampled = 0, bad = 0;
    for (const auto& [scenario, specs] : by_scenario)
      for (const core::RunSpec& spec : specs) {
        ++sampled;
        bad += record_mismatches({unforked.execute(spec)},
                                 {first.records.at(spec.run_index)});
      }
    checks.record("unforked replay sample", sampled, bad);
  }

  const double hazard_frac =
      static_cast<double>(first.hazard) / static_cast<double>(first.total());
  const bool shape_ok = workload.model == ModelKind::kBayesian
                            ? hazard_frac >= kBayesMinPrecision
                            : hazard_frac <= kRandomMaxHazardFrac;
  checks.record("campaign shape (hazard fraction)", 1, shape_ok ? 0 : 1);

  const double setup_s = median(setup_seconds);
  const double campaign_s = median(campaign_seconds);
  std::printf("fingerprint: %s\n", fingerprint_id(first).c_str());
  std::printf("outcomes: masked=%zu sdc_benign=%zu hang=%zu hazard=%zu "
              "(hazard fraction %.4f)\n",
              first.masked, first.sdc_benign, first.hang, first.hazard,
              hazard_frac);
  if (workload.model == ModelKind::kBayesian)
    std::printf("selection_s %.4f s; hazards_per_s %.4f 1/s (hazards "
                "confirmed by replay over selection plus replay time)\n",
                selection_s,
                static_cast<double>(first.hazard) / (selection_s + campaign_s));

  return {
      {"setup_s", setup_s, "s"},
      {"injections_per_s", median(rates), "1/s"},
      {"wall_s", setup_s + selection_s + campaign_s, "s"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
}

}  // namespace perfbench
