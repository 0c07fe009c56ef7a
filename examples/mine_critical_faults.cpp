// Mine safety-critical faults with the Bayesian selection engine -- the
// paper's core workflow (golden traces -> fit k-TBN -> parallel
// counterfactual sweep of the fault catalog -> replay F_crit in full
// simulation), packaged as a single Experiment campaign over a scenario
// corpus (built-in or a .scn file).
//
//   ./mine_critical_faults [n_scenarios] [n_replay] [options]
//     --scn FILE      load the scenario corpus from a .scn suite
//     --load-bn FILE  reuse a fitted predictor (skips the k-TBN refit)
//     --save-bn FILE  persist the fitted predictor for later campaigns
//     --jsonl FILE    stream selection + run records as JSONL
//     --threads N     selection/replay thread count (0 = all hardware)
//     --fork / --no-fork      toggle fork-from-golden replay (default: on)
//     --checkpoint-stride N   scenes between golden checkpoints (default 4)
//
// This walkthrough narrates the paper's workflow; for production campaigns
// (sharding across machines, crash-safe stores, --resume, merge) use the
// unified CLI instead: `drivefi_campaign run --model bayesian ...`
// (examples/drivefi_campaign.cpp) -- it subsumes every flag above.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "campaign_cli.h"
#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/report.h"
#include "core/selector.h"
#include "scenario/dsl.h"
#include "sim/scenario.h"

using namespace drivefi;

int main(int argc, char** argv) {
  std::size_t n_scenarios = 0;  // 0 = default (4 built-in / whole .scn corpus)
  std::size_t n_replay = 25;
  std::string scn_path, load_bn, save_bn, jsonl_path;
  unsigned threads = 0;
  bool fork_replays = true;
  std::size_t checkpoint_stride = 4;
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scn") scn_path = next();
    else if (arg == "--load-bn") load_bn = next();
    else if (arg == "--save-bn") save_bn = next();
    else if (arg == "--jsonl") jsonl_path = next();
    else if (arg == "--threads")
      threads = static_cast<unsigned>(campaign_cli::parse_u64_flag(
          arg, next(), std::numeric_limits<unsigned>::max()));
    else if (arg == "--fork") fork_replays = true;
    else if (arg == "--no-fork") fork_replays = false;
    else if (arg == "--checkpoint-stride")
      checkpoint_stride = campaign_cli::parse_u64_flag(arg, next());
    else if (positional == 0) { n_scenarios = campaign_cli::parse_u64_flag("n_scenarios", arg); ++positional; }
    else if (positional == 1) { n_replay = campaign_cli::parse_u64_flag("n_replay", arg); ++positional; }
    else { std::fprintf(stderr, "error: unexpected argument %s\n", arg.c_str()); return 2; }
  }

  auto suite = scn_path.empty() ? sim::base_suite()
                                : scenario::load_suite(scn_path);
  // No explicit count: a loaded corpus is swept in full (truncating a
  // user-supplied .scn silently would misreport coverage); the built-in
  // library keeps its small default.
  if (n_scenarios == 0) n_scenarios = scn_path.empty() ? 4 : suite.size();
  suite.resize(std::min(n_scenarios, suite.size()));

  ads::PipelineConfig config;
  config.seed = 7;
  core::ExperimentOptions options;
  options.executor.threads = threads;
  options.fork_replays = fork_replays;
  options.checkpoint_stride = checkpoint_stride;
  std::printf("running %zu golden scenarios%s (fork-from-golden %s, "
              "checkpoint stride %zu)...\n",
              suite.size(), scn_path.empty() ? "" : (" from " + scn_path).c_str(),
              fork_replays ? "on" : "off", checkpoint_stride);
  const core::Experiment experiment(suite, config, {}, options);

  // The full DriveFI loop as one fault model: fit (or load) the k-TBN,
  // sweep the catalog in parallel, keep the top n_replay of F_crit.
  core::BayesianCampaignConfig campaign;
  campaign.max_replays = n_replay;
  campaign.selection.executor.threads = threads;

  std::unique_ptr<core::BayesianFaultModel> model;
  if (!load_bn.empty()) {
    std::printf("loading fitted predictor from %s (no refit)...\n",
                load_bn.c_str());
    auto predictor = std::make_shared<const core::SafetyPredictor>(
        core::load_predictor(load_bn));
    model = std::make_unique<core::BayesianFaultModel>(experiment, predictor,
                                                       campaign);
  } else {
    std::printf("fitting the %d-TBN on golden traces...\n",
                campaign.predictor.slices);
    model = std::make_unique<core::BayesianFaultModel>(experiment, campaign);
  }
  if (!save_bn.empty()) {
    core::save_predictor(model->predictor(), save_bn);
    std::printf("saved fitted predictor to %s\n", save_bn.c_str());
  }

  const core::SelectionResult& selection = model->selection();
  std::printf("fault catalog: %zu candidate faults (%zu scenes x %zu vars x "
              "{min,max})\n",
              model->catalog().size(), model->catalog().scene_count,
              model->catalog().variable_count);
  std::printf("Bayesian selection: %zu critical faults in %.2f s (%zu BN "
              "inferences, skipped: %zu unmapped / %zu no-window / %zu "
              "no-lead / %zu golden-unsafe)\n",
              selection.critical.size(), selection.wall_seconds,
              selection.inference_calls, selection.skipped_unmapped,
              selection.skipped_no_window, selection.skipped_no_lead,
              selection.skipped_golden_unsafe);

  // Show the top picks.
  std::printf("\ntop predicted-critical faults:\n");
  const std::size_t show = std::min<std::size_t>(10, selection.critical.size());
  for (std::size_t i = 0; i < show; ++i) {
    const auto& sf = selection.critical[i];
    std::printf(
        "  %-28s value=%8.2f  scenario=%zu scene=%zu  golden delta=%6.1f -> "
        "predicted delta=%6.1f\n",
        sf.fault.target.c_str(), sf.fault.value, sf.fault.scenario_index,
        sf.fault.scene_index, sf.golden_delta_lon, sf.prediction.delta_lon);
  }

  // Validate F_crit in full simulation; the selection record and every
  // replay stream to the JSONL sink when requested.
  std::printf("\nreplaying %zu selected faults in full simulation...\n",
              model->run_count());
  std::ofstream jsonl_file;
  std::vector<core::ResultSink*> sinks;
  std::unique_ptr<core::JsonlSink> jsonl;
  if (!jsonl_path.empty()) {
    jsonl_file.open(jsonl_path);
    if (!jsonl_file) {
      std::fprintf(stderr, "error: cannot open %s\n", jsonl_path.c_str());
      return 1;
    }
    jsonl = std::make_unique<core::JsonlSink>(jsonl_file);
    sinks.push_back(jsonl.get());
  }
  const core::CampaignStats replay = experiment.run(*model, sinks);
  core::outcome_table(replay).print("replay outcomes");
  std::printf("replay wall-clock: %.2f s for %zu runs (fork %s",
              replay.wall_seconds, replay.total(), fork_replays ? "on" : "off");
  if (experiment.forked_runs_executed() > 0)
    std::printf("; %zu forked, %zu spliced, mean %.4f s/run vs %.4f s full",
                experiment.forked_runs_executed(),
                experiment.spliced_runs_executed(),
                experiment.mean_forked_run_wall_seconds(),
                experiment.mean_run_wall_seconds());
  std::printf(")\n");
  core::validation_table(selection, replay, model->catalog().scene_count)
      .print("validation summary");
  if (!jsonl_path.empty())
    std::printf("wrote selection + %zu run records to %s\n", replay.total(),
                jsonl_path.c_str());
  return 0;
}
