// Contrast random fault injection with Bayesian fault selection on the
// same budget -- the paper's central claim: random FI essentially never
// finds safety-critical faults, Bayesian FI finds them immediately.
//
//   ./random_vs_bayesian [budget] [options]
//     --fork / --no-fork      toggle fork-from-golden replay (default: on)
//     --checkpoint-stride N   scenes between golden checkpoints (default 4)
//
// This walkthrough contrasts the two models side by side; to run either
// model as a durable, shardable, resumable campaign use the unified CLI:
// `drivefi_campaign run --model random-value|random-bitflip|bayesian ...`
// (examples/drivefi_campaign.cpp).
#include <cstdio>
#include <string>

#include "campaign_cli.h"
#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/report.h"
#include "core/selector.h"
#include "sim/scenario.h"

using namespace drivefi;

int main(int argc, char** argv) {
  std::size_t budget = 30;
  bool fork_replays = true;
  std::size_t checkpoint_stride = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fork") {
      fork_replays = true;
    } else if (arg == "--no-fork") {
      fork_replays = false;
    } else if (arg == "--checkpoint-stride") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --checkpoint-stride needs a value\n");
        return 2;
      }
      checkpoint_stride = campaign_cli::parse_u64_flag(arg, argv[++i]);
    } else if (arg.rfind("--", 0) != 0) {
      budget = campaign_cli::parse_u64_flag("budget", arg);
    } else {
      std::fprintf(stderr, "error: unexpected argument %s\n", arg.c_str());
      return 2;
    }
  }

  std::vector<sim::Scenario> suite = {sim::example1_lead_lane_change(),
                                      sim::base_suite()[2],
                                      sim::base_suite()[4]};
  ads::PipelineConfig config;
  config.seed = 11;
  core::ExperimentOptions options;
  options.fork_replays = fork_replays;
  options.checkpoint_stride = checkpoint_stride;
  const core::Experiment experiment(suite, config, {}, options);
  std::printf("fork-from-golden replay %s (checkpoint stride %zu)\n",
              fork_replays ? "on" : "off", checkpoint_stride);

  // --- Random FI with `budget` injections ---
  std::printf("random value-corruption campaign (%zu injections)...\n",
              budget);
  const core::CampaignStats random_stats =
      experiment.run(core::RandomValueModel(budget, 1234));
  core::outcome_table(random_stats).print("random FI outcomes");
  std::printf("random campaign wall-clock: %.2f s\n",
              random_stats.wall_seconds);

  // --- Bayesian FI replaying its top `budget` picks: the whole DriveFI
  // loop (fit -> parallel select -> replay) is one fault model. ---
  std::printf("\nBayesian selection + replay (%zu replays)...\n", budget);
  core::BayesianCampaignConfig campaign;
  campaign.max_replays = budget;
  const core::BayesianFaultModel bayes_model(experiment, campaign);
  const core::CampaignStats bayes_stats = experiment.run(bayes_model);
  core::outcome_table(bayes_stats).print("Bayesian FI outcomes");
  std::printf("Bayesian replay wall-clock: %.2f s\n", bayes_stats.wall_seconds);

  if (experiment.forked_runs_executed() > 0)
    std::printf("\nforked replays: %zu (%zu spliced), mean %.4f s/run vs "
                "%.4f s full-sim\n",
                experiment.forked_runs_executed(),
                experiment.spliced_runs_executed(),
                experiment.mean_forked_run_wall_seconds(),
                experiment.mean_run_wall_seconds());

  std::printf("\nhazards found -- random: %zu / %zu, Bayesian: %zu / %zu\n",
              random_stats.hazard, random_stats.total(), bayes_stats.hazard,
              bayes_stats.total());
  return 0;
}
