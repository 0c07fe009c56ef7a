// Shared campaign-construction CLI code for the fleet-capable tools:
// drivefi_campaign (run / worker / merge) and drivefi_campaignd (the
// coordinator daemon) must build the Experiment and FaultModel from the
// SAME flags, or a worker launched with subtly different options would be
// refused at hello (manifest hash mismatch) -- or worse, not exist to
// refuse. One flag table, one builder, no drift. The strict number
// parsing below is shared by every drivefi_* CLI, drivefi_query included.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "core/selector.h"
#include "scenario/dsl.h"
#include "sim/scenario.h"

namespace campaign_cli {

/// Parses the unsigned value of `flag` strictly (core::parse_u64_strict:
/// digits only, so no sign, no trailing bytes, no overflow) and at most
/// `max`. Anything else is an error naming the flag: exit status 2.
inline std::uint64_t parse_u64_flag(
    const std::string& flag, const std::string& value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t out = 0;
  try {
    out = drivefi::core::parse_u64_strict(value, flag);
  } catch (const std::exception&) {
    std::fprintf(stderr, "error: %s wants an unsigned integer, got '%s'\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  if (out > max) {
    std::fprintf(stderr, "error: %s must be at most %llu, got %s\n",
                 flag.c_str(), static_cast<unsigned long long>(max),
                 value.c_str());
    std::exit(2);
  }
  return out;
}

/// Parses a duration in seconds (core::parse_double_strict) that must be
/// finite and non-negative. Anything else is an error naming the flag:
/// exit status 2.
inline double parse_seconds_flag(const std::string& flag,
                                 const std::string& value) {
  double out = 0.0;
  bool parsed = true;
  try {
    out = drivefi::core::parse_double_strict(value, flag);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed || !std::isfinite(out) || out < 0.0) {
    std::fprintf(stderr,
                 "error: %s wants a non-negative number of seconds, got "
                 "'%s'\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  return out;
}

/// Every flag that feeds the campaign manifest (and thus the fleet
/// compatibility hash), plus the cost-only knobs.
struct CampaignArgs {
  std::string model_name = "random-value";
  std::size_t runs = 60;
  std::uint64_t seed = 1234;
  unsigned bits = 1;
  std::size_t replays = 25;
  std::string load_bn, save_bn, scn_path;
  std::size_t scenarios_limit = 0;
  std::uint64_t pipeline_seed = 7;
  unsigned threads = 0;
  bool fork_replays = true;
  std::size_t checkpoint_stride = 4;
};

inline const char* kCampaignFlagHelp =
    "  --model M            random-value | random-bitflip | bayesian\n"
    "                       (default: random-value)\n"
    "  --runs N             campaign size for the random models (default 60)\n"
    "  --seed S             campaign seed (default 1234)\n"
    "  --bits B             flipped bits per injection (1..64), random-bitflip\n"
    "                       only (default 1)\n"
    "  --replays N          bayesian: replay the top N of F_crit (default 25)\n"
    "  --load-bn FILE       bayesian: reuse a fitted predictor (no refit)\n"
    "  --save-bn FILE       bayesian: persist the fitted predictor\n"
    "  --scn FILE           load the scenario corpus from a .scn suite\n"
    "  --scenarios K        truncate the corpus to its first K scenarios\n"
    "  --pipeline-seed S    sensor-noise seed (default 7)\n"
    "  --threads N          worker threads (0 = all hardware)\n"
    "  --fork / --no-fork   fork-from-golden replay (default: on)\n"
    "  --checkpoint-stride N  scenes between golden checkpoints (default 4)\n";

/// Consumes one campaign flag; returns false when `arg` is not a campaign
/// flag (the caller handles its own). `next` yields the flag's value. A
/// malformed number exits with status 2 (parse_u64_flag).
inline bool parse_campaign_flag(CampaignArgs& a, const std::string& arg,
                                const std::function<const char*()>& next) {
  const auto count = [&] { return parse_u64_flag(arg, next()); };
  const auto small = [&] {
    return static_cast<unsigned>(
        parse_u64_flag(arg, next(), std::numeric_limits<unsigned>::max()));
  };
  // BitFlipModel owns the range of --bits; checked here, before the golden
  // precompute, so a bad value costs nothing.
  const auto bit_count = [&] {
    try {
      return drivefi::core::BitFlipModel::checked_bits(count());
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "error: %s: %s\n", arg.c_str(), error.what());
      std::exit(2);
    }
  };
  if (arg == "--model") a.model_name = next();
  else if (arg == "--runs") a.runs = count();
  else if (arg == "--seed") a.seed = count();
  else if (arg == "--bits") a.bits = bit_count();
  else if (arg == "--replays") a.replays = count();
  else if (arg == "--load-bn") a.load_bn = next();
  else if (arg == "--save-bn") a.save_bn = next();
  else if (arg == "--scn") a.scn_path = next();
  else if (arg == "--scenarios") a.scenarios_limit = count();
  else if (arg == "--pipeline-seed") a.pipeline_seed = count();
  else if (arg == "--threads") a.threads = small();
  else if (arg == "--fork") a.fork_replays = true;
  else if (arg == "--no-fork") a.fork_replays = false;
  else if (arg == "--checkpoint-stride") a.checkpoint_stride = count();
  else return false;
  return true;
}

/// A fully constructed campaign: corpus, engine, fault model.
struct CampaignSetup {
  std::string scenario_spec;
  std::unique_ptr<drivefi::core::Experiment> experiment;
  std::unique_ptr<drivefi::core::FaultModel> model;
};

/// Builds the suite, the Experiment (golden precompute happens here), and
/// the fault model. Prints setup narration unless `quiet`. Exits with
/// status 2 on an unknown model name.
inline CampaignSetup build_campaign(const CampaignArgs& a, bool quiet) {
  using namespace drivefi;
  CampaignSetup setup;

  std::vector<sim::Scenario> suite = a.scn_path.empty()
                                         ? sim::base_suite()
                                         : scenario::load_suite(a.scn_path);
  setup.scenario_spec = a.scn_path.empty() ? "builtin:base" : a.scn_path;
  if (a.scenarios_limit > 0 && a.scenarios_limit < suite.size()) {
    suite.resize(a.scenarios_limit);
    setup.scenario_spec += ":";
    setup.scenario_spec += std::to_string(a.scenarios_limit);
  }

  ads::PipelineConfig config;
  config.seed = a.pipeline_seed;
  core::ExperimentOptions options;
  options.executor.threads = a.threads;
  options.fork_replays = a.fork_replays;
  options.checkpoint_stride = a.checkpoint_stride;

  if (!quiet)
    std::printf("running %zu golden scenarios (%s)...\n", suite.size(),
                setup.scenario_spec.c_str());
  setup.experiment =
      std::make_unique<core::Experiment>(suite, config, core::ClassifierConfig{},
                                         options);

  if (a.model_name == "random-value") {
    setup.model = std::make_unique<core::RandomValueModel>(a.runs, a.seed);
  } else if (a.model_name == "random-bitflip") {
    setup.model =
        std::make_unique<core::BitFlipModel>(a.runs, a.seed, a.bits);
  } else if (a.model_name == "bayesian") {
    core::BayesianCampaignConfig campaign;
    campaign.max_replays = a.replays;
    campaign.selection.executor.threads = a.threads;
    std::unique_ptr<core::BayesianFaultModel> bayes;
    if (!a.load_bn.empty()) {
      if (!quiet)
        std::printf("loading fitted predictor from %s (no refit)...\n",
                    a.load_bn.c_str());
      auto predictor = std::make_shared<const core::SafetyPredictor>(
          core::load_predictor(a.load_bn));
      bayes = std::make_unique<core::BayesianFaultModel>(*setup.experiment,
                                                         predictor, campaign);
    } else {
      if (!quiet)
        std::printf("fitting the %d-TBN on golden traces...\n",
                    campaign.predictor.slices);
      bayes =
          std::make_unique<core::BayesianFaultModel>(*setup.experiment, campaign);
    }
    if (!a.save_bn.empty()) {
      core::save_predictor(bayes->predictor(), a.save_bn);
      if (!quiet)
        std::printf("saved fitted predictor to %s\n", a.save_bn.c_str());
    }
    if (!quiet) {
      const core::SelectionResult& selection = bayes->selection();
      std::printf("Bayesian selection: %zu critical faults (%zu BN inferences, "
                  "replaying top %zu)\n",
                  selection.critical.size(), selection.inference_calls,
                  bayes->run_count());
    }
    setup.model = std::move(bayes);
  } else {
    std::fprintf(stderr, "error: unknown model %s\n", a.model_name.c_str());
    std::exit(2);
  }
  return setup;
}

/// Parses the "host:port" value of `flag` (port required, 0..65535).
/// Exits with status 2, naming the flag, on malformed input.
inline void parse_host_port(const std::string& flag, const std::string& value,
                            std::string* host, std::uint16_t* port) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon + 1 >= value.size()) {
    std::fprintf(stderr, "error: %s wants HOST:PORT, got '%s'\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  *host = value.substr(0, colon);
  *port = static_cast<std::uint16_t>(
      parse_u64_flag(flag + " port", value.substr(colon + 1),
                     std::numeric_limits<std::uint16_t>::max()));
}

}  // namespace campaign_cli
