// drivefi_campaignd: the fleet coordinator daemon. Owns one campaign's
// authoritative merged store, leases run-index batches to workers
// (drivefi_campaign worker --connect), re-grants leases whose workers die
// or stall (work stealing), and streams a live fleet status line. When the
// last planned run is durably stored it notifies the fleet, optionally
// writes the canonical campaign JSONL, prints the outcome table, and
// exits 0.
//
//   drivefi_campaignd [campaign options] [daemon options]
//     (campaign options: see campaign_cli.h -- MUST match the workers')
//     --listen HOST:PORT   bind address (default 127.0.0.1:0 = ephemeral)
//     --port-file FILE     write the bound port (scripts + ephemeral ports)
//     --store FILE         JSONL master store path (default
//                          campaign.master.jsonl)
//     --resume             continue an interrupted campaign's master store.
//                          This is the crash-recovery path: after a kill -9
//                          the daemon rebuilds all state from the store
//                          (completed indices are done; in-flight leases
//                          died with the process and are simply re-granted
//                          -- safe because duplicates are byte-identical
//                          no-ops), re-listens, and accepts reconnecting
//                          workers as if nothing happened.
//     --overwrite          discard an existing master store
//     --lease-runs N       run indices per lease (default 16)
//     --heartbeat-timeout S  seconds of silence before a lease is re-granted
//                          (default 5)
//     --jsonl OUT          write the canonical campaign JSONL on completion
//     --quiet              no live progress line
//     --metrics-out FILE   periodic fleet metrics snapshots (JSONL)
//     --metrics-interval S snapshot cadence in seconds (default 1)
//     --trace-out FILE     Chrome trace-event JSON of coordinator spans
//     A final {"type":"telemetry"} summary line lands on stderr at exit;
//     `drivefi_campaign status --connect HOST:PORT` queries a live fleet.
//
// The merged output is byte-identical (wall_seconds aside) to
// `drivefi_campaign run` of the same campaign -- regardless of worker
// count, lease movement, steals, or workers killed mid-lease. That is the
// determinism contract, and tests/determinism_test.cpp plus
// scripts/fleet_e2e.sh hold the daemon to it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "campaign_cli.h"
#include "coord/coordinator.h"
#include "core/manifest.h"
#include "core/report.h"
#include "core/result_store.h"
#include "obs/metrics.h"
#include "obs/span.h"

using namespace drivefi;

int main(int argc, char** argv) {
  campaign_cli::CampaignArgs args;
  coord::CoordinatorConfig config;
  std::string store_path;
  std::string port_file, jsonl_path, trace_out;
  bool resume = false, overwrite = false, quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (campaign_cli::parse_campaign_flag(args, arg, next)) continue;
    if (arg == "--listen")
      campaign_cli::parse_host_port(arg, next(), &config.host, &config.port);
    else if (arg == "--port-file") port_file = next();
    else if (arg == "--store") store_path = next();
    else if (arg == "--resume") resume = true;
    else if (arg == "--overwrite") overwrite = true;
    else if (arg == "--lease-runs")
      config.lease_runs = campaign_cli::parse_u64_flag(arg, next());
    else if (arg == "--heartbeat-timeout")
      config.heartbeat_timeout = campaign_cli::parse_seconds_flag(arg, next());
    else if (arg == "--jsonl") jsonl_path = next();
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--metrics-out") config.metrics_out = next();
    else if (arg == "--metrics-interval")
      config.metrics_interval_seconds =
          campaign_cli::parse_seconds_flag(arg, next());
    else if (arg == "--trace-out") trace_out = next();
    else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (resume && overwrite) {
    std::fprintf(stderr, "error: --resume and --overwrite are exclusive\n");
    return 2;
  }
  config.print_progress = !quiet;
  if (store_path.empty()) store_path = "campaign.master.jsonl";

  try {
    if (!trace_out.empty()) obs::start_tracing(trace_out);
    // Same pre-flight as `run`: refuse to clobber durable work before the
    // golden precompute is spent.
    if (!resume && !overwrite &&
        core::stored_record_count(store_path) > 0) {
      std::fprintf(stderr,
                   "error: refusing to overwrite %s: it already holds run "
                   "records; resume it (--resume) or discard it explicitly "
                   "(--overwrite)\n",
                   store_path.c_str());
      return 1;
    }

    campaign_cli::CampaignSetup setup =
        campaign_cli::build_campaign(args, quiet);
    const core::CampaignManifest manifest = core::make_manifest(
        *setup.experiment, *setup.model, setup.scenario_spec);

    const core::StoreOpenMode mode =
        resume ? core::StoreOpenMode::kResume
               : overwrite ? core::StoreOpenMode::kOverwrite
                           : core::StoreOpenMode::kFresh;
    core::ShardResultStore store(store_path, manifest, mode);
    if (resume && !store.completed().empty() && !quiet)
      std::printf("resuming %s: %zu of %zu runs already stored\n",
                  store_path.c_str(), store.completed().size(),
                  manifest.planned_runs);

    coord::Coordinator coordinator(manifest, store, config);
    if (!port_file.empty()) {
      std::ofstream out(port_file, std::ios::trunc);
      out << coordinator.port() << "\n";
      if (!out.flush()) {
        std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
        return 1;
      }
    }
    std::printf("coordinator listening on %s:%u  (%zu of %zu runs stored; "
                "lease %zu runs, heartbeat timeout %.1f s)\n",
                config.host.c_str(), coordinator.port(),
                store.completed().size(), manifest.planned_runs,
                config.lease_runs, config.heartbeat_timeout);
    std::fflush(stdout);

    const coord::FleetStats fleet = coordinator.serve();
    if (!trace_out.empty()) obs::stop_tracing();
    std::fprintf(stderr, "%s\n",
                 obs::telemetry_jsonl(fleet.wall_seconds).c_str());
    std::printf("fleet campaign complete: %zu runs stored this sitting "
                "(%zu resumed from the store, %zu duplicates dropped), "
                "%zu leases granted / %zu expired / %zu stolen, %zu workers, "
                "%.2f s\n",
                fleet.runs_completed, fleet.resumed_runs,
                fleet.duplicates_dropped, fleet.leases_granted,
                fleet.leases_expired, fleet.leases_stolen, fleet.workers_seen,
                fleet.wall_seconds);

    const core::MergedCampaign merged = core::merge_shards({store_path});
    core::outcome_table(merged.stats).print("campaign outcomes");
    if (!jsonl_path.empty()) {
      std::ofstream out(jsonl_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s\n", jsonl_path.c_str());
        return 1;
      }
      core::write_merged_jsonl(merged, out);
      std::printf("wrote canonical campaign JSONL to %s\n",
                  jsonl_path.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
