/// \file
/// The fleet worker: connects to a coordinator, pulls leases of run
/// indices, executes them through the shared Experiment engine into its own
/// crash-safe local store, and streams each finished record back the moment
/// it is locally durable. The worker is deliberately stateless across
/// sittings beyond that local store: all campaign truth lives in the
/// coordinator's master store.
///
/// Fault tolerance: transport loss (socket death, torn frames, coordinator
/// kill -9) is TRANSIENT -- the worker keeps executing its current lease
/// offline (records spool to the local store exactly as before), then
/// reconnects with capped exponential backoff + seeded jitter, re-hellos,
/// and respools every locally durable record. Respooling is idempotent:
/// run identity is (campaign_seed, run_index), so the coordinator drops
/// already-stored copies as byte-identical no-ops. Only an explicit
/// protocol refusal (`error` reply: manifest/version mismatch) is FATAL.
/// Only an explicit `complete` message ends the campaign -- an EOF is
/// transport loss, never a verdict.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/campaign_stats.h"
#include "core/manifest.h"
#include "core/result_store.h"
#include "net/socket.h"

namespace drivefi::core {
class Experiment;
class FaultModel;
}  // namespace drivefi::core

namespace drivefi::coord {

struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Stable display name; empty = "worker-<pid>".
  std::string name;
  /// Local scratch store path; empty = "<name>.local.jsonl".
  /// Opened with kOverwrite -- the local store is per-sitting durability,
  /// not campaign truth, so clobbering a previous sitting's scratch is
  /// correct.
  std::string store_path;
  /// Executor threads, for the hello message only (the Experiment's own
  /// ExecutorConfig governs actual parallelism); 0 = resolve from it.
  unsigned threads = 0;
  /// Seconds between heartbeats while executing a lease; 0 = a third of
  /// the coordinator's advertised heartbeat_timeout.
  double heartbeat_interval = 0.0;
  /// Deadline for blocking protocol exchanges (connect, hello, lease).
  double io_timeout = 10.0;
  /// Consecutive failed (re)connect attempts before run() gives up and
  /// returns with WorkerStats::gave_up set. A successful re-hello resets
  /// the count.
  std::size_t reconnect_max_attempts = 20;
  /// First backoff delay; doubles per consecutive failure.
  double reconnect_base_delay = 0.1;
  /// Backoff ceiling (before jitter).
  double reconnect_max_delay = 2.0;
  /// Seed for backoff jitter (delays are scaled by a seeded uniform in
  /// [0.5, 1.5) so a killed coordinator's workers do not reconnect in
  /// lockstep); 0 = derive deterministically from `name`.
  std::uint64_t reconnect_jitter_seed = 0;
  /// TEST HOOK: after this many records have been executed, abruptly close
  /// the socket and return (simulating SIGKILL mid-lease); 0 = never.
  std::size_t abort_after_records = 0;
  /// TEST HOOK: wraps each freshly connected socket (chaos_test injects
  /// net::FaultyConnection here); empty = plain MessageConnection.
  std::function<std::unique_ptr<net::Connection>(net::TcpSocket)>
      decorate_connection;
};

struct WorkerStats {
  std::size_t runs_executed = 0;     ///< records executed this sitting
  std::size_t leases_completed = 0;  ///< lease_done acked by the coordinator
  std::size_t leases_revoked = 0;    ///< abandoned on lease_valid=false
  std::size_t reconnects = 0;        ///< successful re-hellos after a loss
  std::size_t records_respooled = 0; ///< local records replayed on re-hello
  bool aborted = false;              ///< abort_after_records fired
  bool gave_up = false;              ///< reconnect attempts exhausted
  double wall_seconds = 0.0;
};

/// One worker process's campaign session. Construct, then run() until the
/// coordinator reports the campaign complete (or the abort hook fires, or
/// reconnection gives up).
class WorkerClient {
 public:
  /// Builds the campaign manifest from (experiment, model, scenario_spec)
  /// with shard coordinates 0/1 -- it must hash-match the coordinator's or
  /// the hello is refused -- and opens the local store. Throws
  /// std::runtime_error on store I/O failure.
  WorkerClient(const core::Experiment& experiment,
               const core::FaultModel& model, std::string scenario_spec,
               WorkerConfig config);
  ~WorkerClient();

  const WorkerConfig& config() const { return config_; }
  const core::CampaignManifest& manifest() const { return manifest_; }

  /// Connects and works until `complete` (or abort, or gave_up). Throws
  /// std::runtime_error only on FATAL failures: protocol refusal (version
  /// or manifest mismatch) or store I/O failure. Transport loss is retried
  /// with backoff; exhausting the retries returns with gave_up set (the
  /// campaign may well complete without this worker). A lease revocation
  /// is NOT an error -- the worker abandons the lease and asks for the
  /// next one.
  WorkerStats run();

 private:
  const core::Experiment& experiment_;
  const core::FaultModel& model_;
  WorkerConfig config_;
  core::CampaignManifest manifest_;
  std::unique_ptr<core::ShardResultStore> store_;
};

}  // namespace drivefi::coord
