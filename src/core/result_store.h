/// \file
/// Durable per-shard campaign storage and the merge step that reassembles
/// shards into one campaign. A ShardResultStore is an append-only JSONL
/// file: line 1 is the campaign manifest (shard coordinates included),
/// every following line is one `{"type":"run",...}` record carrying its
/// global run_index. Appends flush line-by-line, so after a crash the file
/// holds every completed run plus at most one torn trailing line, which
/// reopening truncates. `merge_shards` validates a shard set (compatible
/// manifests, no duplicate or out-of-shard run_index, full coverage of
/// planned_runs) and rebuilds CampaignStats -- bit-identical to the
/// single-process, single-sitting campaign (enforced by
/// tests/determinism_test.cpp).
#pragma once

#include <cstddef>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/campaign_stats.h"
#include "core/manifest.h"

namespace drivefi::core {

/// One `{"type":"run",...}` JSONL line for a record (no trailing newline).
/// Shared by JsonlSink and the shard store so the two formats can never
/// drift apart -- byte-identical output is what makes merge equal the
/// single-process JSONL.
std::string run_record_jsonl(const InjectionRecord& record);

/// Inverse of run_record_jsonl. Doubles round-trip exactly (written with 17
/// significant digits). Throws std::runtime_error on malformed input.
InjectionRecord parse_run_record(const std::string& line);

/// How ShardResultStore treats an existing file at its path.
enum class StoreOpenMode {
  /// Create the store. REFUSES (std::runtime_error) to clobber an
  /// existing file that already holds run records -- rerunning a crashed
  /// shard without `--resume` must not destroy the durable work the
  /// store exists to protect. A manifest-only or missing file is fine.
  kFresh,
  /// Scan an existing store and continue it: the stored manifest must
  /// match, completed runs are indexed, a torn trailing line (crash
  /// mid-append) is truncated. A missing file opens as fresh.
  kResume,
  /// Explicitly discard any existing content and start over.
  kOverwrite,
};

/// The interface the engine (Experiment::run_shard / run_indices), the
/// fleet coordinator, and the worker append through. ShardResultStore is
/// the one durable implementation; the interface stays so a caller can
/// wrap a store (e.g. to time its appends) without the engine knowing.
class ShardStore {
 public:
  virtual ~ShardStore() = default;

  virtual const std::string& path() const = 0;
  virtual const CampaignManifest& manifest() const = 0;
  /// Run indices already present in the store (global campaign indices).
  virtual const std::set<std::size_t>& completed() const = 0;
  bool contains(std::size_t run_index) const {
    return completed().count(run_index) != 0;
  }

  /// Appends one record durably. Throws std::runtime_error if the
  /// record's run_index is outside this shard or already present, or if
  /// the write/flush fails (disk full, closed stream).
  virtual void append(const InjectionRecord& record) = 0;
};

/// Append-only, crash-tolerant result file for one shard of a campaign.
class ShardResultStore : public ShardStore {
 public:
  /// Opens `path` for shard `manifest.shard_index` of `manifest.shard_count`
  /// according to `mode` (see StoreOpenMode). On kResume, a stored manifest
  /// that does not match `manifest` (same campaign AND same shard
  /// coordinates) throws std::runtime_error naming the differing field.
  ///
  /// Throws std::runtime_error on I/O failure, corrupt records, duplicate
  /// run indices, or run indices outside this shard's residue class. Under
  /// kFresh and kResume it also throws, naming `path` and leaving the file
  /// untouched, when the file is not a store at all (non-empty, first byte
  /// not '{'); only kOverwrite discards such a file.
  ShardResultStore(std::string path, const CampaignManifest& manifest,
                   StoreOpenMode mode = StoreOpenMode::kFresh);

  const std::string& path() const override { return path_; }
  const CampaignManifest& manifest() const override { return manifest_; }

  /// Run indices already present in the store (global campaign indices).
  const std::set<std::size_t>& completed() const override {
    return completed_;
  }

  /// Appends one record and flushes it to the OS. Throws std::runtime_error
  /// if the record's run_index is outside this shard or already present,
  /// or if the write/flush fails (disk full, closed stream).
  void append(const InjectionRecord& record) override;

 private:
  std::string path_;
  CampaignManifest manifest_;
  std::set<std::size_t> completed_;
  std::ofstream out_;
};

/// Number of complete run records in a store file, without parsing record
/// payloads -- 0 for a missing, empty, or manifest-only file. Cheap enough
/// for a CLI pre-flight: the kFresh clobber refusal can fire before any
/// expensive campaign precompute is spent. Throws std::runtime_error
/// naming `path` when the file is not a store (non-empty, first byte not
/// '{'), so a foreign file is never mistaken for an empty one.
std::size_t stored_record_count(const std::string& path);

/// One shard file's parsed content.
struct ShardContent {
  CampaignManifest manifest;
  std::vector<InjectionRecord> records;  // file order
};

/// Reads and validates a single shard store file (manifest + records; a
/// torn trailing line is ignored). Throws std::runtime_error on corrupt
/// content or on a file that is not a store.
ShardContent read_shard(const std::string& path);

/// A reassembled campaign: the manifest with shard coordinates reset to
/// 0/1, and stats whose records are in global run-index order.
struct MergedCampaign {
  CampaignManifest manifest;
  CampaignStats stats;
};

/// Merges a complete shard set back into one campaign. Validates that all
/// manifests are compatible (same campaign), that every record's run_index
/// lies in its file's residue class, that no run_index appears twice across
/// the set, and that all of [0, planned_runs) is covered; throws
/// std::runtime_error (naming the offending file/index) otherwise. The
/// resulting CampaignStats is bit-identical to the uninterrupted
/// single-process campaign (stats.wall_seconds is the merge's own cost --
/// the one legitimately non-deterministic field).
MergedCampaign merge_shards(const std::vector<std::string>& paths);

/// Writes the canonical campaign JSONL (header + run records + summary) for
/// a merged campaign -- byte-identical, wall_seconds aside, to a JsonlSink
/// attached to the single-process run. One scoped exception: the Bayesian
/// `selection` record is an artifact of the live sitting (emitted by
/// FaultModel::describe, not stored per shard), so a single-process
/// bayesian stream carries it and merged output does not; run records,
/// header, and summary are byte-equal for every model. Throws
/// std::runtime_error on write failure.
void write_merged_jsonl(const MergedCampaign& merged, std::ostream& out);

}  // namespace drivefi::core
