#include "core/result_store.h"

#include <chrono>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include "core/jsonl.h"
#include "core/result_sink.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace drivefi::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("result_store: " + what);
}

}  // namespace

std::string run_record_jsonl(const InjectionRecord& record) {
  std::ostringstream out;
  out << "{\"type\":\"run\",\"run_index\":" << record.run_index
      << ",\"description\":\"" << json_escape(record.description)
      << "\",\"scenario_index\":" << record.scenario_index
      << ",\"scene_index\":" << record.scene_index << ",\"outcome\":\""
      << outcome_name(record.outcome) << "\",\"min_delta_lon\":"
      << std::setprecision(17) << record.min_delta_lon
      << ",\"max_actuation_divergence\":" << record.max_actuation_divergence
      << "}";
  return out.str();
}

InjectionRecord parse_run_record(const std::string& line) {
  const JsonLine json(line);
  if (!json.has("type") || json.get_string("type") != "run")
    fail("not a run record: " + line);
  InjectionRecord record;
  record.run_index = json.get_u64("run_index");
  record.description = json.get_string("description");
  record.scenario_index = json.get_u64("scenario_index");
  record.scene_index = json.get_u64("scene_index");
  const std::string outcome = json.get_string("outcome");
  if (!outcome_from_name(outcome, &record.outcome))
    fail("unknown outcome \"" + outcome + "\" in: " + line);
  record.min_delta_lon = json.get_double("min_delta_lon");
  record.max_actuation_divergence = json.get_double("max_actuation_divergence");
  return record;
}

namespace {

// Splits `text` into complete (newline-terminated) lines; returns the byte
// offset one past the last complete line, so a torn trailing line (crash
// mid-append) is excluded and can be truncated away.
std::size_t complete_lines(const std::string& text,
                           std::vector<std::string>* lines) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t newline = text.find('\n', start);
    if (newline == std::string::npos) return start;
    lines->push_back(text.substr(start, newline - start));
    start = newline + 1;
  }
}

// Reads a whole store file. Every store opens with its manifest line, so
// a non-empty file whose first byte is not '{' is something else (a
// foreign or truncated-to-garbage file): refuse it before anything counts
// its newlines as records or truncates it.
std::string read_store_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  if (in.bad()) fail("read error on " + path);
  std::string text = content.str();
  if (!text.empty() && text.front() != '{')
    fail(path + ": not a JSONL store (first byte is not '{'); refusing to "
         "read or overwrite it");
  return text;
}

// Validates that a record belongs to the shard its file claims to hold
// (run_index inside the campaign AND in the shard's residue class).
void check_record_membership(const InjectionRecord& record,
                             const CampaignManifest& manifest,
                             const std::string& path) {
  if (record.run_index >= manifest.planned_runs)
    fail(path + ": run_index " + std::to_string(record.run_index) +
         " is outside the campaign (planned_runs " +
         std::to_string(manifest.planned_runs) + ")");
  if (record.run_index % manifest.shard_count != manifest.shard_index)
    fail(path + ": run_index " + std::to_string(record.run_index) +
         " does not belong to shard " + std::to_string(manifest.shard_index) +
         "/" + std::to_string(manifest.shard_count));
}

}  // namespace

std::size_t stored_record_count(const std::string& path) {
  if (!std::filesystem::exists(path)) return 0;
  std::vector<std::string> lines;
  complete_lines(read_store_file(path), &lines);
  return lines.size() <= 1 ? 0 : lines.size() - 1;
}

ShardResultStore::ShardResultStore(std::string path,
                                   const CampaignManifest& manifest,
                                   StoreOpenMode mode)
    : path_(std::move(path)), manifest_(manifest) {
  if (manifest_.shard_count == 0 || manifest_.shard_index >= manifest_.shard_count)
    fail("invalid shard coordinates " + std::to_string(manifest_.shard_index) +
         "/" + std::to_string(manifest_.shard_count));

  namespace fs = std::filesystem;
  if (mode == StoreOpenMode::kFresh) {
    // Guard the durable work: an operator rerunning a crashed shard who
    // forgot --resume must not wipe thousands of completed runs.
    const std::size_t records = stored_record_count(path_);
    if (records > 0)
      fail("refusing to overwrite " + path_ + ": it already holds " +
           std::to_string(records) +
           " run record(s); resume it (--resume), discard it explicitly "
           "(--overwrite), or delete the file");
  }

  const bool exists = mode == StoreOpenMode::kResume && fs::exists(path_);
  if (exists) {
    const std::string text = read_store_file(path_);
    std::vector<std::string> lines;
    const std::size_t valid_end = complete_lines(text, &lines);

    if (lines.empty()) {
      // Nothing durable yet (empty file, or a crash tore the manifest line
      // itself): start the store over.
      fs::resize_file(path_, 0);
    } else {
      const CampaignManifest stored = CampaignManifest::parse(lines.front());
      const std::string reason = manifest_.mismatch_reason(stored);
      if (!reason.empty())
        fail(path_ + ": stored manifest does not match this campaign: " +
             reason);
      if (stored.shard_index != manifest_.shard_index ||
          stored.shard_count != manifest_.shard_count)
        fail(path_ + ": stored shard coordinates " +
             std::to_string(stored.shard_index) + "/" +
             std::to_string(stored.shard_count) + " do not match requested " +
             std::to_string(manifest_.shard_index) + "/" +
             std::to_string(manifest_.shard_count));

      for (std::size_t i = 1; i < lines.size(); ++i) {
        const InjectionRecord record = parse_run_record(lines[i]);
        check_record_membership(record, manifest_, path_);
        if (!completed_.insert(record.run_index).second)
          fail(path_ + ": duplicate run_index " +
               std::to_string(record.run_index));
      }
      // Drop the torn trailing line, if any, before reopening for append.
      if (valid_end < text.size()) {
        obs::metrics().counter("store.torn_truncations").add();
        fs::resize_file(path_, valid_end);
      }
    }
  }

  const bool fresh = !exists || completed_.empty();
  out_.open(path_, fresh ? (std::ios::binary | std::ios::trunc)
                         : (std::ios::binary | std::ios::app));
  if (!out_) fail("cannot open " + path_ + " for writing");
  if (fresh) {
    out_ << manifest_.to_jsonl() << '\n';
    out_.flush();
    if (!out_) fail("write failed on " + path_);
  }
}

void ShardResultStore::append(const InjectionRecord& record) {
  DFI_SPAN("store.append");
  check_record_membership(record, manifest_, path_);
  if (contains(record.run_index))
    fail(path_ + ": run_index " + std::to_string(record.run_index) +
         " already stored");
  const auto start = std::chrono::steady_clock::now();
  out_ << run_record_jsonl(record) << '\n';
  out_.flush();
  if (!out_) fail("write failed on " + path_ + " (disk full or closed?)");
  completed_.insert(record.run_index);
  static obs::Counter& appends_metric = obs::metrics().counter("store.appends");
  static obs::Histogram& append_hist =
      obs::metrics().histogram("store.append_seconds");
  appends_metric.add();
  append_hist.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

ShardContent read_shard(const std::string& path) {
  const std::string text = read_store_file(path);
  std::vector<std::string> lines;
  complete_lines(text, &lines);
  if (lines.empty()) fail(path + ": no manifest line (empty or torn store)");

  ShardContent content;
  content.manifest = CampaignManifest::parse(lines.front());
  content.records.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    content.records.push_back(parse_run_record(lines[i]));
    check_record_membership(content.records.back(), content.manifest, path);
  }
  return content;
}

MergedCampaign merge_shards(const std::vector<std::string>& paths) {
  const auto start = std::chrono::steady_clock::now();
  if (paths.empty()) fail("merge needs at least one shard file");

  MergedCampaign merged;
  std::vector<const InjectionRecord*> by_index;
  std::vector<ShardContent> shards;
  shards.reserve(paths.size());

  for (std::size_t s = 0; s < paths.size(); ++s) {
    shards.push_back(read_shard(paths[s]));
    const ShardContent& shard = shards.back();
    if (s == 0) {
      merged.manifest = shard.manifest;
      by_index.assign(merged.manifest.planned_runs, nullptr);
    } else {
      const std::string reason =
          merged.manifest.mismatch_reason(shard.manifest);
      if (!reason.empty())
        fail(paths[s] + ": shard belongs to a different campaign: " + reason);
      if (shard.manifest.shard_count != merged.manifest.shard_count)
        fail(paths[s] + ": shard_count " +
             std::to_string(shard.manifest.shard_count) +
             " does not match the set's " +
             std::to_string(merged.manifest.shard_count));
    }
    for (const InjectionRecord& record : shard.records) {
      if (by_index[record.run_index] != nullptr)
        fail(paths[s] + ": duplicate run_index " +
             std::to_string(record.run_index) + " across the shard set");
      by_index[record.run_index] = &record;
    }
  }

  for (std::size_t r = 0; r < by_index.size(); ++r)
    if (by_index[r] == nullptr)
      fail("incomplete shard set: run_index " + std::to_string(r) +
           " is missing (campaign has " + std::to_string(by_index.size()) +
           " planned runs)");

  merged.stats.records.reserve(by_index.size());
  for (const InjectionRecord* record : by_index) merged.stats.add(*record);

  merged.manifest.shard_index = 0;
  merged.manifest.shard_count = 1;
  merged.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return merged;
}

void write_merged_jsonl(const MergedCampaign& merged, std::ostream& out) {
  // Route through the ordinary JsonlSink so the merged file can never
  // drift from what the single-process campaign would have streamed.
  JsonlSink sink(out);
  CampaignMeta meta;
  meta.model_name = merged.manifest.model;
  meta.planned_runs = merged.manifest.planned_runs;
  sink.begin(meta);
  for (const InjectionRecord& record : merged.stats.records)
    sink.consume(record);
  sink.finish(merged.stats);
}

}  // namespace drivefi::core
