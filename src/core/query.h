/// \file
/// Campaign analytics over durable stores: load one campaign from any set
/// of JSONL shard files (read_shard), then aggregate, look up, and diff
/// without re-running anything. Unlike merge_shards, loading
/// does NOT require a complete shard set: a campaign still in flight (or
/// a single shard of one) is queryable, so the coverage invariants here
/// are compatibility + no duplicates, never completeness. This is the
/// library behind the `drivefi_query` CLI (examples/drivefi_query.cpp);
/// golden-value coverage lives in tests/query_test.cpp.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/result_store.h"

namespace drivefi::core {

/// One campaign's records, loaded from 1..n shard files and ordered by
/// ascending run_index. `manifest` carries the campaign identity with
/// shard coordinates reset to 0/1 (like a merge); `complete` reports
/// whether every planned run is present.
struct CampaignView {
  CampaignManifest manifest;
  std::vector<InjectionRecord> records;  ///< ascending run_index
  std::vector<std::string> paths;        ///< the files loaded, as given

  bool complete() const {
    return records.size() == manifest.planned_runs;
  }
};

/// Loads and validates a shard set as ONE campaign: every manifest must be
/// compatible (same campaign), every record's run_index unique across the
/// set. Throws std::runtime_error (naming the offending file) on an empty
/// path list, incompatible manifests, or duplicates; an INCOMPLETE set is
/// fine (query what exists).
CampaignView load_campaign(const std::vector<std::string>& paths);

/// Per-outcome record counts (the paper's masked / SDC / hang / hazard
/// taxonomy).
struct OutcomeCounts {
  std::size_t masked = 0;
  std::size_t sdc_benign = 0;
  std::size_t hang = 0;
  std::size_t hazard = 0;

  std::size_t total() const { return masked + sdc_benign + hang + hazard; }
  std::size_t& of(Outcome outcome);
};

OutcomeCounts count_outcomes(const std::vector<InjectionRecord>& records);

/// Nearest-rank quantile: the smallest element with cumulative rank >=
/// q * n (q in [0, 1]; q = 0 is the minimum, q = 1 the maximum). Exact
/// order statistics -- no interpolation -- so golden-value tests can pin
/// results without float tolerance. Throws std::invalid_argument on an
/// empty vector or q outside [0, 1]. `values` is consumed (sorted).
double nearest_rank_quantile(std::vector<double> values, double q);

/// Order statistics of one record metric across a campaign.
struct MetricSummary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Which double field of InjectionRecord a summary/table ranges over.
enum class RecordMetric { kMinDeltaLon, kMaxActuationDivergence };

/// Summarizes `metric` over `records`. Throws std::invalid_argument when
/// `records` is empty (no order statistics of nothing).
MetricSummary summarize_metric(const std::vector<InjectionRecord>& records,
                               RecordMetric metric);

/// One row of the per-scenario violation table.
struct ScenarioRow {
  std::size_t scenario_index = 0;
  OutcomeCounts counts;
  /// Distinct scene indices of this scenario where a hazard manifested
  /// (the per-scenario slice of the paper's "safety-critical scenes").
  std::size_t hazard_scenes = 0;
  /// Worst (smallest) min_delta_lon seen in the scenario's records.
  double worst_min_delta_lon = 0.0;
};

/// Per-scenario outcome/violation table, ascending scenario_index. Only
/// scenarios with at least one record appear.
std::vector<ScenarioRow> scenario_table(const CampaignView& view);

/// O(log n) point lookup in an already loaded view (the load itself reads
/// every record). Returns false when the view has no such run.
bool lookup_run(const CampaignView& view, std::size_t run_index,
                InjectionRecord* record);

/// One run whose records differ between two campaigns.
struct DiffEntry {
  std::size_t run_index = 0;
  InjectionRecord a;
  InjectionRecord b;
  bool outcome_flipped = false;  ///< a.outcome != b.outcome
};

/// Field-by-field comparison of two campaigns over the SAME fault set.
struct CampaignDiff {
  std::vector<DiffEntry> changed;     ///< runs present in both, differing
  std::vector<std::size_t> only_a;    ///< run indices only campaign A holds
  std::vector<std::size_t> only_b;
  std::size_t compared = 0;           ///< runs present in both

  bool identical() const {
    return changed.empty() && only_a.empty() && only_b.empty();
  }
};

/// Diffs two campaigns run-by-run. The two views must inject the SAME
/// fault set -- model, model_params, planned_runs, and scenario_hash must
/// match (throws std::runtime_error otherwise) -- while pipeline_seed,
/// config_hash, and hold_scenes MAY differ: comparing one fault campaign
/// across ADS configurations is the point. Records are compared
/// bit-exactly (doubles by bit pattern), so a diff of two runs of the
/// same campaign is empty by the determinism contract.
CampaignDiff diff_campaigns(const CampaignView& a, const CampaignView& b);

}  // namespace drivefi::core
