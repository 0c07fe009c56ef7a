// Golden-value coverage of the campaign analytics layer (core/query.h):
// hand-computed outcome counts and nearest-rank quantiles over a fixed
// 20-run campaign, the per-scenario violation table, point lookup, diff
// detection (flipped outcome, drifted metric, missing
// runs), and the refusal paths (empty/missing/duplicate stores,
// cross-campaign loads and diffs).
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "core/query.h"
#include "core/result_store.h"
#include "util/bits.h"

namespace drivefi::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / ("drivefi_query_" + name)).string();
}

CampaignManifest make_manifest_for_test(std::size_t planned) {
  CampaignManifest m;
  m.model = "random-value";
  m.model_params = "n=" + std::to_string(planned) + " seed=2024";
  m.planned_runs = planned;
  m.scenario_spec = "test";
  m.scenario_hash = 0xfeedbeefULL;
  m.pipeline_seed = 11;
  m.hold_scenes = 2.0;
  return m;
}

// The fixed 20-run campaign every golden value below is computed from:
//   outcome        = r % 4   (5 of each)
//   scenario_index = r % 3   (7 / 7 / 6 runs)
//   scene_index    = r / 4
//   min_delta_lon  = r + 1   (1..20)
//   max_actuation_divergence = 0.5 * r
InjectionRecord golden_record(std::size_t r) {
  InjectionRecord record;
  record.run_index = r;
  record.description = "golden #" + std::to_string(r);
  record.scenario_index = r % 3;
  record.scene_index = r / 4;
  record.outcome = static_cast<Outcome>(r % 4);
  record.min_delta_lon = static_cast<double>(r + 1);
  record.max_actuation_divergence = 0.5 * static_cast<double>(r);
  return record;
}

// Writes the golden campaign into a store and returns its path.
std::string write_golden_store(const std::string& name) {
  const std::string path = temp_path(name);
  ShardResultStore store(path, make_manifest_for_test(20),
                         StoreOpenMode::kOverwrite);
  for (std::size_t r = 0; r < 20; ++r) store.append(golden_record(r));
  return path;
}

TEST(Query, GoldenAggregationsOnTheFixedCampaign) {
  const CampaignView view = load_campaign({write_golden_store("golden.jsonl")});
  EXPECT_TRUE(view.complete());
  ASSERT_EQ(view.records.size(), 20u);

  const OutcomeCounts counts = count_outcomes(view.records);
  EXPECT_EQ(counts.masked, 5u);
  EXPECT_EQ(counts.sdc_benign, 5u);
  EXPECT_EQ(counts.hang, 5u);
  EXPECT_EQ(counts.hazard, 5u);
  EXPECT_EQ(counts.total(), 20u);

  // Nearest-rank over min_delta_lon = {1..20}: rank ceil(q*20), 1-based.
  const MetricSummary summary =
      summarize_metric(view.records, RecordMetric::kMinDeltaLon);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 20.0);
  EXPECT_DOUBLE_EQ(summary.mean, 10.5);
  EXPECT_DOUBLE_EQ(summary.p50, 10.0);   // rank 10
  EXPECT_DOUBLE_EQ(summary.p90, 18.0);   // rank 18
  EXPECT_DOUBLE_EQ(summary.p99, 20.0);   // rank ceil(19.8) = 20

  const MetricSummary divergence =
      summarize_metric(view.records, RecordMetric::kMaxActuationDivergence);
  EXPECT_DOUBLE_EQ(divergence.min, 0.0);
  EXPECT_DOUBLE_EQ(divergence.max, 9.5);
  EXPECT_DOUBLE_EQ(divergence.p50, 4.5);  // rank 10 of {0, 0.5, .., 9.5}
}

TEST(Query, QuantileEdgeCases) {
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_THROW(nearest_rank_quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(nearest_rank_quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(nearest_rank_quantile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(summarize_metric({}, RecordMetric::kMinDeltaLon),
               std::invalid_argument);
}

TEST(Query, ScenarioTableGoldenRows) {
  const CampaignView view =
      load_campaign({write_golden_store("scenarios.jsonl")});
  const std::vector<ScenarioRow> table = scenario_table(view);
  ASSERT_EQ(table.size(), 3u);

  // Scenario 0 holds runs {0,3,6,9,12,15,18} -> outcomes {0,3,2,1,0,3,2}.
  EXPECT_EQ(table[0].scenario_index, 0u);
  EXPECT_EQ(table[0].counts.total(), 7u);
  EXPECT_EQ(table[0].counts.masked, 2u);
  EXPECT_EQ(table[0].counts.sdc_benign, 1u);
  EXPECT_EQ(table[0].counts.hang, 2u);
  EXPECT_EQ(table[0].counts.hazard, 2u);
  // Its hazards are runs 3 (scene 0) and 15 (scene 3): 2 distinct scenes.
  EXPECT_EQ(table[0].hazard_scenes, 2u);
  EXPECT_DOUBLE_EQ(table[0].worst_min_delta_lon, 1.0);  // run 0

  EXPECT_EQ(table[1].counts.total(), 7u);
  EXPECT_EQ(table[1].hazard_scenes, 2u);  // runs 7 (scene 1), 19 (scene 4)
  EXPECT_DOUBLE_EQ(table[1].worst_min_delta_lon, 2.0);

  EXPECT_EQ(table[2].counts.total(), 6u);
  EXPECT_EQ(table[2].hazard_scenes, 1u);  // run 11 (scene 2)
  EXPECT_DOUBLE_EQ(table[2].worst_min_delta_lon, 3.0);
}

TEST(Query, LookupFindsTheStoredRecord) {
  const CampaignView view = load_campaign({write_golden_store("lookup.jsonl")});

  InjectionRecord record;
  ASSERT_TRUE(lookup_run(view, 13, &record));
  EXPECT_EQ(run_record_jsonl(record), run_record_jsonl(golden_record(13)));
  EXPECT_EQ(record.description, "golden #13");
  EXPECT_TRUE(util::bits_equal(record.min_delta_lon, 14.0));
  EXPECT_FALSE(lookup_run(view, 20, &record));

  // And the loaded campaign aggregates exactly like the records written.
  CampaignStats loaded, written;
  for (const InjectionRecord& r : view.records) loaded.add(r);
  for (std::size_t r = 0; r < 20; ++r) written.add(golden_record(r));
  EXPECT_EQ(campaign_fingerprint(loaded), campaign_fingerprint(written));
}

TEST(Query, DiffDetectsFlipsDriftsAndMissingRuns) {
  const std::string path_a = write_golden_store("diff_a.jsonl");
  // Campaign B: run 5's outcome flips, run 6's metric drifts by one ulp,
  // and run 19 was never executed.
  const std::string path_b = temp_path("diff_b.jsonl");
  {
    ShardResultStore store(path_b, make_manifest_for_test(20),
                           StoreOpenMode::kOverwrite);
    for (std::size_t r = 0; r < 19; ++r) {
      InjectionRecord record = golden_record(r);
      if (r == 5) record.outcome = Outcome::kHazard;  // was kSdcBenign
      if (r == 6)
        record.max_actuation_divergence =
            std::nextafter(record.max_actuation_divergence, 1e9);
      store.append(record);
    }
  }

  const CampaignView a = load_campaign({path_a});
  const CampaignView b = load_campaign({path_b});
  const CampaignDiff diff = diff_campaigns(a, b);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.compared, 19u);
  ASSERT_EQ(diff.changed.size(), 2u);
  EXPECT_EQ(diff.changed[0].run_index, 5u);
  EXPECT_TRUE(diff.changed[0].outcome_flipped);
  EXPECT_EQ(diff.changed[0].a.outcome, Outcome::kSdcBenign);
  EXPECT_EQ(diff.changed[0].b.outcome, Outcome::kHazard);
  EXPECT_EQ(diff.changed[1].run_index, 6u);
  EXPECT_FALSE(diff.changed[1].outcome_flipped);
  EXPECT_TRUE(diff.only_b.empty());
  ASSERT_EQ(diff.only_a.size(), 1u);
  EXPECT_EQ(diff.only_a[0], 19u);

  // A campaign diffed against itself is empty -- determinism in miniature.
  const CampaignDiff self = diff_campaigns(a, a);
  EXPECT_TRUE(self.identical());
  EXPECT_EQ(self.compared, 20u);
}

TEST(Query, DiffRefusesDifferentFaultSets) {
  const CampaignView a = load_campaign({write_golden_store("refuse_a.jsonl")});

  // Different model parameters = a different fault set: refuse.
  CampaignManifest other = make_manifest_for_test(20);
  other.model_params = "n=20 seed=9999";
  const std::string path_b = temp_path("refuse_b.jsonl");
  {
    ShardResultStore store(path_b, other, StoreOpenMode::kOverwrite);
    store.append(golden_record(0));
  }
  const CampaignView b = load_campaign({path_b});
  EXPECT_THROW(diff_campaigns(a, b), std::runtime_error);

  // But a different pipeline seed is the EXPERIMENT, not an error.
  CampaignManifest reseeded = make_manifest_for_test(20);
  reseeded.pipeline_seed = 17;
  const std::string path_c = temp_path("refuse_c.jsonl");
  {
    ShardResultStore store(path_c, reseeded, StoreOpenMode::kOverwrite);
    store.append(golden_record(0));
  }
  const CampaignView c = load_campaign({path_c});
  const CampaignDiff diff = diff_campaigns(a, c);
  EXPECT_EQ(diff.compared, 1u);
  EXPECT_EQ(diff.only_a.size(), 19u);
}

TEST(Query, LoadRefusesEmptyMissingDuplicateAndCrossCampaign) {
  EXPECT_THROW(load_campaign({}), std::runtime_error);
  EXPECT_THROW(load_campaign({temp_path("does_not_exist.jsonl")}),
               std::runtime_error);

  const std::string path = write_golden_store("load.jsonl");
  // The same store twice: every run_index collides.
  EXPECT_THROW(load_campaign({path, path}), std::runtime_error);

  // Two stores of different campaigns never load as one.
  CampaignManifest other = make_manifest_for_test(20);
  other.scenario_hash = 0xdeadULL;
  const std::string path_other = temp_path("load_other.jsonl");
  {
    ShardResultStore store(path_other, other, StoreOpenMode::kOverwrite);
    store.append(golden_record(1));
  }
  EXPECT_THROW(load_campaign({path, path_other}), std::runtime_error);

  // A manifest-only store loads as an (incomplete) empty campaign.
  const std::string path_empty = temp_path("load_empty.jsonl");
  {
    ShardResultStore store(path_empty, make_manifest_for_test(20),
                           StoreOpenMode::kOverwrite);
  }
  const CampaignView empty = load_campaign({path_empty});
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.complete());
}

}  // namespace
}  // namespace drivefi::core
