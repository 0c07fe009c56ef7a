// Adversarial + property coverage for the on-disk formats: the JSONL run
// record (seeded round-trip property over arbitrary records -- NaNs,
// signed zeros, infinities, subnormals, extreme integers, raw-byte
// descriptions), the JSONL shard store's read surface (seeded byte-storm:
// truncate, flip, or splice garbage at every offset; each mutant parses or
// throws, never UB -- the store-side sibling of net_test's FrameDecoder
// storm, run under ASan/UBSan in CI), run-record lines, the manifest
// parser, and the shared strict numeric parsers of core/jsonl.h under the
// same seeded mutation treatment.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/result_store.h"
#include "util/bits.h"
#include "util/rng.h"

namespace drivefi::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / ("drivefi_fuzz_" + name)).string();
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

// A record with arbitrary (but valid) field values drawn from `rng`,
// biased toward serialization edge cases: zero, small, and 64-bit-max
// integers, empty and control-character descriptions, and doubles that are
// raw 64-bit patterns -- NaNs with payloads, infinities, signed zeros,
// subnormals.
InjectionRecord arbitrary_record(util::Rng& rng) {
  InjectionRecord record;
  const auto integer_edge = [&]() -> std::uint64_t {
    switch (rng.uniform_index(6)) {
      case 0: return 0;
      case 1: return 0x7f;
      case 2: return 0x80;
      case 3: return rng.next_u64() & 0xffff;
      case 4: return rng.next_u64();
      default: return ~std::uint64_t{0};
    }
  };
  record.run_index = static_cast<std::size_t>(integer_edge());
  record.scenario_index = static_cast<std::size_t>(integer_edge());
  record.scene_index = static_cast<std::size_t>(integer_edge());
  record.outcome = static_cast<Outcome>(rng.uniform_index(4));
  const std::size_t desc_len = rng.uniform_index(40);
  for (std::size_t i = 0; i < desc_len; ++i)
    record.description.push_back(static_cast<char>(rng.next_u64() & 0xff));
  const auto double_edge = [&]() -> double {
    switch (rng.uniform_index(9)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::quiet_NaN();
      case 3: return std::numeric_limits<double>::infinity();
      case 4: return -std::numeric_limits<double>::infinity();
      case 5: return std::numeric_limits<double>::denorm_min();
      case 6: return -std::numeric_limits<double>::max();
      case 7: return 1e-310;  // subnormal with more than one digit
      default: return std::bit_cast<double>(rng.next_u64());  // any pattern
    }
  };
  record.min_delta_lon = double_edge();
  record.max_actuation_divergence = double_edge();
  return record;
}

// JSONL spells every NaN `nan` or `-nan`: the sign survives, the payload
// does not (campaign_fingerprint hashes the same spelling). Every other
// double must come back bit-for-bit.
bool same_double(double written, double read) {
  if (std::isnan(written))
    return std::isnan(read) && std::signbit(written) == std::signbit(read);
  return util::bits_equal(written, read);
}

TEST(FormatFuzz, RunRecordJsonlRoundTripsArbitraryRecords) {
  // The property that makes the store sound: parse inverts serialize
  // field-exactly, and serializing the parsed record reproduces the line,
  // so a record the store accepts is always one it can read back.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    const InjectionRecord record = arbitrary_record(rng);
    const std::string line = run_record_jsonl(record);
    InjectionRecord back;
    ASSERT_NO_THROW(back = parse_run_record(line))
        << "seed " << seed << ": " << line;
    EXPECT_EQ(record.run_index, back.run_index);
    EXPECT_EQ(record.description, back.description);
    EXPECT_EQ(record.scenario_index, back.scenario_index);
    EXPECT_EQ(record.scene_index, back.scene_index);
    EXPECT_EQ(record.outcome, back.outcome);
    EXPECT_TRUE(same_double(record.min_delta_lon, back.min_delta_lon))
        << "seed " << seed << ": " << line;
    EXPECT_TRUE(same_double(record.max_actuation_divergence,
                            back.max_actuation_divergence))
        << "seed " << seed << ": " << line;
    EXPECT_EQ(run_record_jsonl(back), line) << "seed " << seed;
  }
}

// Builds one small JSONL store (manifest + 4 records) and returns its raw
// bytes.
std::string store_bytes(const std::string& path) {
  const CampaignManifest manifest = make_manifest_for_test(4);
  {
    ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
    for (std::size_t r = 0; r < 4; ++r) {
      InjectionRecord record;
      record.run_index = r;
      record.description = "fuzz target #" + std::to_string(r);
      record.scenario_index = r % 2;
      record.scene_index = 3 + r;
      record.outcome = static_cast<Outcome>(r % 4);
      record.min_delta_lon = 1.25 * static_cast<double>(r) - 0.5;
      record.max_actuation_divergence = 0.001 * static_cast<double>(r);
      store.append(record);
    }
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST(FormatFuzz, StoreByteStormParsesOrRejectsNeverUB) {
  // The whole read surface under fire: for every byte offset, a truncation
  // AND a seeded bit flip; plus seeded garbage splices. Each mutant is
  // pushed through every consumer -- the shard reader, the record counter,
  // and a kResume open (last, since resume may truncate). Every path
  // either works or throws std::runtime_error; no crash, no UB, no silent
  // nonsense.
  const std::string bytes = store_bytes(temp_path("storm_base.jsonl"));
  const CampaignManifest manifest = make_manifest_for_test(4);
  const std::string mutant_path = temp_path("storm_mutant.jsonl");

  const auto exercise = [&](const std::string& mutant) {
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    try {
      read_shard(mutant_path);
    } catch (const std::runtime_error&) {
    }
    try {
      stored_record_count(mutant_path);
    } catch (const std::runtime_error&) {
    }
    try {
      ShardResultStore store(mutant_path, manifest, StoreOpenMode::kResume);
    } catch (const std::runtime_error&) {
    }
  };

  util::Rng rng(0xb10b);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut)
    exercise(bytes.substr(0, cut));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] = static_cast<char>(
        static_cast<std::uint8_t>(mutant[i]) ^
        static_cast<std::uint8_t>(1u << rng.uniform_index(8)));
    exercise(mutant);
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng storm(seed);
    std::string mutant = bytes;
    const std::size_t splice_at = storm.uniform_index(mutant.size());
    const std::size_t len = 1 + storm.uniform_index(24);
    std::string garbage;
    for (std::size_t i = 0; i < len; ++i)
      garbage.push_back(static_cast<char>(storm.next_u64() & 0xff));
    mutant.insert(splice_at, garbage);
    exercise(mutant);
  }
}

TEST(FormatFuzz, StrictNumericParsersShareOneDefinitionOfValid) {
  // The consolidated validators behind every JSON field consumer.
  EXPECT_EQ(parse_u64_strict("0", "t"), 0u);
  EXPECT_EQ(parse_u64_strict("18446744073709551615", "t"),
            ~std::uint64_t{0});
  for (const char* bad :
       {"", "-1", "+3", " 7", "7 ", "0x10", "12x", "1.5", "184467440737095516160",
        "99999999999999999999", "\"3\""}) {
    EXPECT_THROW(parse_u64_strict(bad, "t"), std::runtime_error)
        << "accepted \"" << bad << '"';
  }

  EXPECT_DOUBLE_EQ(parse_double_strict("-2.5e3", "t"), -2500.0);
  // Subnormals are what the writers emit for tiny values; strtod's
  // underflow result is exact, so they are valid. Overflow is not.
  EXPECT_TRUE(util::bits_equal(
      parse_double_strict("4.9406564584124654e-324", "t"),
      std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(parse_double_strict("1e-310", "t"), 1e-310);
  for (const char* bad :
       {"", "\"1.5\"", "1.5abc", "abc", "--1", "1,5", "1e999", "-1e999"}) {
    EXPECT_THROW(parse_double_strict(bad, "t"), std::runtime_error)
        << "accepted \"" << bad << '"';
  }

  EXPECT_TRUE(parse_bool_strict("true", "t"));
  EXPECT_FALSE(parse_bool_strict("false", "t"));
  for (const char* bad : {"", "True", "FALSE", "1", "0", "truex"}) {
    EXPECT_THROW(parse_bool_strict(bad, "t"), std::runtime_error)
        << "accepted \"" << bad << '"';
  }
}

TEST(FormatFuzz, RunRecordLineMutationsParseOrThrow) {
  // Seeded adversarial treatment of the JSONL record parser: mutate a
  // valid line byte-by-byte (flips, truncations, splices). Accept-or-throw
  // only; a mutant that parses must re-serialize to itself if it claims to
  // be canonical -- we settle for "parses without UB" plus spot checks,
  // because JSONL legitimately has non-canonical spellings (whitespace
  // variants are rejected by our strict reader anyway).
  InjectionRecord record;
  record.run_index = 12;
  record.description = "fuzz \"quoted\" \t target";
  record.scenario_index = 2;
  record.scene_index = 40;
  record.outcome = Outcome::kHazard;
  record.min_delta_lon = -3.0625;
  record.max_actuation_divergence = 0.125;
  const std::string line = run_record_jsonl(record);
  ASSERT_NO_THROW(parse_run_record(line));

  util::Rng rng(0x5eed);
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    try {
      parse_run_record(line.substr(0, cut));
    } catch (const std::runtime_error&) {
    }
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string mutant = line;
    mutant[i] = static_cast<char>(
        static_cast<std::uint8_t>(mutant[i]) ^
        static_cast<std::uint8_t>(1u << rng.uniform_index(8)));
    try {
      parse_run_record(mutant);
    } catch (const std::runtime_error&) {
    }
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng storm(seed);
    std::string mutant = line;
    const std::size_t edits = 1 + storm.uniform_index(6);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = storm.uniform_index(mutant.size());
      mutant[at] = static_cast<char>(storm.next_u64() & 0xff);
    }
    try {
      parse_run_record(mutant);
    } catch (const std::runtime_error&) {
    }
  }

  // Field-level strictness the storm cannot guarantee to hit: negative and
  // trailing-garbage numerics ride the shared strict parsers.
  EXPECT_THROW(parse_run_record(
                   "{\"type\":\"run\",\"run_index\":-1,\"description\":\"d\","
                   "\"scenario_index\":0,\"scene_index\":0,\"outcome\":"
                   "\"masked\",\"min_delta_lon\":0,"
                   "\"max_actuation_divergence\":0}"),
               std::runtime_error);
  EXPECT_THROW(parse_run_record(
                   "{\"type\":\"run\",\"run_index\":3x,\"description\":\"d\","
                   "\"scenario_index\":0,\"scene_index\":0,\"outcome\":"
                   "\"masked\",\"min_delta_lon\":0,"
                   "\"max_actuation_divergence\":0}"),
               std::runtime_error);
}

TEST(FormatFuzz, ManifestLineMutationsParseOrThrow) {
  const std::string line = make_manifest_for_test(100).to_jsonl();
  ASSERT_NO_THROW(CampaignManifest::parse(line));

  util::Rng rng(0xfeed);
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    try {
      CampaignManifest::parse(line.substr(0, cut));
    } catch (const std::runtime_error&) {
    }
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string mutant = line;
    mutant[i] = static_cast<char>(
        static_cast<std::uint8_t>(mutant[i]) ^
        static_cast<std::uint8_t>(1u << rng.uniform_index(8)));
    try {
      const CampaignManifest parsed = CampaignManifest::parse(mutant);
      // A mutant that still parses must at least round-trip through its
      // own serialization (the parser never invents unserializable state).
      CampaignManifest::parse(parsed.to_jsonl());
    } catch (const std::runtime_error&) {
    }
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng storm(seed);
    std::string mutant = line;
    const std::size_t edits = 1 + storm.uniform_index(8);
    for (std::size_t e = 0; e < edits; ++e)
      mutant[storm.uniform_index(mutant.size())] =
          static_cast<char>(storm.next_u64() & 0xff);
    try {
      CampaignManifest::parse(mutant);
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace drivefi::core
