// Strict number parsing of the fleet CLIs (examples/campaign_cli.h): a bad
// value must stop the tool with exit status 2 and an error naming the
// flag, never run a silently different campaign (`--runs abc` used to run
// 0 runs and exit 0).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../examples/campaign_cli.h"

namespace campaign_cli {
namespace {

// Feeds `flag value` through parse_campaign_flag, as the CLIs' loops do.
CampaignArgs parse_one(const std::string& flag, const std::string& value) {
  CampaignArgs args;
  const bool consumed =
      parse_campaign_flag(args, flag, [&] { return value.c_str(); });
  EXPECT_TRUE(consumed) << flag;
  return args;
}

struct BadValue {
  const char* flag;
  const char* value;
  const char* why;
};

TEST(CliFlagsDeathTest, CampaignFlagRejectsBadNumbers) {
  const BadValue cases[] = {
      {"--runs", "abc", "non-numeric"},
      {"--runs", "", "empty"},
      {"--threads", "-3", "negative"},
      {"--seed", "-1", "negative"},
      {"--runs", "+5", "explicit sign"},
      {"--runs", "12x", "trailing garbage"},
      {"--checkpoint-stride", "4 ", "trailing space"},
      {"--replays", "0x10", "hex"},
      {"--seed", "18446744073709551616", "overflows uint64"},
      {"--threads", "4294967296", "overflows unsigned"},
      {"--bits", "99999999999", "overflows unsigned"},
      {"--bits", "0", "flips nothing"},
      {"--bits", "65", "more bits than a 64-bit word has"},
      {"--scenarios", "1e3", "float spelling"},
      {"--pipeline-seed", "7.0", "float spelling"},
  };
  for (const BadValue& c : cases) {
    EXPECT_EXIT(parse_one(c.flag, c.value), ::testing::ExitedWithCode(2),
                std::string("error: ") + c.flag)
        << c.flag << " '" << c.value << "' (" << c.why << ")";
  }
}

TEST(CliFlags, CampaignFlagAcceptsGoodNumbers) {
  EXPECT_EQ(parse_one("--runs", "400").runs, 400u);
  EXPECT_EQ(parse_one("--runs", "0").runs, 0u);
  EXPECT_EQ(parse_one("--seed", "18446744073709551615").seed,
            18446744073709551615ull);
  EXPECT_EQ(parse_one("--threads", "4294967295").threads, 4294967295u);
  EXPECT_EQ(parse_one("--bits", "2").bits, 2u);
  EXPECT_EQ(parse_one("--bits", "64").bits, 64u);
  EXPECT_EQ(parse_one("--checkpoint-stride", "16").checkpoint_stride, 16u);
  EXPECT_EQ(parse_one("--model", "bayesian").model_name, "bayesian");

  CampaignArgs args;
  EXPECT_FALSE(parse_campaign_flag(args, "--store", [] { return "x"; }));
}

TEST(CliFlagsDeathTest, HostPortRejectsBadPorts) {
  const BadValue cases[] = {
      {"--connect", "localhost", "no port"},
      {"--connect", "localhost:", "empty port"},
      {"--connect", "localhost:http", "non-numeric port"},
      {"--listen", "127.0.0.1:-1", "negative port"},
      {"--listen", "127.0.0.1:80x", "trailing garbage"},
      {"--connect", "127.0.0.1:65536", "port above 65535"},
      {"--connect", "127.0.0.1:99999999999999999999", "overflow"},
  };
  for (const BadValue& c : cases) {
    std::string host;
    std::uint16_t port = 0;
    EXPECT_EXIT(parse_host_port(c.flag, c.value, &host, &port),
                ::testing::ExitedWithCode(2), std::string("error: ") + c.flag)
        << c.flag << " '" << c.value << "' (" << c.why << ")";
  }
}

TEST(CliFlags, HostPortAcceptsGoodPorts) {
  std::string host;
  std::uint16_t port = 1;
  parse_host_port("--listen", "127.0.0.1:0", &host, &port);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 0u);
  parse_host_port("--connect", "[::1]:65535", &host, &port);
  EXPECT_EQ(host, "[::1]");
  EXPECT_EQ(port, 65535u);
}

TEST(CliFlagsDeathTest, SecondsFlagRejectsBadDurations) {
  const BadValue cases[] = {
      {"--heartbeat-timeout", "soon", "non-numeric"},
      {"--heartbeat-timeout", "-1", "negative"},
      {"--metrics-interval", "1s", "trailing garbage"},
      {"--metrics-interval", "nan", "not a number"},
      {"--reconnect-max-delay", "inf", "infinite"},
      {"--reconnect-base-delay", "1e999", "overflow"},
  };
  for (const BadValue& c : cases) {
    EXPECT_EXIT(parse_seconds_flag(c.flag, c.value),
                ::testing::ExitedWithCode(2), std::string("error: ") + c.flag)
        << c.flag << " '" << c.value << "' (" << c.why << ")";
  }
  EXPECT_EQ(parse_seconds_flag("--heartbeat-timeout", "0.25"), 0.25);
  EXPECT_EQ(parse_seconds_flag("--metrics-interval", "0"), 0.0);
}

}  // namespace
}  // namespace campaign_cli
