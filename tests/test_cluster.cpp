// Tests for the multi-server cluster harness.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/cluster.hpp"
#include "fault/plan.hpp"

namespace {

using namespace pbxcap;

exp::ClusterConfig small_cluster(double erlangs, std::uint32_t servers) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(120);
  config.servers = servers;
  config.channels_per_server = 12;
  config.seed = 61;
  return config;
}

TEST(Cluster, SingleServerMatchesTestbedSemantics) {
  const auto result = exp::run_cluster(small_cluster(6.0, 1));
  EXPECT_GT(result.report.calls_completed, 0u);
  EXPECT_EQ(result.report.calls_failed, 0u);
  EXPECT_EQ(result.peak_channels_per_server.size(), 1u);
  EXPECT_EQ(result.report.channels_configured, 12u);
  EXPECT_GT(result.report.mos.min(), 4.0);
}

TEST(Cluster, AddingServersReducesBlocking) {
  // 24 E onto 12 channels blocks heavily; onto 2x12 it nearly vanishes.
  const auto one = exp::run_cluster(small_cluster(24.0, 1));
  const auto two = exp::run_cluster(small_cluster(24.0, 2));
  EXPECT_GT(one.report.blocking_probability, 0.15);
  EXPECT_LT(two.report.blocking_probability, one.report.blocking_probability / 2.0);
}

TEST(Cluster, RoundRobinBalancesLoad) {
  const auto result = exp::run_cluster(small_cluster(12.0, 3));
  ASSERT_EQ(result.peak_channels_per_server.size(), 3u);
  // Even split: peaks within a few channels of one another.
  const auto [lo, hi] = std::minmax_element(result.peak_channels_per_server.begin(),
                                            result.peak_channels_per_server.end());
  EXPECT_LE(*hi - *lo, 4u);
}

TEST(Cluster, PerServerCongestionReported) {
  const auto result = exp::run_cluster(small_cluster(30.0, 2));
  ASSERT_EQ(result.congestion_per_server.size(), 2u);
  std::uint64_t total = 0;
  for (const auto c : result.congestion_per_server) total += c;
  EXPECT_EQ(total, result.report.calls_blocked);
}

TEST(Cluster, RejectsZeroServers) {
  auto config = small_cluster(6.0, 0);
  EXPECT_THROW((void)exp::run_cluster(config), std::invalid_argument);
  config.shard.enabled = true;
  EXPECT_THROW((void)exp::run_cluster(config), std::invalid_argument);
}

TEST(Cluster, RejectsOutOfRangeFaultBackend) {
  // Backend 2 of a 2-server fleet does not exist: the plan must not land on
  // the last backend instead. Every FaultPlan counts, even an empty one.
  const auto plan = fault::FaultPlan::parse("@5s pbx crash dead=5s\n");
  const fault::FaultPlan empty;
  for (const bool sharded : {false, true}) {
    for (const fault::FaultPlan* faults : {&plan, &empty}) {
      auto config = small_cluster(6.0, 2);
      config.shard.enabled = sharded;
      config.faults = faults;
      config.fault_backend = 2;
      EXPECT_THROW((void)exp::run_cluster(config), std::invalid_argument) << sharded;
    }
  }
}

}  // namespace
