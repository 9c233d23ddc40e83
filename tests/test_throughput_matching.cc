#include "core/throughput_matching.h"

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

class MatchingTest : public ::testing::Test {
 protected:
  AutopilotConfig cfg_;
  PerceptionPipeline pipe_ = build_autopilot_pipeline(cfg_);
  PackageConfig pkg_ = make_simba_package();
};

TEST_F(MatchingTest, ConvergesOnSimba) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedule.fully_assigned());
}

TEST_F(MatchingTest, AllStagesMatchBaseWithinTolerance) {
  const MatchOptions opt;
  const MatchResult r = throughput_matching(pipe_, pkg_, opt);
  const double bound = r.latbase_s * (1.0 + opt.tolerance) + 1e-9;
  for (const auto& s : r.metrics.stages) {
    EXPECT_LE(s.pipe_s, bound) << s.name;
  }
}

TEST_F(MatchingTest, BaseIsFeStagePipe) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  EXPECT_NEAR(r.latbase_s, r.metrics.stages[0].pipe_s, 1e-12);
  // The paper's base: ~82.7 ms.
  EXPECT_NEAR(r.latbase_s * 1e3, 82.7, 8.0);
}

TEST_F(MatchingTest, TraceStartsWithInitialAssignment) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().action, "initial quadrant assignment");
}

TEST_F(MatchingTest, PipeNeverIncreasesAlongTrace) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].pipe_ms, r.trace[i - 1].pipe_ms + 1e-6)
        << r.trace[i].action;
  }
}

TEST_F(MatchingTest, FreeChipletsNeverNegativeAndMonotone) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].chiplets_free, 0);
    if (i > 0) {
      EXPECT_LE(r.trace[i].chiplets_free, r.trace[i - 1].chiplets_free);
    }
  }
}

TEST_F(MatchingTest, ShardFractionsSumToOne) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  for (int i = 0; i < r.schedule.num_items(); ++i) {
    const Placement& p = r.schedule.placement(i);
    double sum = 0.0;
    std::set<int> seen;
    for (const auto& s : p.shards) {
      sum += s.fraction;
      EXPECT_TRUE(seen.insert(s.chiplet_id).second)
          << "duplicate shard chiplet for item " << i;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_F(MatchingTest, FusionBottlenecksGotSharded) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  // T_FFN layers cannot fit the base latency on one chiplet.
  bool t_ffn_sharded = false;
  for (int i = 0; i < r.schedule.num_items(); ++i) {
    if (r.schedule.item(i).desc->name == "T_FFN1") {
      t_ffn_sharded = r.schedule.placement(i).num_shards() > 1;
    }
  }
  EXPECT_TRUE(t_ffn_sharded);
}

TEST_F(MatchingTest, TighterToleranceNeverWorsensPipe) {
  MatchOptions loose;
  loose.tolerance = 0.25;
  MatchOptions tight;
  tight.tolerance = 0.02;
  const double loose_pipe =
      throughput_matching(pipe_, pkg_, loose).metrics.pipe_s;
  const double tight_pipe =
      throughput_matching(pipe_, pkg_, tight).metrics.pipe_s;
  EXPECT_LE(tight_pipe, loose_pipe * 1.05);
}

TEST_F(MatchingTest, FrozenStageIsLeftAlone) {
  MatchOptions opt;
  opt.frozen_stages = {2};  // freeze T_FUSE
  const MatchResult r = throughput_matching(pipe_, pkg_, opt);
  for (int idx : r.schedule.items_of_stage(2)) {
    EXPECT_EQ(r.schedule.placement(idx).num_shards(), 1)
        << r.schedule.item(idx).desc->name;
  }
}

TEST(InitialAssignment, ParallelModelsRoundRobin) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  Schedule sched(pipe, pkg);
  initial_quadrant_assignment(sched, partition_quadrants(pkg));
  EXPECT_TRUE(sched.fully_assigned());
  // 8 FE models on 8 distinct quadrant-0 chiplets.
  std::set<int> fe_chiplets;
  for (int mod = 0; mod < 8; ++mod) {
    const auto& items = sched.items_of_model(0, mod);
    const int c = sched.placement(items.front()).primary_chiplet();
    fe_chiplets.insert(c);
    for (int idx : items) {
      EXPECT_EQ(sched.placement(idx).primary_chiplet(), c);
    }
  }
  EXPECT_EQ(fe_chiplets.size(), 8u);
}

TEST(InitialAssignment, ElementwiseRidesWithPredecessor) {
  const PerceptionPipeline pipe = build_autopilot_front();
  const PackageConfig pkg = make_simba_package();
  Schedule sched(pipe, pkg);
  initial_quadrant_assignment(sched, partition_quadrants(pkg));
  const auto& items = sched.items_of_model(1, 0);  // S_FUSE chain
  // S_SOFTMAX (index 2) co-located with S_ATTN_QK (index 1).
  EXPECT_EQ(sched.placement(items[2]).primary_chiplet(),
            sched.placement(items[1]).primary_chiplet());
  // Heavy layers on distinct chiplets.
  EXPECT_NE(sched.placement(items[0]).primary_chiplet(),
            sched.placement(items[1]).primary_chiplet());
}

TEST(SplitModelChain, BalancesHalves) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  Schedule sched(pipe, pkg);
  initial_quadrant_assignment(sched, partition_quadrants(pkg));

  const int before = sched.placement(sched.items_of_model(0, 0)[0]).primary_chiplet();
  const int fresh = sched.free_chiplets().front();
  const int cut = split_model_chain(sched, 0, 0, fresh);
  const auto& items = sched.items_of_model(0, 0);
  ASSERT_GT(cut, 0);
  ASSERT_LT(cut, static_cast<int>(items.size()));

  double head = 0.0;
  double tail = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    (static_cast<int>(i) < cut ? head : tail) += item_latency_s(sched, items[i]);
    EXPECT_EQ(sched.placement(items[i]).primary_chiplet(),
              static_cast<int>(i) < cut ? before : fresh);
  }
  // Balanced within 25%.
  EXPECT_NEAR(head / (head + tail), 0.5, 0.25);
}

TEST(MatchingExtraStages, PipelinesBeyondFourStagesShareLastPool) {
  // Multi-tenant case: a fifth stage (e.g. a driver-monitoring CNN) must
  // schedule without disturbing convergence (pools beyond the stage count
  // collapse onto the last quadrant).
  PerceptionPipeline pipe = build_autopilot_pipeline();
  Model extra;
  extra.name = "TENANT";
  extra.layers = {conv2d("TEN_C1", 32, 64, 100, 160, 3),
                  gemm("TEN_FC", 1, 64, 16)};
  pipe.stages.push_back(Stage{"TENANT", {{extra, false}}});

  const PackageConfig pkg = make_simba_package();
  const MatchResult r = throughput_matching(pipe, pkg);
  EXPECT_TRUE(r.schedule.fully_assigned());
  ASSERT_EQ(r.metrics.stages.size(), 5u);
  // The tenant is tiny; it must not become the bottleneck.
  EXPECT_LT(r.metrics.stages[4].pipe_s, r.latbase_s);
  EXPECT_NEAR(r.latbase_s * 1e3, 82.4, 8.0);
}

// Runs `body`, which must throw std::invalid_argument whose message
// contains `cause`.
template <typename Body>
void expect_invalid_argument(Body&& body, const std::string& cause) {
  try {
    body();
    ADD_FAILURE() << "no exception; expected one naming \"" << cause << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(cause), std::string::npos)
        << e.what();
  }
}

TEST_F(MatchingTest, RejectsEmptyPoolList) {
  expect_invalid_argument(
      [&] { throughput_matching_with_pools(pipe_, pkg_, {}, {}); },
      "no chiplet pools");
}

TEST_F(MatchingTest, RejectsEmptyPoolOfSingleModelStage) {
  ASSERT_EQ(pipe_.stages[1].num_models(), 1);
  std::vector<std::vector<int>> pools = partition_quadrants(pkg_);
  pools[1].clear();
  expect_invalid_argument(
      [&] { throughput_matching_with_pools(pipe_, pkg_, pools, {}); },
      "stage 1's chiplet pool is empty");
}

TEST_F(MatchingTest, RejectsEmptyPoolOfMultiModelStage) {
  ASSERT_GT(pipe_.stages[0].num_models(), 1);
  std::vector<std::vector<int>> pools = partition_quadrants(pkg_);
  pools[0].clear();
  expect_invalid_argument(
      [&] { throughput_matching_with_pools(pipe_, pkg_, pools, {}); },
      "stage 0's chiplet pool is empty");
}

TEST_F(MatchingTest, RejectsStageWithoutModels) {
  pipe_.stages.push_back(Stage{"EMPTY", {}});
  expect_invalid_argument([&] { throughput_matching(pipe_, pkg_); },
                          "stage 4 has no models");
}

TEST_F(MatchingTest, RejectsPipelineWithoutStages) {
  const PerceptionPipeline empty;
  expect_invalid_argument([&] { throughput_matching(empty, pkg_); },
                          "no stages");
}

TEST(PartitionQuadrants, SimbaSplitsIntoFourNines) {
  const PackageConfig pkg = make_simba_package();
  const auto pools = partition_quadrants(pkg);
  ASSERT_EQ(pools.size(), 4u);
  for (const auto& pool : pools) EXPECT_EQ(pool.size(), 9u);
}

TEST(PartitionQuadrants, MultiNpuAddsReservePool) {
  const PackageConfig pkg = make_multi_npu_package(2);
  const auto pools = partition_quadrants(pkg);
  ASSERT_EQ(pools.size(), 5u);
  EXPECT_EQ(pools[4].size(), 36u);
}

TEST(PartitionRoundRobin, CoversAllChiplets) {
  const PackageConfig pkg = make_simba_package();
  const auto pools = partition_round_robin(pkg, 5);
  std::size_t total = 0;
  for (const auto& p : pools) total += p.size();
  EXPECT_EQ(total, 36u);
}

}  // namespace
}  // namespace cnpu
