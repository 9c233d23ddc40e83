#include "core/schedule.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/baselines.h"
#include "core/remap.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  PerceptionPipeline pipe_ = build_autopilot_front();
  PackageConfig pkg_ = make_simba_package();
  Schedule sched_{pipe_, pkg_};
};

TEST_F(ScheduleTest, FlattensAllLayers) {
  int expected = 0;
  for (const auto& stage : pipe_.stages) {
    for (const auto& sm : stage.models) {
      expected += sm.model.num_layers();
    }
  }
  EXPECT_EQ(sched_.num_items(), expected);
}

TEST_F(ScheduleTest, ItemCoordinatesRoundTrip) {
  const auto& items = sched_.items_of_model(1, 0);
  ASSERT_FALSE(items.empty());
  const Schedule::Item& it = sched_.item(items.front());
  EXPECT_EQ(it.stage, 1);
  EXPECT_EQ(it.model, 0);
  EXPECT_EQ(it.layer, 0);
  EXPECT_EQ(it.desc->name, "S_QKV_Proj");
}

TEST_F(ScheduleTest, StartsUnassigned) {
  EXPECT_FALSE(sched_.fully_assigned());
  EXPECT_EQ(sched_.free_chiplets().size(), 36u);
  EXPECT_FALSE(sched_.placement(0).assigned());
}

TEST_F(ScheduleTest, AssignSingleChiplet) {
  sched_.assign(0, 7);
  const Placement& p = sched_.placement(0);
  ASSERT_TRUE(p.assigned());
  EXPECT_EQ(p.num_shards(), 1);
  EXPECT_EQ(p.primary_chiplet(), 7);
  EXPECT_TRUE(p.uses_chiplet(7));
  EXPECT_FALSE(p.uses_chiplet(8));
  EXPECT_EQ(sched_.free_chiplets().size(), 35u);
}

TEST_F(ScheduleTest, AssignShardedSplitsEvenly) {
  sched_.assign_sharded(0, {1, 2, 3, 4});
  const Placement& p = sched_.placement(0);
  EXPECT_EQ(p.num_shards(), 4);
  for (const auto& s : p.shards) EXPECT_DOUBLE_EQ(s.fraction, 0.25);
}

TEST_F(ScheduleTest, AssignWeightedNormalizes) {
  sched_.assign_weighted(0, {{1, 160.0}, {2, 32.0}});
  const Placement& p = sched_.placement(0);
  EXPECT_NEAR(p.shards[0].fraction, 160.0 / 192.0, 1e-12);
  EXPECT_NEAR(p.shards[1].fraction, 32.0 / 192.0, 1e-12);
  EXPECT_EQ(p.primary_chiplet(), 1);
}

TEST_F(ScheduleTest, AssignWeightedRejectsBadInput) {
  EXPECT_THROW(sched_.assign_weighted(0, {}), std::invalid_argument);
  EXPECT_THROW(sched_.assign_weighted(0, {{1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(sched_.assign_weighted(0, {{1, -2.0}}), std::invalid_argument);
}

TEST_F(ScheduleTest, ClearAssignment) {
  sched_.assign(0, 3);
  sched_.clear_assignment(0);
  EXPECT_FALSE(sched_.placement(0).assigned());
}

TEST_F(ScheduleTest, ReassignmentReplaces) {
  sched_.assign(0, 3);
  sched_.assign(0, 5);
  EXPECT_EQ(sched_.placement(0).primary_chiplet(), 5);
  EXPECT_EQ(sched_.placement(0).num_shards(), 1);
}

// Assignment never looks a chiplet up eagerly enough to throw: a shard on a
// chiplet the package never had (S003) or lost (S004) is stored for the
// validator to report.
TEST_F(ScheduleTest, AssignAcceptsAbsentChiplets) {
  EXPECT_NO_THROW(sched_.assign(0, 999));
  EXPECT_EQ(sched_.placement(0).primary_chiplet(), 999);
  EXPECT_NO_THROW(sched_.assign_sharded(1, {0, 999}));
  EXPECT_NO_THROW(sched_.assign_weighted(2, {{999, 1.0}, {1, 3.0}}));
  EXPECT_NO_THROW(sched_.restore_placement(3, {{-7, 1.0}}));

  const PackageConfig degraded = pkg_.without_chiplet(5);
  Schedule on_degraded(pipe_, degraded);
  EXPECT_NO_THROW(on_degraded.assign(0, 5));
  EXPECT_NO_THROW(on_degraded.restore_placement(1, {{5, 0.5}, {6, 0.5}}));
  EXPECT_EQ(on_degraded.placement(1).num_shards(), 2);
}

TEST_F(ScheduleTest, ItemsOfStageConcatenatesModels) {
  const auto stage0 = sched_.items_of_stage(0);
  int count = 0;
  for (const auto& sm : pipe_.stages[0].models) count += sm.model.num_layers();
  EXPECT_EQ(static_cast<int>(stage0.size()), count);
}

TEST_F(ScheduleTest, DescribeReportsProgress) {
  sched_.assign(0, 0);
  const std::string d = sched_.describe();
  EXPECT_NE(d.find("1/"), std::string::npos);
}

TEST(ShardFraction, ScalesRows) {
  const LayerDesc l = gemm("g", 1000, 8, 8);
  EXPECT_EQ(shard_fraction(l, 0.25).y, 250);
  EXPECT_EQ(shard_fraction(l, 1.0).y, 1000);
  EXPECT_GE(shard_fraction(l, 0.0001).y, 1);
}

TEST(ShardFraction, ClampsFraction) {
  const LayerDesc l = gemm("g", 100, 8, 8);
  EXPECT_EQ(shard_fraction(l, 2.0).y, 100);
  EXPECT_EQ(shard_fraction(l, -1.0).y, 1);
}

// --- remap_schedule (online rescheduling after a chiplet fault) ---

TEST(RemapSchedule, MovesOrphansOffFailedChipletOnly) {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(7);
  const PackageConfig pkg = make_simba_package(2, 4);
  const Schedule sched = build_chainwise_schedule(pipe, pkg);
  const int failed = 5;
  const PackageConfig degraded = pkg.without_chiplet(failed);

  RemapStats stats;
  const Schedule out = remap_schedule(sched, degraded, failed, &stats);
  ASSERT_TRUE(out.fully_assigned());
  EXPECT_GT(stats.touched_items, 0);
  EXPECT_EQ(stats.moved_shards, stats.touched_items);  // 1-shard placements
  for (int i = 0; i < out.num_items(); ++i) {
    EXPECT_FALSE(out.placement(i).uses_chiplet(failed)) << i;
    // Untouched placements are copied verbatim.
    if (!sched.placement(i).uses_chiplet(failed)) {
      ASSERT_EQ(out.placement(i).num_shards(), sched.placement(i).num_shards());
      EXPECT_EQ(out.placement(i).primary_chiplet(),
                sched.placement(i).primary_chiplet());
    }
  }
}

TEST(RemapSchedule, MergesShardsLandingOnSameChiplet) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule sched(p, pkg);
  sched.assign_sharded(0, {0, 1});

  const PackageConfig degraded = pkg.without_chiplet(1);
  const Schedule out = remap_schedule(sched, degraded, 1);
  // The orphaned half merges into chiplet 0's existing shard.
  ASSERT_EQ(out.placement(0).num_shards(), 1);
  EXPECT_EQ(out.placement(0).primary_chiplet(), 0);
  double total = 0.0;
  for (const auto& sh : out.placement(0).shards) total += sh.fraction;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RemapSchedule, LoadTiesPreferFailedChipletsQuadrantPool) {
  // A single orphaned item on an otherwise idle 6x6: every survivor has
  // load 0, so the choice is pure tie-break. Failing chiplet 35 (SE
  // quadrant) must re-home onto the SE pool's lowest id (21), not the
  // globally lowest id (0).
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package();
  Schedule sched(p, pkg);
  sched.assign(0, 35);
  const PackageConfig degraded = pkg.without_chiplet(35);

  const Schedule out = remap_schedule(sched, degraded, 35);
  EXPECT_EQ(out.placement(0).primary_chiplet(), 21);
}

TEST(RemapSchedule, PoolPreferenceYieldsToLoad) {
  // With every SE-pool survivor already busy, the orphan spills to an idle
  // chiplet of another quadrant (lowest id 0) instead of piling on.
  const std::vector<int> se_pool{21, 22, 23, 27, 28, 29, 33, 34};
  PerceptionPipeline p;
  Stage stage{"S", {}};
  for (int i = 0; i < static_cast<int>(se_pool.size()) + 1; ++i) {
    Model m;
    m.name = "m" + std::to_string(i);
    m.layers = {gemm("g" + std::to_string(i), 4096, 64, 64)};
    stage.models.push_back({m, false});
  }
  p.stages.push_back(stage);
  const PackageConfig pkg = make_simba_package();
  Schedule sched(p, pkg);
  for (int i = 0; i < static_cast<int>(se_pool.size()); ++i) {
    sched.assign(i, se_pool[static_cast<std::size_t>(i)]);
  }
  sched.assign(static_cast<int>(se_pool.size()), 35);
  const PackageConfig degraded = pkg.without_chiplet(35);

  const Schedule out = remap_schedule(sched, degraded, 35);
  EXPECT_EQ(out.placement(static_cast<int>(se_pool.size())).primary_chiplet(),
            0);
}

TEST(RemapSchedule, SpreadsOrphansAcrossSurvivors) {
  // 8 identical chains all on chiplet 5 of a 2x4: after the remap they must
  // not all pile onto a single survivor.
  const PerceptionPipeline pipe = build_fault_probe_pipeline(7);
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule sched(pipe, pkg);
  for (int i = 0; i < sched.num_items(); ++i) sched.assign(i, 5);
  const PackageConfig degraded = pkg.without_chiplet(5);

  const Schedule out = remap_schedule(sched, degraded, 5);
  std::set<int> hosts;
  for (int i = 0; i < out.num_items(); ++i) {
    hosts.insert(out.placement(i).primary_chiplet());
  }
  EXPECT_GT(hosts.size(), 1u);
}

TEST(RemapSchedule, RejectsBadArguments) {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = build_chainwise_schedule(pipe, pkg);
  const PackageConfig degraded = pkg.without_chiplet(1);
  // Not in the original package.
  EXPECT_THROW(remap_schedule(sched, degraded, 17), std::invalid_argument);
  // Still present in the "degraded" package.
  EXPECT_THROW(remap_schedule(sched, pkg, 1), std::invalid_argument);
  // No survivors at all.
  const PackageConfig solo = make_simba_package(1, 1);
  const Schedule solo_sched(pipe, solo);
  EXPECT_THROW(remap_schedule(solo_sched, solo.without_chiplet(0), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cnpu
