#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/bounds.h"
#include "dataflow/cost_model.h"
#include "sim/event_sim.h"

namespace cnpu {
namespace {

// Small two-stage pipeline: one conv chain, then two parallel GEMM models.
PerceptionPipeline tiny_pipeline() {
  PerceptionPipeline p;
  p.name = "tiny";
  Model chain;
  chain.name = "CHAIN";
  chain.layers = {conv2d("C1", 16, 16, 32, 32, 3), conv2d("C2", 16, 16, 32, 32, 3)};
  p.stages.push_back(Stage{"S0", {{chain, false}}});

  Model a;
  a.name = "A";
  a.layers = {gemm("GA", 4096, 64, 64)};
  Model b;
  b.name = "B";
  b.layers = {gemm("GB", 4096, 64, 64)};
  p.stages.push_back(Stage{"S1", {{a, false}, {b, false}}});
  return p;
}

double solo_latency(const LayerDesc& l, const PackageConfig& pkg, int chiplet) {
  return analyze_layer(l, pkg.chiplet(chiplet).array).latency_s;
}

class EvaluatorTest : public ::testing::Test {
 protected:
  PerceptionPipeline pipe_ = tiny_pipeline();
  PackageConfig pkg_ = make_simba_package(2, 2);
  Schedule sched_{pipe_, pkg_};
};

TEST_F(EvaluatorTest, ThrowsOnUnassignedItems) {
  EXPECT_THROW(evaluate_schedule(sched_), std::logic_error);
}

TEST_F(EvaluatorTest, SingleChipletSerializesEverything) {
  for (int i = 0; i < sched_.num_items(); ++i) sched_.assign(i, 0);
  const ScheduleMetrics m = evaluate_schedule(sched_);
  double sum = 0.0;
  for (int i = 0; i < sched_.num_items(); ++i) {
    sum += solo_latency(*sched_.item(i).desc, pkg_, 0);
  }
  EXPECT_NEAR(m.pipe_s, sum, 1e-12);
  // E2E adds the camera-input NoP edge but no inter-chiplet edges.
  EXPECT_GE(m.e2e_s, sum);
  EXPECT_EQ(m.chiplets_used(), 1);
}

TEST_F(EvaluatorTest, ParallelModelsOverlapInE2e) {
  // Chain on chiplet 0; A and B on chiplets 1 and 2.
  const auto& chain = sched_.items_of_model(0, 0);
  for (int idx : chain) sched_.assign(idx, 0);
  sched_.assign(sched_.items_of_model(1, 0)[0], 1);
  sched_.assign(sched_.items_of_model(1, 1)[0], 2);
  const ScheduleMetrics m = evaluate_schedule(sched_);

  const double ga = solo_latency(*sched_.item(sched_.items_of_model(1, 0)[0]).desc, pkg_, 1);
  // Stage 1 E2E ~ max of the two parallel chains, not their sum.
  EXPECT_NEAR(m.stages[1].e2e_s, ga + m.stages[1].nop.latency_s, ga * 0.05);
  // Pipe: the busiest single chiplet (the GEMM hosts outweigh the chain).
  const double chain_busy = solo_latency(*sched_.item(chain[0]).desc, pkg_, 0) +
                            solo_latency(*sched_.item(chain[1]).desc, pkg_, 0);
  EXPECT_NEAR(m.pipe_s, std::max(chain_busy, ga), 1e-12);
}

TEST_F(EvaluatorTest, ShardingReducesItemLatency) {
  const auto& chain = sched_.items_of_model(0, 0);
  for (int idx : chain) sched_.assign(idx, 0);
  const int ga = sched_.items_of_model(1, 0)[0];
  const int gb = sched_.items_of_model(1, 1)[0];
  sched_.assign(gb, 3);

  sched_.assign(ga, 1);
  const double solo = item_latency_s(sched_, ga);
  sched_.assign_sharded(ga, {1, 2});
  const double sharded = item_latency_s(sched_, ga);
  EXPECT_LT(sharded, solo * 0.6);
  EXPECT_GT(sharded, solo * 0.4);
}

TEST_F(EvaluatorTest, NopEdgesAppearAcrossChiplets) {
  // Chain split across chiplets 0 and 3 (2 hops apart in a 2x2 mesh).
  const auto& chain = sched_.items_of_model(0, 0);
  sched_.assign(chain[0], 0);
  sched_.assign(chain[1], 3);
  sched_.assign(sched_.items_of_model(1, 0)[0], 1);
  sched_.assign(sched_.items_of_model(1, 1)[0], 2);
  const ScheduleMetrics m = evaluate_schedule(sched_);
  EXPECT_GT(m.stages[0].nop.energy_j, 0.0);
  EXPECT_GT(m.nop.latency_s, 0.0);

  // Co-locating the chain removes the intra-model edge energy.
  sched_.assign(chain[1], 0);
  const ScheduleMetrics m2 = evaluate_schedule(sched_);
  EXPECT_LT(m2.stages[0].nop.energy_j, m.stages[0].nop.energy_j);
}

// Regression: the intra-model chain edge must be priced in bytes
// (LayerDesc::output_bytes), the unit nop_transfer expects, not raw element
// counts. Isolate the edge as the stage-0 NoP delta between a co-located and
// a split chain and pin it to the cost model's prediction.
TEST_F(EvaluatorTest, IntraChainEdgeCarriesOutputBytes) {
  const auto& chain = sched_.items_of_model(0, 0);
  sched_.assign(chain[0], 0);
  sched_.assign(sched_.items_of_model(1, 0)[0], 1);
  sched_.assign(sched_.items_of_model(1, 1)[0], 2);

  sched_.assign(chain[1], 0);
  const double colocated = evaluate_schedule(sched_).stages[0].nop.energy_j;
  sched_.assign(chain[1], 3);
  const double split = evaluate_schedule(sched_).stages[0].nop.energy_j;

  const LayerDesc& producer = *sched_.item(chain[0]).desc;
  const NopCost edge = nop_transfer(pkg_.nop(), producer.output_bytes(),
                                    pkg_.hops_between(0, 3));
  EXPECT_GT(edge.energy_j, 0.0);
  EXPECT_NEAR(split - colocated, edge.energy_j, edge.energy_j * 1e-9);
}

// Regression: NoP totals must grow strictly with producer shard spread (the
// fraction-weighted mean hop count grows with every added chiplet). The old
// lround()-based edge cost plateaued whenever two spreads rounded to the
// same integer hop count.
TEST_F(EvaluatorTest, NopStrictlyIncreasesWithShardSpread) {
  const auto& chain = sched_.items_of_model(0, 0);
  sched_.assign(chain[0], 0);
  sched_.assign(sched_.items_of_model(1, 0)[0], 0);
  sched_.assign(sched_.items_of_model(1, 1)[0], 0);

  double prev = 0.0;
  bool first = true;
  for (const auto& spread :
       std::vector<std::vector<int>>{{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}}) {
    sched_.assign_sharded(chain[1], spread);
    const ScheduleMetrics m = evaluate_schedule(sched_);
    if (!first) {
      EXPECT_GT(m.nop.latency_s, prev) << "spread size " << spread.size();
      EXPECT_GT(m.nop.energy_j, 0.0);
    }
    first = false;
    prev = m.nop.latency_s;
  }
}

// Regression: a sharded producer whose mean hop count is below 0.5 must
// still pay its fractional NoP share; lround() used to zero it out.
TEST_F(EvaluatorTest, SubHalfHopMeanStillPaysNop) {
  const auto& chain = sched_.items_of_model(0, 0);
  sched_.assign(chain[0], 0);
  // 80% of C2 stays with the consumers; 20% sits one hop away.
  sched_.assign_weighted(chain[1], {{0, 0.8}, {1, 0.2}});
  sched_.assign(sched_.items_of_model(1, 0)[0], 0);
  sched_.assign(sched_.items_of_model(1, 1)[0], 0);

  const ScheduleMetrics m = evaluate_schedule(sched_);
  const double bytes = pipe_.stages[0].models[0].model.output_bytes();
  const double mean_hops = 0.2 * pkg_.hops_between(1, 0);
  const NopCost edge = nop_transfer(pkg_.nop(), bytes, mean_hops);
  EXPECT_GT(m.stages[1].nop.latency_s, 0.0);
  // Two consumers (models A and B) each gather the same sharded output.
  EXPECT_NEAR(m.stages[1].nop.energy_j, 2.0 * edge.energy_j,
              edge.energy_j * 1e-9);
}

TEST_F(EvaluatorTest, EnergyIndependentOfPlacementComputePart) {
  // Compute energy is placement-invariant on a homogeneous package.
  for (int i = 0; i < sched_.num_items(); ++i) sched_.assign(i, 0);
  const double e1 = evaluate_schedule(sched_).compute_energy_j;
  for (int i = 0; i < sched_.num_items(); ++i) sched_.assign(i, i % 4);
  const double e2 = evaluate_schedule(sched_).compute_energy_j;
  EXPECT_NEAR(e1, e2, e1 * 0.01);
}

TEST_F(EvaluatorTest, UtilizationWithinBounds) {
  for (int i = 0; i < sched_.num_items(); ++i) sched_.assign(i, i % 4);
  const ScheduleMetrics m = evaluate_schedule(sched_);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
}

TEST_F(EvaluatorTest, EdpIsEnergyTimesPipe) {
  for (int i = 0; i < sched_.num_items(); ++i) sched_.assign(i, 0);
  const ScheduleMetrics m = evaluate_schedule(sched_);
  EXPECT_NEAR(m.edp_j_ms(), m.energy_j() * m.pipe_s * 1e3, 1e-12);
}

TEST_F(EvaluatorTest, StageBusyAccounting) {
  for (int i = 0; i < sched_.num_items(); ++i) sched_.assign(i, 0);
  const ScheduleMetrics m = evaluate_schedule(sched_);
  const ChipletUsage& u = m.chiplets[0];
  ASSERT_EQ(u.stage_busy_s.size(), 2u);
  EXPECT_NEAR(u.stage_busy_s[0] + u.stage_busy_s[1], u.busy_s, 1e-15);
  EXPECT_NEAR(m.stages[0].pipe_s, u.stage_busy_s[0], 1e-15);
}

TEST_F(EvaluatorTest, TotalMacsMatchesPipeline) {
  for (int i = 0; i < sched_.num_items(); ++i) sched_.assign(i, 0);
  const ScheduleMetrics m = evaluate_schedule(sched_);
  EXPECT_NEAR(m.total_macs, pipe_.macs(), pipe_.macs() * 1e-9);
}

// Prefix models gate the stage's parallel models.
TEST(EvaluatorPrefix, PrefixChainAddsToStageE2e) {
  PerceptionPipeline p;
  Model pre;
  pre.name = "PRE";
  pre.layers = {gemm("P", 4096, 64, 64)};
  Model body;
  body.name = "BODY";
  body.layers = {gemm("B", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{pre, true}, {body, false}}});

  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule sched(p, pkg);
  sched.assign(0, 0);
  sched.assign(1, 1);
  const ScheduleMetrics m = evaluate_schedule(sched);
  const double lp = analyze_layer(pre.layers[0], pkg.chiplet(0).array).latency_s;
  const double lb = analyze_layer(body.layers[0], pkg.chiplet(1).array).latency_s;
  EXPECT_GE(m.stages[0].e2e_s, lp + lb);
}

// Heterogeneous placement: the same layer is slower on a WS chiplet.
TEST(EvaluatorHetero, WsChipletSlowsConvs) {
  PerceptionPipeline p;
  Model m1;
  m1.name = "M";
  m1.layers = {conv2d("C", 64, 64, 90, 160, 3)};
  p.stages.push_back(Stage{"S", {{m1, false}}});

  PackageConfig pkg = make_simba_package(1, 2);
  pkg.set_chiplet_dataflow(1, DataflowKind::kWeightStationary);
  Schedule sched(p, pkg);

  sched.assign(0, 0);
  const double on_os = evaluate_schedule(sched).pipe_s;
  sched.assign(0, 1);
  const double on_ws = evaluate_schedule(sched).pipe_s;
  EXPECT_GT(on_ws, on_os * 2.0);
}

// --- error contract: shards the package cannot price -----------------------
//
// A schedule may name a chiplet its package lacks: one it never had (S003)
// or one without_chiplet removed (S004). Placing such a shard succeeds, so
// the validator can report it; every consumer that needs the shard's cost
// then throws std::out_of_range, the bounds analyzer skips the stream, and
// simulate_schedule rejects it with the S003/S004 exception type.

// Every item on chiplet 0, except item 0 whose single shard goes through
// `place`.
template <typename PlaceFn>
void place_all(Schedule& s, PlaceFn&& place) {
  for (int i = 1; i < s.num_items(); ++i) s.assign(i, 0);
  place(s);
}

void expect_consumers_reject(const Schedule& s) {
  EXPECT_THROW((void)item_latency_s(s, 0), std::out_of_range);
  EXPECT_THROW((void)evaluate_schedule(s), std::out_of_range);
  EXPECT_TRUE(analysis::compute_bounds(s).streams.empty());
  EXPECT_THROW((void)simulate_schedule(s, SimOptions{}), std::out_of_range);
}

TEST(EvaluatorErrorContract, AssignToChipletNeverInPackage) {
  const PerceptionPipeline pipe = tiny_pipeline();
  const PackageConfig pkg = make_simba_package(2, 2);
  Schedule s(pipe, pkg);
  place_all(s, [](Schedule& x) { EXPECT_NO_THROW(x.assign(0, 99)); });
  expect_consumers_reject(s);
}

TEST(EvaluatorErrorContract, AssignToRemovedChiplet) {
  const PerceptionPipeline pipe = tiny_pipeline();
  const PackageConfig pkg = make_simba_package(2, 2).without_chiplet(3);
  Schedule s(pipe, pkg);
  place_all(s, [](Schedule& x) {
    EXPECT_NO_THROW(x.assign_sharded(0, {0, 3}));
  });
  expect_consumers_reject(s);
}

TEST(EvaluatorErrorContract, RestoreAbsentAndRemovedChiplets) {
  const PerceptionPipeline pipe = tiny_pipeline();
  const PackageConfig pkg = make_simba_package(2, 2).without_chiplet(3);
  for (const int id : {99, 3}) {
    Schedule s(pipe, pkg);
    place_all(s, [id](Schedule& x) {
      EXPECT_NO_THROW(x.restore_placement(0, {{id, 1.0}}));
    });
    expect_consumers_reject(s);
  }
}

// A present chiplet with a NaN or negative fraction still prices (the
// fraction is clamped into the layer's rows), so the item has a latency
// and the bounds analyzer skips the stream as structurally unsound. A
// lone NaN shard is nobody's primary (primary_chiplet() is -1), so
// pricing the item's NoP ingress edge throws std::out_of_range.
TEST(EvaluatorErrorContract, RestoreMalformedFractions) {
  const PerceptionPipeline pipe = tiny_pipeline();
  const PackageConfig pkg = make_simba_package(2, 2);
  for (const double f : {std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    Schedule s(pipe, pkg);
    place_all(s, [f](Schedule& x) {
      EXPECT_NO_THROW(x.restore_placement(0, {{1, f}}));
    });
    EXPECT_GT(item_latency_s(s, 0), 0.0);
    EXPECT_TRUE(analysis::compute_bounds(s).streams.empty());
    if (std::isnan(f)) {
      EXPECT_THROW((void)evaluate_schedule(s), std::out_of_range);
      EXPECT_THROW((void)simulate_schedule(s, SimOptions{}), std::out_of_range);
    } else {
      EXPECT_NO_THROW((void)evaluate_schedule(s));
      EXPECT_NO_THROW((void)simulate_schedule(s, SimOptions{}));
    }
  }
}

// Reassigning a shard off an absent chiplet makes the schedule priceable
// again: the old, unpriceable shard leaves no trace.
TEST(EvaluatorErrorContract, ReassignmentRecoversFromAbsentChiplet) {
  const PerceptionPipeline pipe = tiny_pipeline();
  const PackageConfig pkg = make_simba_package(2, 2);
  Schedule s(pipe, pkg);
  place_all(s, [](Schedule& x) { x.assign(0, 99); });
  s.assign(0, 1);
  Schedule fresh(pipe, pkg);
  place_all(fresh, [](Schedule& x) { x.assign(0, 1); });
  EXPECT_EQ(evaluate_schedule(s).e2e_s, evaluate_schedule(fresh).e2e_s);
  EXPECT_EQ(analysis::compute_bounds(s).streams.size(), 1u);
}

}  // namespace
}  // namespace cnpu
