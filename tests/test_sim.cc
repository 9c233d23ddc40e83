#include "sim/event_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/partition.h"
#include "core/remap.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "sim/serving.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

// One conv on one chiplet: the simulator must agree with the cost model.
TEST(EventSim, SingleLayerMatchesCostModel) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {conv2d("C", 64, 64, 90, 160, 3)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 1);
  Schedule sched(p, pkg);
  sched.assign(0, 0);

  SimOptions opt;
  opt.frames = 4;
  opt.model_nop_delays = false;
  const SimResult r = simulate_schedule(sched, opt);
  const double expect = analyze_layer(m.layers[0], pkg.chiplet(0).array).latency_s;
  EXPECT_NEAR(r.first_frame_latency_s, expect, expect * 1e-6);
  EXPECT_NEAR(r.steady_interval_s, expect, expect * 1e-6);
  EXPECT_EQ(r.tasks_executed, 4);
}

// Two layers on two chiplets pipeline across frames: interval = max layer.
TEST(EventSim, TwoStagePipelineOverlapsFrames) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64), gemm("B", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule sched(p, pkg);
  sched.assign(0, 0);
  sched.assign(1, 1);

  SimOptions opt;
  opt.frames = 16;
  opt.model_nop_delays = false;
  const SimResult r = simulate_schedule(sched, opt);
  const double la = analyze_layer(m.layers[0], pkg.chiplet(0).array).latency_s;
  const double lb = analyze_layer(m.layers[1], pkg.chiplet(1).array).latency_s;
  EXPECT_NEAR(r.first_frame_latency_s, la + lb, (la + lb) * 1e-6);
  EXPECT_NEAR(r.steady_interval_s, std::max(la, lb), la * 0.01);
}

// Both layers on ONE chiplet: interval = sum (no overlap resource).
TEST(EventSim, SharedChipletSerializes) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64), gemm("B", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 1);
  Schedule sched(p, pkg);
  sched.assign(0, 0);
  sched.assign(1, 0);

  SimOptions opt;
  opt.frames = 8;
  opt.model_nop_delays = false;
  const SimResult r = simulate_schedule(sched, opt);
  const double la = analyze_layer(m.layers[0], pkg.chiplet(0).array).latency_s;
  EXPECT_NEAR(r.steady_interval_s, 2 * la, la * 0.02);
}

// Sharded layer: all shards run in parallel; completion = slowest shard.
TEST(EventSim, ShardedLayerParallelism) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 8192, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 4);
  Schedule sched(p, pkg);
  sched.assign_sharded(0, {0, 1, 2, 3});

  SimOptions opt;
  opt.frames = 4;
  opt.model_nop_delays = false;
  const SimResult r = simulate_schedule(sched, opt);
  const LayerDesc quarter = shard_fraction(m.layers[0], 0.25);
  const double lq = analyze_layer(quarter, pkg.chiplet(0).array).latency_s;
  EXPECT_NEAR(r.steady_interval_s, lq, lq * 0.02);
}

// The analytic evaluator's pipe latency matches simulated steady state on
// the full matched Autopilot schedule (within queueing/NoP slack).
TEST(EventSim, MatchedScheduleSteadyStateNearAnalyticPipe) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  const MatchResult match = throughput_matching(pipe, pkg);

  SimOptions opt;
  opt.frames = 10;
  const SimResult sim = simulate_schedule(match.schedule, opt);
  EXPECT_NEAR(sim.steady_interval_s, match.metrics.pipe_s,
              match.metrics.pipe_s * 0.15);
  // Fill latency at least the analytic E2E floor... it includes queueing, so
  // only a loose two-sided sanity band:
  EXPECT_GT(sim.first_frame_latency_s, match.metrics.e2e_s * 0.5);
  EXPECT_LT(sim.first_frame_latency_s, match.metrics.e2e_s * 3.0);
}

TEST(EventSim, MonolithicBaselineMatchesAnalyticPipe) {
  const PerceptionPipeline front = build_autopilot_front();
  const PackageConfig pkg = make_monolithic_package(1);
  const Schedule sched =
      build_baseline_schedule(front, pkg, PipelineMode::kStagewise);
  const ScheduleMetrics m = evaluate_schedule(sched);

  SimOptions opt;
  opt.frames = 4;
  const SimResult sim = simulate_schedule(sched, opt);
  EXPECT_NEAR(sim.steady_interval_s, m.pipe_s, m.pipe_s * 0.05);
}

TEST(EventSim, BusyTimesMatchEvaluator) {
  const PerceptionPipeline front = build_autopilot_front();
  const PackageConfig pkg = make_simba_package();
  const MatchResult match = throughput_matching(front, pkg);

  SimOptions opt;
  opt.frames = 3;
  const SimResult sim = simulate_schedule(match.schedule, opt);
  for (std::size_t c = 0; c < sim.chiplet_busy_s.size(); ++c) {
    EXPECT_NEAR(sim.chiplet_busy_s[c],
                match.metrics.chiplets[c].busy_s * opt.frames, 1e-9);
  }
}

// Regression (ingress divergence bugfix): the sim now pays the sensor/DRAM
// ingress hop the evaluator prices, so first-frame latency cross-validates
// against the analytical E2E to within float round-off on an uncongested
// single-model chain.
TEST(EventSim, FirstFrameMatchesEvaluatorE2EWithIngress) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {conv2d("C0", 64, 64, 90, 160, 3), gemm("G1", 4096, 64, 64),
              gemm("G2", 4096, 64, 128)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package();
  Schedule sched(p, pkg);
  sched.assign(0, 0);
  sched.assign(1, 7);
  sched.assign(2, 14);
  const ScheduleMetrics metrics = evaluate_schedule(sched);

  SimOptions opt;
  opt.frames = 1;
  const SimResult analytical = simulate_schedule(sched, opt);
  EXPECT_NEAR(analytical.first_frame_latency_s, metrics.e2e_s, 1e-9);
  // A single uncongested frame never queues on a link, so contended mode
  // agrees exactly too.
  opt.nop_mode = NopMode::kContended;
  const SimResult contended = simulate_schedule(sched, opt);
  EXPECT_NEAR(contended.first_frame_latency_s, metrics.e2e_s, 1e-9);
}

// Degenerate inputs: an empty schedule must throw instead of fabricating a
// zero first-frame latency from an unset completion vector.
TEST(EventSim, EmptyScheduleThrows) {
  PerceptionPipeline p;  // no stages -> no items
  const PackageConfig pkg = make_simba_package(1, 1);
  const Schedule sched(p, pkg);
  EXPECT_THROW(simulate_schedule(sched), std::invalid_argument);
}

TEST(EventSim, UnassignedItemThrows) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 1);
  const Schedule sched(p, pkg);  // item 0 never assigned
  EXPECT_THROW(simulate_schedule(sched), std::logic_error);
}

// Documented degradation: with fewer than 4 frames there is no steady half,
// so the fill latency folds in and the interval is makespan / frames.
TEST(EventSim, ShortStreamSteadyIntervalIsMakespanOverFrames) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 1);
  Schedule sched(p, pkg);
  sched.assign(0, 0);
  SimOptions opt;
  opt.frames = 2;
  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_DOUBLE_EQ(r.steady_interval_s, r.makespan_s / 2.0);
}

// Periodic admission: when the camera interval exceeds the pipeline's
// service time, every frame observes the same latency and completions are
// spaced exactly one interval apart.
TEST(EventSim, PeriodicAdmissionSpacesFrames) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64), gemm("B", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule sched(p, pkg);
  sched.assign(0, 0);
  sched.assign(1, 1);
  SimOptions opt;
  opt.frames = 8;
  opt.frame_interval_s = 1.0;  // far above any per-frame service time
  const SimResult r = simulate_schedule(sched, opt);
  for (std::size_t f = 1; f < r.frame_latency_s.size(); ++f) {
    EXPECT_NEAR(r.frame_latency_s[f], r.frame_latency_s[0], 1e-12);
    EXPECT_NEAR(r.frame_completion_s[f] - r.frame_completion_s[f - 1], 1.0,
                1e-12);
  }
  EXPECT_NEAR(r.steady_interval_s, 1.0, 1e-9);
  EXPECT_NEAR(r.p99_latency_s, r.frame_latency_s[0], 1e-12);
}

// With infinite link bandwidth every occupancy is zero-width, so contended
// mode must reproduce analytical mode bitwise on a full matched schedule.
TEST(EventSim, ContendedMatchesAnalyticalBitwiseAtInfiniteBandwidth) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  PackageConfig pkg = make_simba_package();
  const MatchResult match = throughput_matching(pipe, pkg);
  NopParams inf = pkg.nop();
  inf.bandwidth_bytes_per_s = std::numeric_limits<double>::infinity();
  pkg.set_nop(inf);  // match.schedule points at pkg

  SimOptions analytical;
  analytical.frames = 8;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;
  const SimResult a = simulate_schedule(match.schedule, analytical);
  const SimResult c = simulate_schedule(match.schedule, contended);
  EXPECT_TRUE(a.frame_completion_s == c.frame_completion_s);
  EXPECT_EQ(a.first_frame_latency_s, c.first_frame_latency_s);
  EXPECT_EQ(a.steady_interval_s, c.steady_interval_s);
  EXPECT_EQ(a.makespan_s, c.makespan_s);
  EXPECT_EQ(a.p99_latency_s, c.p99_latency_s);
  EXPECT_EQ(a.tasks_executed, c.tasks_executed);
  // Contended mode additionally reports per-link occupancy (all idle here).
  EXPECT_TRUE(a.link_stats.empty());
  EXPECT_FALSE(c.link_stats.empty());
  for (const LinkStats& l : c.link_stats) {
    EXPECT_DOUBLE_EQ(l.busy_s, 0.0) << l.link.describe();
    EXPECT_DOUBLE_EQ(l.max_queue_wait_s, 0.0) << l.link.describe();
    EXPECT_GT(l.messages, 0) << l.link.describe();
  }
}

// Fan-in hot link: many producers on one mesh row all feed an east-end
// consumer, so every transfer funnels through the last eastward link. At
// the paper-default 100 GB/s the offered per-frame link load exceeds the
// producers' compute time and congestion must bite: the measured steady
// interval exceeds the analytical prediction.
TEST(EventSim, FanInCongestionExceedsAnalyticalPrediction) {
  const int producers = 8;
  const PerceptionPipeline p = build_fanin_pipeline(producers);
  const PackageConfig pkg = make_simba_package(1, producers + 1);
  const Schedule sched = build_fanin_schedule(p, pkg);

  SimOptions analytical;
  analytical.frames = 48;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;
  const SimResult a = simulate_schedule(sched, analytical);
  const SimResult c = simulate_schedule(sched, contended);

  EXPECT_GT(c.steady_interval_s, a.steady_interval_s * 1.02);
  EXPECT_GT(c.p99_latency_s, a.p99_latency_s);
  // The shared east-most link is the hottest resource and actually queued.
  double max_wait = 0.0;
  for (const LinkStats& l : c.link_stats) {
    max_wait = std::max(max_wait, l.max_queue_wait_s);
  }
  const LinkStats* hottest = hottest_link(c.link_stats);
  ASSERT_NE(hottest, nullptr);
  EXPECT_GT(hottest->utilization, 0.5);
  EXPECT_GT(max_wait, 0.0);
  EXPECT_EQ(hottest->link.describe(),
            "npu0:(0," + std::to_string(producers - 1) + ")->(0," +
                std::to_string(producers) + ")");
}

// --- fault injection ---

// The canonical fault-under-load scenario shared by these tests: 7 compute
// chains + a fusion chain, one per chiplet of a 2x4 mesh, periodic
// admission with 30% headroom over the healthy steady rate. Chiplet 5 is
// mid-mesh, away from the I/O-port router at (0,0).
struct FaultScenario {
  PerceptionPipeline pipe = build_fault_probe_pipeline(7);
  PackageConfig pkg = make_simba_package(2, 4);
  Schedule sched = build_chainwise_schedule(pipe, pkg);
  SimOptions healthy;
  SimOptions faulted;

  FaultScenario() {
    healthy.frames = 64;
    SimOptions burst;
    burst.frames = 8;
    healthy.frame_interval_s =
        simulate_schedule(sched, burst).steady_interval_s * 1.3;
    faulted = healthy;
    faulted.fault.chiplet_id = 5;
    faulted.fault.fail_time_s = 20 * healthy.frame_interval_s;
    faulted.fault.recover_time_s = 32 * healthy.frame_interval_s;
    faulted.fault.reschedule_penalty_s = 2 * healthy.frame_interval_s;
  }
};

// Acceptance regression: with no FaultPlan the simulator's output is pinned
// bitwise to the pre-fault-subsystem behavior. These hexfloat constants
// were captured from the seed build (PR 3 state) on two deterministic
// scenarios x two NoP modes; any drift in event ordering, edge pricing, or
// reduction order changes them.
TEST(EventSim, NoFaultOutputBitwiseIdenticalToPreFaultBehavior) {
  {
    const PerceptionPipeline p = build_fanin_pipeline(8);
    const PackageConfig pkg = make_simba_package(1, 9);
    const Schedule sched = build_fanin_schedule(p, pkg);
    SimOptions a;
    a.frames = 48;
    SimOptions c = a;
    c.nop_mode = NopMode::kContended;
    const SimResult ra = simulate_schedule(sched, a);
    EXPECT_EQ(ra.first_frame_latency_s, 0x1.5b184e5b4fd86p-9);
    EXPECT_EQ(ra.steady_interval_s, 0x1.49db9116db68p-10);
    EXPECT_EQ(ra.makespan_s, 0x1.fa2c01ff473dap-5);
    EXPECT_EQ(ra.p99_latency_s, 0x1.f553be2fa99e4p-5);
    EXPECT_EQ(ra.tasks_executed, 432);
    const SimResult rc = simulate_schedule(sched, c);
    EXPECT_EQ(rc.first_frame_latency_s, 0x1.afe8590ffeb3dp-7);
    EXPECT_EQ(rc.steady_interval_s, 0x1.5fd7fe1796494p-10);
    EXPECT_EQ(rc.makespan_s, 0x1.385fa9bb5235p-4);
    EXPECT_EQ(rc.p99_latency_s, 0x1.35ca3262bf76bp-4);
  }
  {
    const PerceptionPipeline pipe = build_autopilot_pipeline();
    const PackageConfig pkg = make_simba_package();
    const MatchResult m = throughput_matching(pipe, pkg);
    SimOptions a;
    a.frames = 8;
    const SimResult ra = simulate_schedule(m.schedule, a);
    EXPECT_EQ(ra.first_frame_latency_s, 0x1.196ad75a4fe32p-1);
    EXPECT_EQ(ra.steady_interval_s, 0x1.51a62a958d996p-4);
    EXPECT_EQ(ra.makespan_s, 0x1.206e1e4e95e49p+0);
    EXPECT_EQ(ra.p99_latency_s, 0x1.1ef3f38f87fe5p+0);
    EXPECT_EQ(ra.tasks_executed, 5328);
    SimOptions pc = a;
    pc.frame_interval_s = 1.0 / 600.0;
    pc.nop_mode = NopMode::kContended;
    const SimResult rc = simulate_schedule(m.schedule, pc);
    EXPECT_EQ(rc.first_frame_latency_s, 0x1.19c289eb28b06p-1);
    EXPECT_EQ(rc.steady_interval_s, 0x1.51a62a958d992p-4);
    EXPECT_EQ(rc.makespan_s, 0x1.2099f797024b1p+0);
    EXPECT_EQ(rc.p99_latency_s, 0x1.1c2adbffaf94bp+0);
  }
}

TEST(EventSim, NoFaultNewFieldsAreInert) {
  FaultScenario s;
  const SimResult r = simulate_schedule(s.sched, s.healthy);
  EXPECT_EQ(r.frames_completed, s.healthy.frames);
  EXPECT_EQ(r.dropped_frames, 0);
  EXPECT_EQ(r.deadline_miss_frames, 0);
  EXPECT_EQ(r.remapped_items, 0);
  EXPECT_DOUBLE_EQ(r.recovery_time_s, 0.0);
  EXPECT_DOUBLE_EQ(r.peak_latency_s,
                   *std::max_element(r.frame_latency_s.begin(),
                                     r.frame_latency_s.end()));
}

TEST(EventSim, FaultSpikesThenRecovers) {
  FaultScenario s;
  const SimResult healthy = simulate_schedule(s.sched, s.healthy);
  const SimResult r = simulate_schedule(s.sched, s.faulted);
  // Conservation: every admitted frame completes (no deadline -> no drops).
  EXPECT_EQ(r.frames_completed, s.faulted.frames);
  EXPECT_EQ(r.dropped_frames, 0);
  // The fault produces a real latency spike...
  EXPECT_GT(r.peak_latency_s, healthy.peak_latency_s * 1.5);
  EXPECT_GT(r.recovery_time_s, 0.0);
  EXPECT_GT(r.remapped_items, 0);
  // ...frames completed before the fault are untouched...
  for (int f = 0; f < 10; ++f) {
    EXPECT_DOUBLE_EQ(r.frame_latency_s[static_cast<std::size_t>(f)],
                     healthy.frame_latency_s[static_cast<std::size_t>(f)])
        << f;
  }
  // ...and the stream settles back to the healthy latency after recovery.
  EXPECT_NEAR(r.frame_latency_s.back(), healthy.frame_latency_s.back(),
              healthy.frame_latency_s.back() * 1e-9);
}

TEST(EventSim, FaultWithoutRecoveryIdlesDeadChipletAndDegradesSteady) {
  FaultScenario s;
  s.faulted.fault.recover_time_s = -1.0;
  const SimResult healthy = simulate_schedule(s.sched, s.healthy);
  const SimResult r = simulate_schedule(s.sched, s.faulted);
  // The dead chiplet (dense index 5 on the 2x4) never works past the fault.
  EXPECT_LE(r.chiplet_busy_s[5], s.faulted.fault.fail_time_s);
  EXPECT_LT(r.chiplet_busy_s[5], healthy.chiplet_busy_s[5]);
  // Post-fault frames run degraded: worse tail than the healthy stream.
  EXPECT_GT(r.p99_latency_s, healthy.p99_latency_s);
}

TEST(EventSim, FaultAtTimeZeroMatchesSimulatingRemappedSchedule) {
  FaultScenario s;
  s.faulted.fault.fail_time_s = 0.0;
  s.faulted.fault.recover_time_s = -1.0;
  s.faulted.fault.reschedule_penalty_s = 0.0;
  const SimResult r = simulate_schedule(s.sched, s.faulted);

  const PackageConfig degraded = s.pkg.without_chiplet(5);
  const Schedule remapped = remap_schedule(s.sched, degraded, 5);
  const SimResult direct = simulate_schedule(remapped, s.healthy);
  // A fault before any work starts is exactly "run the remapped schedule
  // from scratch" — cross-validates the mid-stream flush machinery against
  // the plain simulator. (The degraded program indexes chiplets in the
  // original package order; busy vectors differ only by the dead slot.)
  ASSERT_EQ(r.frame_completion_s.size(), direct.frame_completion_s.size());
  for (std::size_t f = 0; f < r.frame_completion_s.size(); ++f) {
    EXPECT_DOUBLE_EQ(r.frame_completion_s[f], direct.frame_completion_s[f])
        << f;
  }
  EXPECT_DOUBLE_EQ(r.steady_interval_s, direct.steady_interval_s);
}

TEST(EventSim, FaultDeadlineDropsExpiredFramesAsNaN) {
  FaultScenario s;
  s.faulted.deadline_s = s.healthy.frame_interval_s * 2.5;
  s.faulted.fault.reschedule_penalty_s = 4 * s.healthy.frame_interval_s;
  const SimResult r = simulate_schedule(s.sched, s.faulted);
  EXPECT_GT(r.dropped_frames, 0);
  EXPECT_EQ(r.frames_completed + r.dropped_frames, s.faulted.frames);
  int nan_count = 0;
  for (int f = 0; f < s.faulted.frames; ++f) {
    const double comp = r.frame_completion_s[static_cast<std::size_t>(f)];
    const double lat = r.frame_latency_s[static_cast<std::size_t>(f)];
    EXPECT_EQ(std::isnan(comp), std::isnan(lat)) << f;
    if (std::isnan(comp)) ++nan_count;
  }
  EXPECT_EQ(nan_count, r.dropped_frames);
  // Aggregates exclude the NaNs.
  EXPECT_TRUE(std::isfinite(r.p99_latency_s));
  EXPECT_TRUE(std::isfinite(r.makespan_s));
  EXPECT_GT(r.deadline_miss_frames, 0);
}

TEST(EventSim, DeadlineMissesCountedWithoutFaultToo) {
  FaultScenario s;
  SimOptions opt = s.healthy;
  opt.frame_interval_s = 0.0;  // burst: later frames queue far past any
  opt.deadline_s = 1e-6;       // microsecond deadline
  const SimResult r = simulate_schedule(s.sched, opt);
  EXPECT_GT(r.deadline_miss_frames, 0);
  EXPECT_EQ(r.dropped_frames, 0);  // drops only happen at a fault flush
}

TEST(EventSim, FaultRunsAreDeterministic) {
  FaultScenario s;
  s.faulted.deadline_s = s.healthy.frame_interval_s * 3.0;
  const SimResult a = simulate_schedule(s.sched, s.faulted);
  const SimResult b = simulate_schedule(s.sched, s.faulted);
  EXPECT_TRUE(a.frame_completion_s == b.frame_completion_s ||
              // NaN != NaN: compare patterns elementwise.
              [&] {
                for (std::size_t f = 0; f < a.frame_completion_s.size(); ++f) {
                  const double x = a.frame_completion_s[f];
                  const double y = b.frame_completion_s[f];
                  if (std::isnan(x) != std::isnan(y)) return false;
                  if (!std::isnan(x) && x != y) return false;
                }
                return true;
              }());
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.peak_latency_s, b.peak_latency_s);
  EXPECT_EQ(a.recovery_time_s, b.recovery_time_s);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_TRUE(a.chiplet_busy_s == b.chiplet_busy_s);
}

// Same FaultPlan through the parallel sweep engine: the rendered artifact
// must be bitwise-identical for any worker-thread count.
TEST(EventSim, FaultSweepDeterministicAcrossThreadCounts) {
  FaultScenario s;
  SweepSpec spec =
      SweepSpec("fault_det").axis("fail_frame", {8, 16, 24, 32});
  const auto eval = [&](const SweepPoint& p) {
    SimOptions opt = s.faulted;
    opt.fault.fail_time_s =
        static_cast<double>(p.int_at("fail_frame")) * s.healthy.frame_interval_s;
    const SimResult r = simulate_schedule(s.sched, opt);
    SweepRecord rec;
    rec.set("peak_s", r.peak_latency_s)
        .set("p99_s", r.p99_latency_s)
        .set("recovery_s", r.recovery_time_s)
        .set("completed", static_cast<double>(r.frames_completed));
    return rec;
  };
  const std::string serial =
      SweepRunner({.threads = 1}).run(spec, eval).to_csv();
  const std::string two = SweepRunner({.threads = 2}).run(spec, eval).to_csv();
  const std::string all = SweepRunner({.threads = 0}).run(spec, eval).to_csv();
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, all);
}

TEST(EventSim, ContendedFaultAvoidsDeadRouterAndStaysDeterministic) {
  FaultScenario s;
  s.faulted.nop_mode = NopMode::kContended;
  s.faulted.fault.recover_time_s = -1.0;  // never recovers
  SimOptions healthy_contended = s.healthy;
  healthy_contended.nop_mode = NopMode::kContended;
  const SimResult h = simulate_schedule(s.sched, healthy_contended);
  const SimResult a = simulate_schedule(s.sched, s.faulted);
  const SimResult b = simulate_schedule(s.sched, s.faulted);
  EXPECT_TRUE(a.frame_completion_s == b.frame_completion_s);
  EXPECT_EQ(a.frames_completed, s.faulted.frames);
  // Contended mode resolves the remapped program's routes against the
  // degraded package, so after the flush no message touches the dead
  // router at (1,1) = chiplet 5. Messages on links into/out of that
  // position can only come from the primary program's pre-fault traffic:
  // strictly fewer than the healthy run's full-stream count, but nonzero
  // (the fault fired 20 frames in).
  const auto dead_router_messages = [](const SimResult& r) {
    const GridCoord dead{1, 1};
    int msgs = 0;
    for (const LinkStats& l : r.link_stats) {
      if (l.link.kind != NopLink::Kind::kMesh || l.link.npu != 0) continue;
      if (l.link.to == dead || l.link.from == dead) msgs += l.messages;
    }
    return msgs;
  };
  ASSERT_FALSE(a.link_stats.empty());
  EXPECT_GT(dead_router_messages(a), 0);
  EXPECT_LT(dead_router_messages(a), dead_router_messages(h));
}

// Regression: a frame admitted at the EXACT recovery instant runs the
// primary program and enqueues on the revived chiplet while its calendar is
// still infinity (kAdmit and its kDispatch sort before kRecover at equal
// timestamps). Without the kRecover dispatch kick that work was stranded
// forever and the conservation guard threw.
TEST(EventSim, FrameAdmittedAtRecoveryInstantIsNotStranded) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(2, 2);
  Schedule sched(p, pkg);
  sched.assign(0, 3);  // chiplet 3 = (1,1), away from the I/O router (0,0)

  SimOptions opt;
  opt.frames = 4;
  opt.model_nop_delays = false;
  opt.frame_interval_s = 1.0;
  opt.fault.chiplet_id = 3;
  opt.fault.fail_time_s = 0.5;
  opt.fault.recover_time_s = 3.0;  // == the last frame's admission instant
  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_EQ(r.frames_completed, 4);
  // The frame admitted at t=3.0 starts immediately on the recovered
  // chiplet: same latency as a healthy periodic frame.
  const double service = analyze_layer(m.layers[0], pkg.chiplet(3).array).latency_s;
  EXPECT_NEAR(r.frame_latency_s.back(), service, service * 1e-9);
}

TEST(EventSim, FaultValidation) {
  FaultScenario s;
  SimOptions bad = s.faulted;
  bad.fault.chiplet_id = 99;
  EXPECT_THROW(simulate_schedule(s.sched, bad), std::invalid_argument);
  bad = s.faulted;
  bad.fault.fail_time_s = -1.0;
  EXPECT_THROW(simulate_schedule(s.sched, bad), std::invalid_argument);
  bad = s.faulted;
  bad.fault.recover_time_s = bad.fault.fail_time_s / 2.0;
  EXPECT_THROW(simulate_schedule(s.sched, bad), std::invalid_argument);
}

TEST(EventSim, FaultOnIoPortRouterThrows) {
  FaultScenario s;
  // (0,0) = chiplet 0 hosts the I/O port link on the 2x4 mesh: killing it
  // severs ingress and the routing layer refuses to fabricate a route.
  s.faulted.fault.chiplet_id = 0;
  EXPECT_THROW(simulate_schedule(s.sched, s.faulted), std::runtime_error);
}

TEST(EventSim, FaultOnSingleChipletPackageThrows) {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 4096, 64, 64)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  const PackageConfig pkg = make_simba_package(1, 1);
  Schedule sched(p, pkg);
  sched.assign(0, 0);
  SimOptions opt;
  opt.fault.chiplet_id = 0;
  opt.fault.fail_time_s = 1.0;
  EXPECT_THROW(simulate_schedule(sched, opt), std::invalid_argument);
}

// --- multi-tenant serving ---

// The canonical serving scenario shared by these tests: N tenants, each a
// 3-camera perception probe pipeline, on a 4x4 mesh whose quadrant pools
// partition cleanly.
struct ServingScenario {
  PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  PackageConfig pkg = make_simba_package(4, 4);
  double healthy = 0.0;  // steady interval of one tenant alone (chainwise)

  ServingScenario() {
    SimOptions burst;
    burst.frames = 8;
    healthy = simulate_schedule(build_chainwise_schedule(pipe, pkg), burst)
                  .steady_interval_s;
  }

  std::vector<TenantWorkload> fleet(int n, double interval,
                                    double deadline = 0.0) const {
    std::vector<TenantWorkload> out;
    for (int t = 0; t < n; ++t) {
      TenantWorkload w;
      w.name = "t" + std::to_string(t);
      w.pipeline = &pipe;
      w.frames = 24;
      w.frame_interval_s = interval;
      w.deadline_s = deadline;
      w.priority = t == 0 ? 1 : 0;
      out.push_back(w);
    }
    return out;
  }
};

// Acceptance: ONE tenant under the shared policy must be bitwise-identical
// to the legacy single-stream simulator on the same chainwise schedule —
// the serving layer adds capability, not noise. Checked in both NoP modes
// and with periodic admission.
TEST(Serving, SingleTenantSharedBitwiseIdenticalToLegacy) {
  const ServingScenario s;
  for (const NopMode mode : {NopMode::kAnalytical, NopMode::kContended}) {
    SimOptions legacy_opt;
    legacy_opt.frames = 24;
    legacy_opt.frame_interval_s = s.healthy * 1.5;
    legacy_opt.nop_mode = mode;
    const Schedule legacy_sched = build_chainwise_schedule(s.pipe, s.pkg);
    const SimResult legacy = simulate_schedule(legacy_sched, legacy_opt);

    std::vector<TenantWorkload> one = s.fleet(1, s.healthy * 1.5);
    ServingOptions opt;
    opt.policy = PlacementPolicy::kShared;
    opt.nop_mode = mode;
    const SimResult served = serve_tenants(s.pkg, one, opt);

    EXPECT_TRUE(served.frame_completion_s == legacy.frame_completion_s);
    EXPECT_TRUE(served.frame_latency_s == legacy.frame_latency_s);
    EXPECT_TRUE(served.chiplet_busy_s == legacy.chiplet_busy_s);
    EXPECT_EQ(served.first_frame_latency_s, legacy.first_frame_latency_s);
    EXPECT_EQ(served.steady_interval_s, legacy.steady_interval_s);
    EXPECT_EQ(served.makespan_s, legacy.makespan_s);
    EXPECT_EQ(served.p50_latency_s, legacy.p50_latency_s);
    EXPECT_EQ(served.p95_latency_s, legacy.p95_latency_s);
    EXPECT_EQ(served.p99_latency_s, legacy.p99_latency_s);
    EXPECT_EQ(served.tasks_executed, legacy.tasks_executed);
    EXPECT_EQ(served.frames_completed, legacy.frames_completed);
    // The serving run also carries the per-tenant slice.
    ASSERT_EQ(served.tenants.size(), 1u);
    EXPECT_EQ(served.tenants.front().p99_latency_s, legacy.p99_latency_s);
    EXPECT_TRUE(served.tenants.front().frame_completion_s ==
                legacy.frame_completion_s);
  }
}

// An explicit one-entry tenant list (schedule = nullptr -> the top-level
// schedule) is the same engine path as the implicit legacy options.
TEST(Serving, ExplicitSingleStreamMatchesImplicitOptions) {
  const ServingScenario s;
  const Schedule sched = build_chainwise_schedule(s.pipe, s.pkg);
  SimOptions implicit;
  implicit.frames = 16;
  implicit.frame_interval_s = s.healthy * 1.2;
  implicit.deadline_s = s.healthy * 3.0;
  const SimResult a = simulate_schedule(sched, implicit);

  SimOptions explicit_opt;
  TenantStream stream;
  stream.frames = 16;
  stream.frame_interval_s = s.healthy * 1.2;
  stream.deadline_s = s.healthy * 3.0;
  explicit_opt.tenants.push_back(stream);
  const SimResult b = simulate_schedule(sched, explicit_opt);

  EXPECT_TRUE(a.frame_completion_s == b.frame_completion_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.steady_interval_s, b.steady_interval_s);
  EXPECT_EQ(a.deadline_miss_frames, b.deadline_miss_frames);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
}

// Single-stream legacy runs also report their one-tenant slice, and it
// agrees with the package-level aggregates.
TEST(Serving, LegacyRunFillsSingleTenantSlice) {
  const ServingScenario s;
  const Schedule sched = build_chainwise_schedule(s.pipe, s.pkg);
  SimOptions opt;
  opt.frames = 12;
  const SimResult r = simulate_schedule(sched, opt);
  ASSERT_EQ(r.tenants.size(), 1u);
  const TenantResult& tr = r.tenants.front();
  EXPECT_EQ(tr.frames, 12);
  EXPECT_EQ(tr.frames_completed, r.frames_completed);
  EXPECT_EQ(tr.p99_latency_s, r.p99_latency_s);
  EXPECT_EQ(tr.peak_latency_s, r.peak_latency_s);
  EXPECT_TRUE(tr.frame_completion_s == r.frame_completion_s);
}

// Per-tenant frame conservation: completed + dropped == admitted for every
// tenant, healthy or faulted, and the package totals are the tenant sums.
TEST(Serving, PerTenantConservationUnderFault) {
  const ServingScenario s;
  std::vector<TenantWorkload> fleet =
      s.fleet(3, s.healthy * 1.5, s.healthy * 4.0);
  ServingOptions opt;
  opt.policy = PlacementPolicy::kShared;
  opt.fault.chiplet_id = 5;  // (1,1): away from the I/O router
  opt.fault.fail_time_s = 8 * s.healthy;
  opt.fault.recover_time_s = 20 * s.healthy;
  opt.fault.reschedule_penalty_s = 4 * s.healthy;
  const SimResult r = serve_tenants(s.pkg, fleet, opt);
  ASSERT_EQ(r.tenants.size(), 3u);
  int completed = 0;
  int dropped = 0;
  for (const TenantResult& tr : r.tenants) {
    EXPECT_EQ(tr.frames_completed + tr.dropped_frames, tr.frames) << tr.name;
    int nan_count = 0;
    for (int f = 0; f < tr.frames; ++f) {
      const std::size_t fi = static_cast<std::size_t>(f);
      EXPECT_EQ(std::isnan(tr.frame_completion_s[fi]),
                std::isnan(tr.frame_latency_s[fi]))
          << tr.name << " frame " << f;
      if (std::isnan(tr.frame_completion_s[fi])) ++nan_count;
    }
    EXPECT_EQ(nan_count, tr.dropped_frames) << tr.name;
    completed += tr.frames_completed;
    dropped += tr.dropped_frames;
  }
  EXPECT_EQ(completed, r.frames_completed);
  EXPECT_EQ(dropped, r.dropped_frames);
  EXPECT_EQ(completed + dropped, 3 * 24);
}

// Partitioned isolation: tenant A's completions are BITWISE independent of
// tenant B's load — disjoint static chiplet pools share nothing in
// analytical NoP mode.
TEST(Serving, PartitionedIsolationIndependentOfNeighborLoad) {
  const ServingScenario s;
  // Pools must actually partition (2 tenants over 4 quadrants -> 2 + 2).
  const auto pools = partition_tenant_pools(s.pkg, 2);
  ASSERT_EQ(pools.size(), 2u);

  ServingOptions opt;
  opt.policy = PlacementPolicy::kPartitioned;
  std::vector<TenantWorkload> calm = s.fleet(2, s.healthy * 2.0);
  const SimResult base = serve_tenants(s.pkg, calm, opt);

  std::vector<TenantWorkload> stormy = calm;
  stormy[1].frame_interval_s = 0.0;  // tenant B bursts at full rate
  stormy[1].frames = 48;
  const SimResult loaded = serve_tenants(s.pkg, stormy, opt);

  // Tenant B's world changed...
  EXPECT_NE(base.tenants[1].frames, loaded.tenants[1].frames);
  // ...tenant A's did not, bit for bit.
  EXPECT_TRUE(base.tenants[0].frame_completion_s ==
              loaded.tenants[0].frame_completion_s);
  EXPECT_EQ(base.tenants[0].p99_latency_s, loaded.tenants[0].p99_latency_s);
  EXPECT_EQ(base.tenants[0].steady_interval_s,
            loaded.tenants[0].steady_interval_s);
}

// The consolidation acceptance property (bench_serving enforces it too):
// shared placement inflates the worst tenant p99; partitioning removes the
// interference at identical load.
TEST(Serving, SharedPolicyInflatesTailVsPartitioned) {
  const ServingScenario s;
  std::vector<TenantWorkload> fleet = s.fleet(4, s.healthy * 1.5);
  ServingOptions shared;
  shared.policy = PlacementPolicy::kShared;
  ServingOptions part;
  part.policy = PlacementPolicy::kPartitioned;
  const SimResult rs = serve_tenants(s.pkg, fleet, shared);
  const SimResult rp = serve_tenants(s.pkg, fleet, part);
  double worst_shared = 0.0;
  double worst_part = 0.0;
  for (int t = 0; t < 4; ++t) {
    worst_shared =
        std::max(worst_shared, rs.tenants[static_cast<std::size_t>(t)].p99_latency_s);
    worst_part =
        std::max(worst_part, rp.tenants[static_cast<std::size_t>(t)].p99_latency_s);
  }
  EXPECT_GT(worst_shared, worst_part * 1.2);
}

// kPriority: the priority tenant's tail is shielded from the overload the
// other tenants experience, and beats its own tail under plain kShared.
TEST(Serving, PriorityTenantShieldedUnderOverload) {
  const ServingScenario s;
  std::vector<TenantWorkload> fleet = s.fleet(4, s.healthy * 1.5);
  ServingOptions shared;
  shared.policy = PlacementPolicy::kShared;
  ServingOptions priority;
  priority.policy = PlacementPolicy::kPriority;
  const SimResult rs = serve_tenants(s.pkg, fleet, shared);
  const SimResult rp = serve_tenants(s.pkg, fleet, priority);
  EXPECT_LT(rp.tenants[0].p99_latency_s, rs.tenants[0].p99_latency_s);
  EXPECT_LT(rp.tenants[0].p99_latency_s, rp.tenants[3].p99_latency_s);
}

// Max-sustainable-load: finds a non-trivial feasible rate, the bracket is
// consistent, and re-serving AT the found rate really meets every
// deadline.
TEST(Serving, MaxSustainableLoadFindsFeasibleRate) {
  const ServingScenario s;
  std::vector<TenantWorkload> fleet = s.fleet(2, 0.0, s.healthy * 4.0);
  for (TenantWorkload& w : fleet) w.frames = 16;
  ServingOptions opt;
  opt.policy = PlacementPolicy::kPartitioned;
  LoadSearchOptions search;
  search.fps_lo = 0.2 / s.healthy;
  search.fps_hi = 2.0 / s.healthy;
  search.probes_per_round = 3;
  search.max_rounds = 3;
  const LoadSearchResult r = max_sustainable_load(s.pkg, fleet, opt, search);
  ASSERT_GT(r.max_fps, 0.0);
  EXPECT_FALSE(r.probes.empty());
  if (r.min_infeasible_fps > 0.0) {
    EXPECT_LT(r.max_fps, r.min_infeasible_fps);
  }
  // The reported rate is genuinely sustainable.
  for (TenantWorkload& w : fleet) w.frame_interval_s = 1.0 / r.max_fps;
  const SimResult at_max = serve_tenants(s.pkg, fleet, opt);
  for (const TenantResult& tr : at_max.tenants) {
    EXPECT_LE(tr.p99_latency_s, s.healthy * 4.0) << tr.name;
  }
}

// Every field of two searches, probe by probe; the p99 compares as a bit
// pattern so a NaN tail or a last-ulp drift both show.
void expect_same_search(const LoadSearchResult& serial,
                        const LoadSearchResult& other, int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.max_fps),
            std::bit_cast<std::uint64_t>(other.max_fps));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.min_infeasible_fps),
            std::bit_cast<std::uint64_t>(other.min_infeasible_fps));
  EXPECT_EQ(serial.rounds, other.rounds);
  ASSERT_EQ(serial.probes.size(), other.probes.size());
  for (std::size_t i = 0; i < serial.probes.size(); ++i) {
    const LoadProbe& a = serial.probes[i];
    const LoadProbe& b = other.probes[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fps),
              std::bit_cast<std::uint64_t>(b.fps)) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.worst_p99_s),
              std::bit_cast<std::uint64_t>(b.worst_p99_s)) << i;
    EXPECT_EQ(a.deadline_misses, b.deadline_misses) << i;
    EXPECT_EQ(a.shed_frames, b.shed_frames) << i;
    EXPECT_EQ(a.feasible, b.feasible) << i;
  }
}

// The search is deterministic for any sweep-engine thread count: a
// closed-loop shared fleet, and the serving_openloop benchmark's shape
// (partitioned, contended NoP, Poisson arrivals, a drop-oldest queue of
// four frames), each at 1-4 threads against the serial search.
TEST(Serving, MaxSustainableLoadDeterministicAcrossThreadCounts) {
  const ServingScenario s;
  std::vector<TenantWorkload> fleet = s.fleet(2, 0.0, s.healthy * 4.0);
  for (TenantWorkload& w : fleet) w.frames = 12;
  ServingOptions opt;
  opt.policy = PlacementPolicy::kShared;
  LoadSearchOptions search;
  search.fps_lo = 0.2 / s.healthy;
  search.fps_hi = 1.5 / s.healthy;
  search.probes_per_round = 3;
  search.max_rounds = 2;

  std::vector<TenantWorkload> open = s.fleet(4, 0.0, s.healthy * 8.0);
  for (std::size_t t = 0; t < open.size(); ++t) {
    TenantWorkload& w = open[t];
    w.frames = 24;
    w.priority = 0;
    w.arrivals.kind = ArrivalKind::kPoisson;
    w.arrivals.rate_fps = 1.0 / s.healthy;
    w.arrivals.seed = 0x5E7u + t;
    w.admission.queue_capacity = 4;
    w.admission.policy = ShedPolicy::kDropOldest;
  }
  ServingOptions open_opt;
  open_opt.policy = PlacementPolicy::kPartitioned;
  open_opt.nop_mode = NopMode::kContended;
  LoadSearchOptions open_search;
  open_search.fps_lo = 0.02 / s.healthy;
  open_search.fps_hi = 2.0 / s.healthy;
  open_search.use_static_bound = true;

  search.threads = 1;
  open_search.threads = 1;
  const LoadSearchResult serial = max_sustainable_load(s.pkg, fleet, opt, search);
  const LoadSearchResult open_serial =
      max_sustainable_load(s.pkg, open, open_opt, open_search);
  ASSERT_GT(open_serial.rounds, 1);
  for (const int threads : {1, 2, 3, 4}) {
    search.threads = threads;
    open_search.threads = threads;
    expect_same_search(serial, max_sustainable_load(s.pkg, fleet, opt, search),
                       threads);
    expect_same_search(
        open_serial, max_sustainable_load(s.pkg, open, open_opt, open_search),
        threads);
  }
}

TEST(Serving, ValidationThrows) {
  const ServingScenario s;
  // Empty fleet / null pipeline.
  EXPECT_THROW(serve_tenants(s.pkg, {}, {}), std::invalid_argument);
  std::vector<TenantWorkload> bad = s.fleet(1, 0.0);
  bad[0].pipeline = nullptr;
  EXPECT_THROW(serve_tenants(s.pkg, bad, {}), std::invalid_argument);
  // A tenant scheduled on a DIFFERENT package must be rejected.
  const Schedule mine = build_chainwise_schedule(s.pipe, s.pkg);
  const PackageConfig other_pkg = make_simba_package(4, 4);
  const Schedule foreign = build_chainwise_schedule(s.pipe, other_pkg);
  SimOptions opt;
  TenantStream stream;
  stream.schedule = &foreign;
  opt.tenants.push_back(stream);
  EXPECT_THROW(simulate_schedule(mine, opt), std::invalid_argument);
  // Load search needs real deadlines and a sane bracket.
  std::vector<TenantWorkload> no_deadline = s.fleet(2, 0.0, 0.0);
  EXPECT_THROW(max_sustainable_load(s.pkg, no_deadline, {}, {}),
               std::invalid_argument);
  std::vector<TenantWorkload> fine = s.fleet(2, 0.0, s.healthy * 4.0);
  LoadSearchOptions inverted;
  inverted.fps_lo = 100.0;
  inverted.fps_hi = 10.0;
  EXPECT_THROW(max_sustainable_load(s.pkg, fine, {}, inverted),
               std::invalid_argument);
}

// --- open-loop arrivals + continuous-batching admission control ---

// A deliberately tiny serving scenario with an exactly-known service time:
// one gemm on one chiplet, so frame timing under any arrival process can
// be reasoned about in closed form.
struct MiniServing {
  PerceptionPipeline p;
  PackageConfig pkg = make_simba_package(1, 1);
  std::unique_ptr<Schedule> sched;
  double service = 0.0;  // one frame's exact service time

  MiniServing() {
    Model m;
    m.name = "M";
    m.layers = {gemm("A", 4096, 64, 64)};
    p.stages.push_back(Stage{"S", {{m, false}}});
    sched = std::make_unique<Schedule>(p, pkg);
    sched->assign(0, 0);
    service = analyze_layer(m.layers[0], pkg.chiplet(0).array).latency_s;
  }

  SimOptions base(int frames) const {
    SimOptions opt;
    opt.frames = frames;
    opt.model_nop_delays = false;
    return opt;
  }
};

// Satellite regression: the steady-interval estimate assumes periodic
// admission; with an arrival process active it must be a documented NaN
// (package-level and per-tenant), not a silently wrong number.
TEST(OpenLoop, SteadyIntervalIsNaNUnderArrivalProcess) {
  const MiniServing s;
  SimOptions opt = s.base(8);
  opt.arrivals.kind = ArrivalKind::kPoisson;
  opt.arrivals.rate_fps = 0.25 / s.service;  // underload: no queue growth
  opt.arrivals.seed = 3;
  const SimResult r = simulate_schedule(*s.sched, opt);
  EXPECT_TRUE(std::isnan(r.steady_interval_s));
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_TRUE(std::isnan(r.tenants.front().steady_interval_s));
  // Everything else stays well-defined.
  EXPECT_EQ(r.frames_completed, 8);
  EXPECT_EQ(r.dropped_frames, 0);
  EXPECT_EQ(r.shed_frames, 0);
  EXPECT_FALSE(std::isnan(r.p99_latency_s));

  // Closed-loop control: same options minus the process -> finite steady.
  SimOptions closed = s.base(8);
  const SimResult c = simulate_schedule(*s.sched, closed);
  EXPECT_FALSE(std::isnan(c.steady_interval_s));
  EXPECT_FALSE(std::isnan(c.tenants.front().steady_interval_s));
}

// Latency is measured from the REALIZED admission instant: regenerating
// the same seeded process reproduces admit instants, and latency must be
// exactly completion - admit, bit for bit.
TEST(OpenLoop, LatencyMeasuredFromRealizedAdmissionInstant) {
  const MiniServing s;
  SimOptions opt = s.base(16);
  opt.arrivals.kind = ArrivalKind::kPoisson;
  opt.arrivals.rate_fps = 0.5 / s.service;
  opt.arrivals.seed = 77;
  const SimResult r = simulate_schedule(*s.sched, opt);
  const std::vector<double> admit = generate_arrivals(opt.arrivals, 16);
  ASSERT_EQ(r.frame_latency_s.size(), 16u);
  for (int f = 0; f < 16; ++f) {
    const std::size_t k = static_cast<std::size_t>(f);
    EXPECT_EQ(r.frame_latency_s[k], r.frame_completion_s[k] - admit[k]) << f;
    EXPECT_GE(r.frame_completion_s[k], admit[k]) << f;
  }
}

// A periodic process at a power-of-two rate admits at f / 32 — the exact
// doubles closed-loop f * (1/32) admission produces — so the two paths
// must agree bitwise on every completion and latency (steady interval
// excepted: it is NaN open-loop by contract).
TEST(OpenLoop, PeriodicProcessMatchesClosedLoopBitwise) {
  const MiniServing s;
  SimOptions closed = s.base(12);
  closed.frame_interval_s = 1.0 / 32.0;
  const SimResult c = simulate_schedule(*s.sched, closed);

  SimOptions open = s.base(12);
  open.arrivals.kind = ArrivalKind::kPeriodic;
  open.arrivals.rate_fps = 32.0;
  const SimResult o = simulate_schedule(*s.sched, open);

  EXPECT_TRUE(o.frame_completion_s == c.frame_completion_s);
  EXPECT_TRUE(o.frame_latency_s == c.frame_latency_s);
  EXPECT_EQ(o.p99_latency_s, c.p99_latency_s);
  EXPECT_EQ(o.tasks_executed, c.tasks_executed);
  EXPECT_TRUE(std::isnan(o.steady_interval_s));
  EXPECT_FALSE(std::isnan(c.steady_interval_s));
}

// Satellite pin: the hexfloat acceptance constants of
// NoFaultOutputBitwiseIdenticalToPreFaultBehavior, re-asserted with the
// arrivals/admission fields EXPLICITLY set to their default-constructed
// (inactive) state — proving "compiled in but unset" is zero-drift vs the
// PR 6 closed-loop behavior.
TEST(OpenLoop, ClosedLoopUnsetArrivalsBitwiseIdenticalToPinnedBehavior) {
  const PerceptionPipeline p = build_fanin_pipeline(8);
  const PackageConfig pkg = make_simba_package(1, 9);
  const Schedule sched = build_fanin_schedule(p, pkg);
  SimOptions a;
  a.frames = 48;
  a.arrivals = ArrivalSpec{};
  a.admission = AdmissionControl{};
  TenantStream stream;
  stream.frames = 48;
  stream.arrivals = ArrivalSpec{};
  stream.admission = AdmissionControl{};
  for (const bool explicit_tenant : {false, true}) {
    SimOptions opt = a;
    if (explicit_tenant) opt.tenants.push_back(stream);
    const SimResult ra = simulate_schedule(sched, opt);
    EXPECT_EQ(ra.first_frame_latency_s, 0x1.5b184e5b4fd86p-9);
    EXPECT_EQ(ra.steady_interval_s, 0x1.49db9116db68p-10);
    EXPECT_EQ(ra.makespan_s, 0x1.fa2c01ff473dap-5);
    EXPECT_EQ(ra.p99_latency_s, 0x1.f553be2fa99e4p-5);
    EXPECT_EQ(ra.tasks_executed, 432);
    EXPECT_EQ(ra.shed_frames, 0);
  }
}

TEST(Shedding, RejectNewBoundsTheQueue) {
  const MiniServing s;
  SimOptions opt = s.base(8);  // interval 0: all 8 admits at t = 0
  opt.admission.queue_capacity = 2;
  opt.admission.policy = ShedPolicy::kRejectNew;
  const SimResult r = simulate_schedule(*s.sched, opt);
  // Admissions pop before any dispatch at t = 0, so the queue fills with
  // frames 0 and 1 and every later arrival is refused.
  EXPECT_EQ(r.frames_completed, 2);
  EXPECT_EQ(r.shed_frames, 6);
  EXPECT_EQ(r.dropped_frames, 0);
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_EQ(r.tenants.front().shed_frames, 6);
  for (int f = 0; f < 8; ++f) {
    const std::size_t k = static_cast<std::size_t>(f);
    if (f < 2) {
      EXPECT_FALSE(std::isnan(r.frame_completion_s[k])) << f;
    } else {
      EXPECT_TRUE(std::isnan(r.frame_completion_s[k])) << f;
      EXPECT_TRUE(std::isnan(r.frame_latency_s[k])) << f;
    }
  }
  EXPECT_NEAR(r.frame_completion_s[0], s.service, s.service * 1e-9);
  EXPECT_NEAR(r.frame_completion_s[1], 2 * s.service, s.service * 1e-9);
}

TEST(Shedding, DropOldestKeepsTheFreshestFrames) {
  const MiniServing s;
  SimOptions opt = s.base(8);
  opt.admission.queue_capacity = 2;
  opt.admission.policy = ShedPolicy::kDropOldest;
  const SimResult r = simulate_schedule(*s.sched, opt);
  // Head drop: each arrival evicts the oldest queued frame, so the queue
  // ends holding the two NEWEST frames (6 and 7).
  EXPECT_EQ(r.frames_completed, 2);
  EXPECT_EQ(r.shed_frames, 6);
  for (int f = 0; f < 6; ++f) {
    EXPECT_TRUE(std::isnan(r.frame_completion_s[static_cast<std::size_t>(f)]))
        << f;
  }
  EXPECT_FALSE(std::isnan(r.frame_completion_s[6]));
  EXPECT_FALSE(std::isnan(r.frame_completion_s[7]));
}

TEST(Shedding, DropNewestKeepsTheHeadOfTheQueue) {
  const MiniServing s;
  SimOptions opt = s.base(8);
  opt.admission.queue_capacity = 2;
  opt.admission.policy = ShedPolicy::kDropNewest;
  const SimResult r = simulate_schedule(*s.sched, opt);
  // Tail drop with eviction: each arrival replaces the newest queued
  // frame, so frame 0 and the LAST arrival (7) survive.
  EXPECT_EQ(r.frames_completed, 2);
  EXPECT_EQ(r.shed_frames, 6);
  EXPECT_FALSE(std::isnan(r.frame_completion_s[0]));
  EXPECT_FALSE(std::isnan(r.frame_completion_s[7]));
  for (int f = 1; f < 7; ++f) {
    EXPECT_TRUE(std::isnan(r.frame_completion_s[static_cast<std::size_t>(f)]))
        << f;
  }
}

TEST(Shedding, ExpiredEvictionShedsGuaranteedMissesAndImprovesMissRate) {
  const MiniServing s;
  // 4x overload: the queue grows by 3/4 frame per admission, so later
  // frames are doomed to miss a 2-service deadline long before dispatch.
  SimOptions opt = s.base(16);
  opt.frame_interval_s = s.service / 4.0;
  opt.deadline_s = 2.0 * s.service;
  const SimResult no_shed = simulate_schedule(*s.sched, opt);
  EXPECT_GT(no_shed.deadline_miss_frames, 8);  // most frames miss

  opt.admission.shed_expired = true;
  const SimResult shed = simulate_schedule(*s.sched, opt);
  EXPECT_GT(shed.shed_frames, 0);
  EXPECT_EQ(shed.frames_completed + shed.dropped_frames + shed.shed_frames,
            16);
  // Shed frames never count as misses, and the completed frames meet the
  // deadline more often than the no-shed stream's.
  EXPECT_LT(shed.deadline_miss_frames, no_shed.deadline_miss_frames);
}

TEST(Shedding, QueueDelayAttributedPerTenant) {
  const MiniServing s;
  // Three back-to-back frames on one chiplet: first dispatches at 0, the
  // next at 1 service, the third at 2 — mean queue delay 1 service, peak 2.
  const SimResult r = simulate_schedule(*s.sched, s.base(3));
  ASSERT_EQ(r.tenants.size(), 1u);
  const TenantResult& tr = r.tenants.front();
  EXPECT_NEAR(tr.mean_queue_delay_s, s.service, s.service * 1e-9);
  EXPECT_NEAR(tr.peak_queue_delay_s, 2 * s.service, s.service * 1e-9);
}

TEST(Shedding, PolicyWithoutCapacityThrows) {
  const MiniServing s;
  SimOptions opt = s.base(4);
  opt.admission.policy = ShedPolicy::kDropOldest;  // capacity left at 0
  EXPECT_THROW(simulate_schedule(*s.sched, opt), std::invalid_argument);
}

// The serving layer forwards arrivals + admission: an overloaded Poisson
// tenant with a bounded queue sheds, and the load search reports the shed
// frames while treating them as infeasible by default.
TEST(Serving, OpenLoopShedRatePropagatesThroughLoadSearch) {
  const ServingScenario s;
  std::vector<TenantWorkload> fleet = s.fleet(2, 0.0, s.healthy * 6.0);
  for (TenantWorkload& w : fleet) {
    w.arrivals.kind = ArrivalKind::kPoisson;
    w.arrivals.seed = 17;
    w.admission.queue_capacity = 4;
    w.admission.policy = ShedPolicy::kDropOldest;
  }
  LoadSearchOptions search;
  search.fps_lo = 0.05 / s.healthy;
  search.fps_hi = 4.0 / s.healthy;
  search.probes_per_round = 3;
  search.max_rounds = 3;
  const LoadSearchResult res =
      max_sustainable_load(s.pkg, fleet, {}, search);
  ASSERT_FALSE(res.probes.empty());
  bool any_shed = false;
  for (const LoadProbe& p : res.probes) {
    if (p.shed_frames > 0) {
      any_shed = true;
      EXPECT_FALSE(p.feasible)
          << "default max_shed_fraction 0 must reject shedding probes";
    }
  }
  EXPECT_TRUE(any_shed) << "the 4x-overload ceiling probe must shed";
  EXPECT_LT(res.max_fps, search.fps_hi);
}

TEST(EventSim, FrameCompletionsMonotone) {
  const PerceptionPipeline front = build_autopilot_front();
  const PackageConfig pkg = make_simba_package();
  const MatchResult match = throughput_matching(front, pkg);
  SimOptions opt;
  opt.frames = 6;
  const SimResult sim = simulate_schedule(match.schedule, opt);
  for (std::size_t f = 1; f < sim.frame_completion_s.size(); ++f) {
    EXPECT_GT(sim.frame_completion_s[f], sim.frame_completion_s[f - 1]);
  }
}

}  // namespace
}  // namespace cnpu
