// Sweep engine: spec enumeration, pool execution, runner determinism.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.h"
#include "core/throughput_matching.h"
#include "exp/sweep.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"
#include "sim_result_eq.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

// ---------------------------------------------------------------- SweepSpec

TEST(ParamValueTest, KindsAndConversions) {
  const ParamValue i(7);
  EXPECT_EQ(i.int_value(), 7);
  EXPECT_DOUBLE_EQ(i.double_value(), 7.0);
  EXPECT_EQ(i.to_string(), "7");

  const ParamValue d(2.5);
  EXPECT_DOUBLE_EQ(d.double_value(), 2.5);
  EXPECT_EQ(d.int_value(), 2);  // truncates
  EXPECT_EQ(d.to_string(), "2.5");

  const ParamValue s("stagewise");
  EXPECT_EQ(s.string_value(), "stagewise");
  EXPECT_THROW(s.int_value(), std::logic_error);
  EXPECT_THROW(d.string_value(), std::logic_error);
}

TEST(SweepSpecTest, CartesianNestedLoopOrder) {
  const SweepSpec spec =
      SweepSpec("grid").axis("a", {1, 2}).axis("b", {10, 20, 30});
  ASSERT_EQ(spec.num_points(), 6);
  // First axis slowest: (1,10) (1,20) (1,30) (2,10) (2,20) (2,30).
  EXPECT_EQ(spec.point(0).int_at("a"), 1);
  EXPECT_EQ(spec.point(0).int_at("b"), 10);
  EXPECT_EQ(spec.point(2).int_at("a"), 1);
  EXPECT_EQ(spec.point(2).int_at("b"), 30);
  EXPECT_EQ(spec.point(3).int_at("a"), 2);
  EXPECT_EQ(spec.point(3).int_at("b"), 10);
  EXPECT_EQ(spec.point(5).label(), "a=2 b=30");
}

TEST(SweepSpecTest, ZippedAxesAdvanceTogether) {
  const SweepSpec spec = SweepSpec("res", SweepCombine::kZipped)
                             .axis("name", {"480p", "720p"})
                             .axis("h", {480, 720});
  ASSERT_EQ(spec.num_points(), 2);
  EXPECT_EQ(spec.point(1).str_at("name"), "720p");
  EXPECT_EQ(spec.point(1).int_at("h"), 720);
}

TEST(SweepSpecTest, ZippedLengthMismatchThrows) {
  const SweepSpec spec = SweepSpec("bad", SweepCombine::kZipped)
                             .axis("a", {1, 2, 3})
                             .axis("b", {1});
  EXPECT_THROW(spec.num_points(), std::logic_error);
}

TEST(SweepSpecTest, OutOfRangeAccessThrows) {
  const SweepSpec spec = SweepSpec("one").axis("a", {1});
  EXPECT_THROW(spec.point(-1), std::out_of_range);
  EXPECT_THROW(spec.point(1), std::out_of_range);
  EXPECT_THROW(spec.point(0).at("nope"), std::out_of_range);
}

TEST(SweepSpecTest, EmptySpecAndEmptyAxis) {
  EXPECT_EQ(SweepSpec("empty").num_points(), 0);
  EXPECT_EQ(SweepSpec("empty_axis").axis("a", {}).num_points(), 0);
}

// --------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, SubmitWaitCyclesCompose) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, StealsFromSiblingQueues) {
  // 2 workers, one long task pinned first: the round-robin deal puts half
  // the short tasks behind the long one; they only finish promptly if the
  // idle worker steals them. Completion of all tasks within wait_idle is
  // the correctness bar (no deadlock, nothing lost).
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
    // No wait_idle: destruction must still run everything exactly once.
  }
  EXPECT_EQ(count.load(), 50);
}

// Race-detection regression (run under -DCNPU_SANITIZE=thread in CI): the
// pool's shutdown path and the thread-local current_worker_index() have
// been audited data-race-clean — every queue/counter access is under mu_,
// the worker index is written once per thread before any task runs, and
// jthread's stop/join pair orders destruction after the drain. This stress
// keeps TSan pointed at the risky interleavings: external submitter
// threads racing each other, workers reading their index mid-task, and
// destruction without wait_idle while the backlog is still draining.
TEST(ThreadPoolTest, ConcurrentSubmittersAndShutdownStress) {
  constexpr int kWorkers = 3;
  constexpr int kSubmitters = 3;
  constexpr int kTasksPerSubmitter = 50;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    std::atomic<bool> bad_index{false};
    {
      ThreadPool pool(kWorkers);
      {
        std::vector<std::jthread> submitters;
        for (int t = 0; t < kSubmitters; ++t) {
          submitters.emplace_back([&pool, &count, &bad_index] {
            for (int i = 0; i < kTasksPerSubmitter; ++i) {
              pool.submit([&count, &bad_index] {
                const int idx = ThreadPool::current_worker_index();
                if (idx < 0 || idx >= kWorkers) bad_index = true;
                ++count;
              });
            }
          });
        }
      }  // submitters joined; the backlog may still be draining
    }  // pool destruction drains the remaining tasks
    EXPECT_EQ(count.load(), kSubmitters * kTasksPerSubmitter);
    EXPECT_FALSE(bad_index.load());
  }
  // Never a pool worker: the calling thread keeps the -1 sentinel.
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);
}

// Regression (exception-loss bugfix): a throwing task used to escape the
// std::jthread (std::terminate), and because the unfinished_ decrement ran
// only after a successful task(), wait_idle() would have deadlocked on the
// lost count. The pool now contains the throw, keeps its bookkeeping via
// RAII, and surfaces the FIRST captured exception from wait_idle().
TEST(ThreadPoolTest, ThrowingTaskSurfacesFromWaitIdleWithoutDeadlock) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([&count, i] {
      if (i == 3) throw std::runtime_error("task 3 exploded");
      ++count;
    });
  }
  try {
    pool.wait_idle();
    FAIL() << "wait_idle did not rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 exploded");
  }
  // Every non-throwing task still ran (the throw cost no siblings).
  EXPECT_EQ(count.load(), 7);
  // The error was consumed: the pool stays usable and a clean cycle does
  // not rethrow stale state.
  pool.submit([&count] { ++count; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, OnlyFirstOfManyExceptionsSurfaces) {
  ThreadPool pool(1);  // single worker: deterministic task order
  for (int i = 0; i < 3; ++i) {
    pool.submit([i] { throw std::runtime_error("boom " + std::to_string(i)); });
  }
  try {
    pool.wait_idle();
    FAIL() << "wait_idle did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 0");
  }
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPoolTest, UnsurfacedTaskExceptionDoesNotFireOnDestruction) {
  // A throwing task whose error is never collected must not crash the
  // process at pool destruction (the destructor cannot throw).
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("dropped"); });
  // Destructor drains and joins; dropped error is discarded.
}

// -------------------------------------------------------------- SweepRunner

SweepRecord noisy_eval(const SweepPoint& p) {
  // Float-heavy so bitwise equality is a meaningful check.
  const double a = p.double_at("a");
  const double b = p.double_at("b");
  double acc = 0.0;
  for (int i = 1; i <= 64; ++i) acc += a / (b * i) + i * 1e-7;
  SweepRecord r;
  r.set("acc", acc).set("ratio", a / b);
  return r;
}

SweepSpec runner_spec() {
  return SweepSpec("runner")
      .axis("a", {1.0, 2.0, 3.0, 5.0, 7.0})
      .axis("b", {0.25, 0.5, 1.5, 2.75});
}

TEST(SweepRunnerTest, ParallelBitwiseIdenticalToSerial) {
  const SweepSpec spec = runner_spec();
  const SweepResult serial = SweepRunner(SweepOptions{1}).run(spec, noisy_eval);
  for (int threads : {2, ThreadPool::recommended_threads()}) {
    const SweepResult parallel =
        SweepRunner(SweepOptions{threads}).run(spec, noisy_eval);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      ASSERT_TRUE(parallel.points[i].ok);
      // Bitwise: the exact same double, not approximately equal.
      for (std::size_t m = 0; m < serial.points[i].record.metrics.size(); ++m) {
        EXPECT_EQ(parallel.points[i].record.metrics[m].second,
                  serial.points[i].record.metrics[m].second);
      }
    }
    // Wall-clock throughput legitimately differs between the two runs;
    // determinism covers the point payloads, so compare the artifacts with
    // the timing fields normalized.
    SweepResult normalized = parallel;
    normalized.elapsed_s = serial.elapsed_s;
    normalized.points_per_sec = serial.points_per_sec;
    EXPECT_EQ(normalized.to_csv(), serial.to_csv());
    EXPECT_EQ(normalized.to_json(), serial.to_json());
  }
}

// The DSE-throughput metric (docs/METRICS.md): every run reports how long
// the sweep took and the points/sec it sustained, and the JSON artifact
// carries both so bench_simspeed and CI dashboards can read them back.
TEST(SweepRunnerTest, ReportsElapsedAndPointsPerSec) {
  const SweepSpec spec = runner_spec();
  const SweepResult r = SweepRunner(SweepOptions{2}).run(spec, noisy_eval);
  EXPECT_GT(r.elapsed_s, 0.0);
  EXPECT_GT(r.points_per_sec, 0.0);
  EXPECT_NEAR(r.points_per_sec, spec.num_points() / r.elapsed_s,
              1e-9 * r.points_per_sec);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"elapsed_s\""), std::string::npos);
  EXPECT_NE(json.find("\"points_per_sec\""), std::string::npos);
  // CSV stays a pure per-point table: no timing columns.
  EXPECT_EQ(r.to_csv().find("elapsed_s"), std::string::npos);
}

TEST(SweepRunnerTest, PointOrderingDeterministicAcrossThreadCounts) {
  const SweepSpec spec = runner_spec();
  for (int threads : {1, 2, ThreadPool::recommended_threads()}) {
    const SweepResult r = SweepRunner(SweepOptions{threads}).run(spec, noisy_eval);
    ASSERT_EQ(static_cast<int>(r.points.size()), spec.num_points());
    for (int i = 0; i < spec.num_points(); ++i) {
      EXPECT_EQ(r.points[static_cast<std::size_t>(i)].point.index, i);
      EXPECT_EQ(r.points[static_cast<std::size_t>(i)].point.label(),
                spec.point(i).label());
    }
  }
}

TEST(SweepRunnerTest, ThrowingPointCapturedWithoutAbortingSweep) {
  const SweepSpec spec = SweepSpec("faulty").axis("i", {0, 1, 2, 3, 4, 5});
  for (int threads : {1, 4}) {
    const SweepResult r =
        SweepRunner(SweepOptions{threads}).run(spec, [](const SweepPoint& p) {
          if (p.int_at("i") == 3) {
            throw std::runtime_error("solver diverged");
          }
          SweepRecord rec;
          rec.set("value", static_cast<double>(p.int_at("i")) * 2.0);
          return rec;
        });
    ASSERT_EQ(r.points.size(), 6u);
    EXPECT_EQ(r.num_failed(), 1);
    EXPECT_FALSE(r.points[3].ok);
    EXPECT_EQ(r.points[3].error, "solver diverged");
    for (std::size_t i : {0u, 1u, 2u, 4u, 5u}) {
      EXPECT_TRUE(r.points[i].ok);
      EXPECT_DOUBLE_EQ(r.points[i].record.get("value"),
                       static_cast<double>(i) * 2.0);
    }
    // Artifacts carry the failure: empty metric cells + the error message.
    EXPECT_NE(r.to_csv().find("solver diverged"), std::string::npos);
    EXPECT_NE(r.to_json().find("\"ok\":false"), std::string::npos);
  }
}

TEST(SweepRunnerTest, MapReturnsTypedResultsByIndex) {
  const std::vector<int> squares =
      SweepRunner(SweepOptions{3}).map(20, [](int i) { return i * i; });
  ASSERT_EQ(squares.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(SweepRunnerTest, MapRethrowsLowestIndexError) {
  for (int threads : {1, 4}) {
    try {
      SweepRunner(SweepOptions{threads}).map(10, [](int i) {
        if (i == 2) throw std::runtime_error("err-2");
        if (i == 7) throw std::runtime_error("err-7");
        return i;
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "err-2");
    }
  }
}

TEST(SweepResultTest, SchemaDivergentRecordDegradesToEmptyCell) {
  // A metric present in the schema (first successful record) but absent from
  // a later record renders as an empty cell — the artifact is never lost.
  const SweepSpec spec = SweepSpec("diverge").axis("x", {1, 2});
  const SweepResult r =
      SweepRunner(SweepOptions{1}).run(spec, [](const SweepPoint& p) {
        SweepRecord rec;
        rec.set("always", 1.0);
        if (p.int_at("x") == 1) rec.set("extra", 9.0);
        return rec;
      });
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("0,1,1,9,"), std::string::npos);
  EXPECT_NE(csv.find("1,2,1,,"), std::string::npos);  // empty "extra" cell
}

TEST(SweepResultTest, CsvSchemaAndArtifactFiles) {
  const SweepSpec spec = SweepSpec("artifact").axis("x", {1, 2});
  const SweepResult r =
      SweepRunner(SweepOptions{1}).run(spec, [](const SweepPoint& p) {
        SweepRecord rec;
        rec.set("double_x", p.double_at("x") * 2.0);
        return rec;
      });
  const std::string csv = r.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "point,x,double_x,error");
  EXPECT_NE(csv.find("0,1,2,"), std::string::npos);

  const std::string base = ::testing::TempDir() + "sweep_artifact";
  ASSERT_TRUE(r.write_csv(base + ".csv"));
  ASSERT_TRUE(r.write_json(base + ".json"));
  std::FILE* f = std::fopen((base + ".json").c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_FALSE(r.write_csv("/nonexistent-dir/x.csv"));
}

// ------------------------------------------------ shared const schedule

// What one point reads off the shared schedule.
struct SharedRead {
  ScheduleMetrics metrics;
  double bound_s = 0.0;
  SimResult sim;
};

// Four workers read one const matched schedule at once, through the
// evaluator, the bounds analyzer and a per-slot SimEngine. Shard costs are
// stored when a shard is placed, never filled in lazily behind a const
// accessor: the parallel reads come first, on a copy of the placements no
// consumer has read yet, and each must equal the serial read after them
// bit for bit (and the TSan job sees no race).
TEST(SweepRunnerTest, SharedConstScheduleReadsMatchSerial) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package(6, 6);
  const MatchResult matched = throughput_matching(pipe, pkg);
  Schedule fresh(pipe, pkg);
  for (int i = 0; i < fresh.num_items(); ++i) {
    fresh.restore_placement(i, matched.schedule.placement(i).shards);
  }
  const Schedule& sched = fresh;

  constexpr int kPoints = 12;
  const auto read_all = [&](int threads) {
    const SweepRunner runner(SweepOptions{threads});
    std::vector<SimEngine> engines(
        static_cast<std::size_t>(runner.worker_slots()));
    return runner.map(kPoints, [&](int i) {
      SimOptions opt;
      opt.frames = 1 + i % 3;
      opt.nop_mode = i % 2 == 0 ? NopMode::kAnalytical : NopMode::kContended;
      SharedRead r;
      r.metrics = evaluate_schedule(sched);
      r.bound_s = analysis::compute_bounds(sched, opt).streams.at(0)
                      .latency_bound_s;
      const auto slot =
          static_cast<std::size_t>(ThreadPool::current_worker_index() + 1);
      engines[slot].run_into(sched, opt, r.sim);
      return r;
    });
  };
  const std::vector<SharedRead> parallel = read_all(4);
  const std::vector<SharedRead> serial = read_all(1);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const ScheduleMetrics& a = serial[i].metrics;
    const ScheduleMetrics& b = parallel[i].metrics;
    testutil::expect_bits_eq(a.e2e_s, b.e2e_s, "e2e");
    testutil::expect_bits_eq(a.pipe_s, b.pipe_s, "pipe");
    testutil::expect_bits_eq(a.energy_j(), b.energy_j(), "energy");
    testutil::expect_bits_eq(a.total_macs, b.total_macs, "macs");
    testutil::expect_bits_eq(a.utilization, b.utilization, "utilization");
    ASSERT_EQ(a.chiplets.size(), b.chiplets.size());
    for (std::size_t c = 0; c < a.chiplets.size(); ++c) {
      testutil::expect_bits_eq(a.chiplets[c].busy_s, b.chiplets[c].busy_s,
                               "chiplet busy");
    }
    testutil::expect_bits_eq(serial[i].bound_s, parallel[i].bound_s, "bound");
    testutil::expect_sim_results_bits_eq(serial[i].sim, parallel[i].sim);
  }
}

}  // namespace
}  // namespace cnpu
