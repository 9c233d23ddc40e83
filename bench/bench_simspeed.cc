// Simulation-engine throughput: the points/sec a DSE sweep sustains, and
// the speedup the warm-startable engine buys over per-point fresh
// construction.
//
// The arena-backed SimEngine exists so million-point design-space sweeps
// are routine: the design is built once, compiled programs and routes are
// cached, and every per-run buffer is reset instead of reallocated. This
// bench measures that claim and FAILS (exit 1) when it stops holding.
//
//  1. DSE grid — a frames x interval x NoP-mode option grid at the
//     paper's Fig. 5-8 operating point, evaluated three ways:
//       stateless  - the pre-engine sweep idiom (cf. bench_fig5to8's
//                    acceptance grid): each point is a stateless function
//                    that reconstructs its design from scratch — pipeline,
//                    package, throughput-matched placement — then runs the
//                    one-shot simulator. For a simulation-axis grid every
//                    bit of that construction is redundant re-work.
//       one-shot   - the placement hoisted out of the loop (built once),
//                    but each point still pays simulate_schedule's fresh
//                    program build + per-run allocations.
//       warm       - the hoisted placement through one reused SimEngine.
//     The warm path's CPU time per event, over a fixed calibration loop's
//     time per heap operation, must stay at or below kWarmCostCeiling
//     (docs/METRICS.md): a guard on the warm engine that no other layer's
//     speed can move. The warm-vs-stateless and warm-vs-one-shot ratios
//     are reported alongside so the artifact separates design-construction
//     churn from program/arena churn. The same grid then runs through
//     SweepRunner with one engine per worker slot — the parallel
//     points/sec a real sweep sees.
//  2. Serving probes — a max_sustainable_load-style ladder of injection
//     rates through one warm ServingPlan vs a fresh plan per probe
//     (placement + programs rebuilt every rate: the pre-engine probe
//     loop). Probe runs are event-loop-dominated, so the honest floor is
//     modest (kServingSpeedupFloor); the sharp check is bitwise identity
//     of every warm probe against a fresh plan.
//
// Both sections also report the warm path's event-loop load, read from
// EngineStats: events per run, events per executed task, warm host time per
// event, and the engine's event-heap high-water mark.
//
// Artifacts: bench_simspeed.csv / bench_simspeed.json (points, elapsed,
// points/sec, speedups and event-loop load per section; the JSON is
// uploaded by the Release and ASan CI jobs). --smoke runs reduced grids
// for CTest.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "util/csv.h"
#include "util/json.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

// Warm-engine guard (docs/METRICS.md): the warm grid's CPU time per event
// over the calibration loop's CPU time per heap operation, the median of
// kGuardSamples back-to-back pairs, must stay at or below this.
// Instrumentation taxes the engine's memory accesses far more than the
// calibration loop's, so sanitizer builds have their own ceiling, set
// from the ratio's distribution under them.
#if defined(__SANITIZE_ADDRESS__)
constexpr double kWarmCostCeiling = 4.4;  // ASan+UBSan
#elif defined(__SANITIZE_THREAD__)
constexpr double kWarmCostCeiling = 8.1;  // TSan
#else
constexpr double kWarmCostCeiling = 2.1;
#endif
constexpr int kGuardSamples = 31;
// Serving probes simulate 4 tenants x many frames per probe, so the
// event loop (identical in both paths) dominates; plan reuse must still
// be a measurable win, never a regression.
constexpr double kServingSpeedupFloor = 1.1;

struct Timing {
  long long points = 0;
  double elapsed_s = 0.0;
  double pps() const { return elapsed_s > 0.0 ? points / elapsed_s : 0.0; }
};

// Runs `pass` (one full sweep over `points_per_pass` points) repeatedly
// until the measurement is long enough to trust, and returns the timing.
template <typename Fn>
Timing measure(int points_per_pass, double min_elapsed_s, Fn&& pass) {
  using clock = std::chrono::steady_clock;
  Timing t;
  const auto t0 = clock::now();
  do {
    pass();
    t.points += points_per_pass;
    t.elapsed_s = std::chrono::duration<double>(clock::now() - t0).count();
  } while (t.elapsed_s < min_elapsed_s);
  return t;
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// The calibration loop the warm-engine guard divides by: a hold-model
// priority queue (pop the least timestamp, push a later one) on a
// 32-entry binary heap, each new timestamp read from a 128 KiB table —
// the operation mix and cache footprint of the event loop without any
// simulator code, so host speed and load cancel out of the ratio.
// Returns CPU ns per pop+push pair.
double calibration_ns_per_op() {
  constexpr int kOps = 40000;
  static std::vector<double> table(1u << 14, 1e-3);
  std::vector<double> heap(32);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (double& t : heap) t = next();
  std::make_heap(heap.begin(), heap.end(), std::greater<double>());
  const double t0 = thread_cpu_ns();
  for (int i = 0; i < kOps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<double>());
    heap.back() += next() + table[x & (table.size() - 1)];
    std::push_heap(heap.begin(), heap.end(), std::greater<double>());
  }
  const double ns = thread_cpu_ns() - t0;
  benchmark::DoNotOptimize(heap.front());
  return ns / kOps;
}

// The warm path's event-loop work over its timed passes: EngineStats
// deltas plus the tasks the runs executed, and the largest event heap the
// engine has held (a high-water mark, not a delta).
struct EventLoad {
  long long runs = 0;
  long long events = 0;
  long long tasks = 0;
  long long heap_high_water = 0;

  static EventLoad between(const EngineStats& before, const EngineStats& after,
                           long long tasks) {
    return {after.runs - before.runs,
            after.events_processed - before.events_processed, tasks,
            after.event_heap_high_water};
  }
  double per_run() const {
    return runs > 0 ? static_cast<double>(events) / runs : 0.0;
  }
  double per_task() const {
    return tasks > 0 ? static_cast<double>(events) / tasks : 0.0;
  }
  double ns_per_event(const Timing& t) const {
    return events > 0 ? t.elapsed_s * 1e9 / static_cast<double>(events) : 0.0;
  }
};

struct SectionResult {
  std::string name;
  Timing stateless;           // per-point fresh construction
  Timing oneshot;             // hoisted design, one-shot simulator (grid only)
  Timing warm;                // hoisted design, reused engine
  EventLoad warm_load;        // event-loop work of the warm passes
  double parallel_pps = 0.0;  // SweepRunner path; 0 when not measured
  // Warm CPU ns per event over calibration ns per heap op; 0 when not
  // measured.
  double warm_cost = 0.0;
  double speedup() const {
    return stateless.pps() > 0.0 ? warm.pps() / stateless.pps() : 0.0;
  }
  double speedup_vs_oneshot() const {
    return oneshot.pps() > 0.0 ? warm.pps() / oneshot.pps() : 0.0;
  }
  double ns_per_event() const { return warm_load.ns_per_event(warm); }
};

void print_event_load(const SectionResult& s) {
  std::printf("  event loop (warm): %.1f events/run, %.3f events/task, "
              "%.1f ns/event, event heap high water %lld\n",
              s.warm_load.per_run(), s.warm_load.per_task(), s.ns_per_event(),
              s.warm_load.heap_high_water);
}

// ---------------------------------------------------------------------------
// Section 1: the DSE option grid.

// Short streams over the throughput-matched Fig. 5-8 placement: the shape
// a wide simulation-axis sweep actually has. frames=1 is the end-to-end
// frame-latency measurement the paper's figures report per design point;
// frames=2 adds the pipelined steady-state rate.
std::vector<SimOptions> make_grid(bool smoke) {
  const std::vector<int> frames = {1, 2};
  const std::vector<double> intervals =
      smoke ? std::vector<double>{0.0} : std::vector<double>{0.0, 2e-3};
  const std::vector<double> deadlines =
      smoke ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.25};
  std::vector<SimOptions> grid;
  for (const NopMode mode : {NopMode::kAnalytical, NopMode::kContended}) {
    for (const int f : frames) {
      for (const double interval : intervals) {
        for (const double deadline : deadlines) {
          SimOptions opt;
          opt.frames = f;
          opt.frame_interval_s = interval;
          opt.deadline_s = deadline;
          opt.nop_mode = mode;
          grid.push_back(opt);
        }
      }
    }
  }
  return grid;
}

SectionResult run_grid_section(bool smoke) {
  const std::vector<SimOptions> grid = make_grid(smoke);
  const int n = static_cast<int>(grid.size());
  const double min_s = smoke ? 0.2 : 1.0;

  SectionResult sec;
  sec.name = "dse_grid";

  // Stateless: the bench_fig5to8 sweep-point idiom — reconstruct the whole
  // design (pipeline, package, matched placement) inside the point.
  sec.stateless = measure(n, min_s, [&] {
    for (const SimOptions& opt : grid) {
      const PerceptionPipeline pipe = build_autopilot_pipeline();
      const PackageConfig pkg = make_simba_package();
      const MatchResult m = throughput_matching(pipe, pkg);
      const SimResult r = simulate_schedule(m.schedule, opt);
      benchmark::DoNotOptimize(r.makespan_s);
    }
  });

  // Hoisted design, shared by the one-shot and warm paths.
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  const MatchResult matched = throughput_matching(pipe, pkg);
  const Schedule& sched = matched.schedule;

  sec.oneshot = measure(n, min_s, [&] {
    for (const SimOptions& opt : grid) {
      const SimResult r = simulate_schedule(sched, opt);
      benchmark::DoNotOptimize(r.makespan_s);
    }
  });

  SimEngine engine;
  SimResult out;
  long long tasks = 0;
  sec.warm = measure(n, min_s, [&] {
    for (const SimOptions& opt : grid) {
      engine.run_into(sched, opt, out);
      tasks += out.tasks_executed;
      benchmark::DoNotOptimize(out.makespan_s);
    }
  });
  const EngineStats stats = engine.stats();
  sec.warm_load = EventLoad::between(EngineStats{}, stats, tasks);

  // The warm-engine guard: each sample is one calibration run and one
  // warm pass over the grid back to back, so both see the same load.
  std::vector<double> costs;
  for (int sample = 0; sample < kGuardSamples; ++sample) {
    const double op_ns = calibration_ns_per_op();
    const long long events0 = engine.stats().events_processed;
    const double t0 = thread_cpu_ns();
    for (int pass = 0; pass < 4; ++pass) {
      for (const SimOptions& opt : grid) engine.run_into(sched, opt, out);
    }
    const auto events =
        static_cast<double>(engine.stats().events_processed - events0);
    costs.push_back((thread_cpu_ns() - t0) / events / op_ns);
  }
  std::nth_element(costs.begin(), costs.begin() + kGuardSamples / 2,
                   costs.end());
  sec.warm_cost = costs[kGuardSamples / 2];

  // The parallel path a real sweep uses: one engine per worker slot,
  // points/sec read straight off the sweep artifact fields.
  const SweepRunner runner;
  std::vector<SimEngine> engines(
      static_cast<std::size_t>(runner.worker_slots()));
  std::vector<SimResult> outs(engines.size());
  SweepSpec spec("simspeed_grid");
  std::vector<ParamValue> idx;
  for (int i = 0; i < n; ++i) idx.push_back(i);
  spec.axis("opt", std::move(idx));
  const SweepResult sweep = runner.run(spec, [&](const SweepPoint& p) {
    const std::size_t slot =
        static_cast<std::size_t>(ThreadPool::current_worker_index() + 1);
    const SimOptions& opt = grid[static_cast<std::size_t>(p.int_at("opt"))];
    engines[slot].run_into(sched, opt, outs[slot]);
    SweepRecord rec;
    rec.set("makespan_s", outs[slot].makespan_s);
    return rec;
  });
  bench::require_all_ok(sweep);
  sec.parallel_pps = sweep.points_per_sec;

  std::printf("DSE grid: %d simulation-option points at the matched Fig. "
              "5-8 operating point\n",
              n);
  std::printf("  stateless point (rebuild design): %9.1f points/sec "
              "(%lld points, %.2f s)\n",
              sec.stateless.pps(), sec.stateless.points,
              sec.stateless.elapsed_s);
  std::printf("  hoisted design, one-shot sim    : %9.1f points/sec "
              "(%lld points, %.2f s)\n",
              sec.oneshot.pps(), sec.oneshot.points, sec.oneshot.elapsed_s);
  std::printf("  hoisted design, warm engine     : %9.1f points/sec "
              "(%lld points, %.2f s)\n",
              sec.warm.pps(), sec.warm.points, sec.warm.elapsed_s);
  std::printf("  speedup: %.1fx vs stateless, %.1fx vs one-shot\n",
              sec.speedup(), sec.speedup_vs_oneshot());
  print_event_load(sec);
  std::printf("  parallel: %9.1f points/sec (SweepRunner, %d worker "
              "slots)\n",
              sec.parallel_pps, runner.worker_slots());
  std::printf("  engine ledger: %lld runs, %lld program builds, %lld cache "
              "hits, %lld warm starts\n\n",
              stats.runs, stats.program_builds, stats.program_cache_hits,
              stats.warm_starts);
  return sec;
}

// ---------------------------------------------------------------------------
// Section 2: the serving-probe ladder.

bool tenants_equal(const SimResult& a, const SimResult& b) {
  if (a.tenants.size() != b.tenants.size()) return false;
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    // Completion vectors are NaN-free here (no fault), so == is bitwise.
    if (!(a.tenants[t].frame_completion_s ==
          b.tenants[t].frame_completion_s)) {
      return false;
    }
    if (a.tenants[t].p99_latency_s != b.tenants[t].p99_latency_s) {
      return false;
    }
  }
  return true;
}

SectionResult run_serving_section(bool smoke) {
  const PackageConfig pkg = make_simba_package(4, 4);
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  std::vector<TenantWorkload> fleet(4);
  for (std::size_t t = 0; t < fleet.size(); ++t) {
    fleet[t].name = "tenant" + std::to_string(t);
    fleet[t].pipeline = &pipe;
    fleet[t].frames = smoke ? 8 : 16;
    fleet[t].deadline_s = 1.0;
  }
  ServingOptions opt;
  opt.policy = PlacementPolicy::kShared;

  // A bisection-style probe ladder: rates spanning under- to overload.
  std::vector<double> rates;
  const int n_rates = smoke ? 6 : 12;
  for (int i = 0; i < n_rates; ++i) {
    rates.push_back(20.0 * (i + 1));
  }
  const double min_s = smoke ? 0.2 : 1.0;

  SectionResult sec;
  sec.name = "serving_probes";
  sec.stateless = measure(n_rates, min_s, [&] {
    for (const double fps : rates) {
      ServingPlan fresh(pkg, fleet, opt);  // pre-engine behavior: rebuild
      const SimResult r = fresh.run_at_rate(fps);
      benchmark::DoNotOptimize(r.makespan_s);
    }
  });

  ServingPlan plan(pkg, fleet, opt);
  SimResult out;
  const EngineStats before = plan.engine_stats();
  long long tasks = 0;
  sec.warm = measure(n_rates, min_s, [&] {
    for (const double fps : rates) {
      plan.run_at_rate_into(fps, out);
      tasks += out.tasks_executed;
      benchmark::DoNotOptimize(out.makespan_s);
    }
  });
  sec.warm_load = EventLoad::between(before, plan.engine_stats(), tasks);

  // Identity: the warm plan's probes must match fresh plans bit for bit.
  int mismatches = 0;
  for (const double fps : rates) {
    ServingPlan fresh(pkg, fleet, opt);
    plan.run_at_rate_into(fps, out);
    if (!tenants_equal(fresh.run_at_rate(fps), out)) ++mismatches;
  }

  std::printf("serving probes: %d injection rates x 4 tenants on the 4x4 "
              "package\n",
              n_rates);
  std::printf("  fresh plan per probe: %9.1f probes/sec (%lld probes, "
              "%.2f s)\n",
              sec.stateless.pps(), sec.stateless.points,
              sec.stateless.elapsed_s);
  std::printf("  one warm plan       : %9.1f probes/sec (%lld probes, "
              "%.2f s) -> %.2fx (floor %.1fx)\n",
              sec.warm.pps(), sec.warm.points, sec.warm.elapsed_s,
              sec.speedup(), kServingSpeedupFloor);
  print_event_load(sec);
  std::printf("  warm bitwise == fresh at every rate: %s\n\n",
              mismatches == 0 ? "yes" : "NO - BUG");
  if (mismatches != 0) {
    std::fprintf(stderr, "bench_simspeed: warm ServingPlan diverged from "
                         "fresh plans at %d rates\n",
                 mismatches);
    std::exit(1);
  }
  return sec;
}

// ---------------------------------------------------------------------------
// Artifacts + floor enforcement.

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_artifacts(const std::vector<SectionResult>& sections, bool pass) {
  CsvWriter csv;
  csv.set_header({"section", "stateless_points_per_sec",
                  "oneshot_points_per_sec", "warm_points_per_sec",
                  "speedup_vs_stateless", "speedup_vs_oneshot",
                  "parallel_points_per_sec", "events_per_run",
                  "event_heap_high_water", "events_per_task", "ns_per_event",
                  "warm_cost"});
  for (const SectionResult& s : sections) {
    csv.add_row({s.name, fmt(s.stateless.pps()), fmt(s.oneshot.pps()),
                 fmt(s.warm.pps()), fmt(s.speedup()),
                 fmt(s.speedup_vs_oneshot()), fmt(s.parallel_pps),
                 fmt(s.warm_load.per_run()),
                 std::to_string(s.warm_load.heap_high_water),
                 fmt(s.warm_load.per_task()), fmt(s.ns_per_event()),
                 fmt(s.warm_cost)});
  }
  const bool csv_ok = csv.write_file(bench::artifact_path("bench_simspeed.csv"));

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("simspeed");
  w.key("pass").value(pass);
  w.key("warm_cost_ceiling").value(kWarmCostCeiling);
  w.key("serving_speedup_floor").value(kServingSpeedupFloor);
  w.key("sections").begin_array();
  for (const SectionResult& s : sections) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("stateless_points_per_sec").value(s.stateless.pps());
    w.key("oneshot_points_per_sec").value(s.oneshot.pps());
    w.key("warm_points_per_sec").value(s.warm.pps());
    w.key("speedup_vs_stateless").value(s.speedup());
    w.key("speedup_vs_oneshot").value(s.speedup_vs_oneshot());
    w.key("parallel_points_per_sec").value(s.parallel_pps);
    w.key("events_per_run").value(s.warm_load.per_run());
    w.key("event_heap_high_water")
        .value(static_cast<int>(s.warm_load.heap_high_water));
    w.key("events_per_task").value(s.warm_load.per_task());
    w.key("ns_per_event").value(s.ns_per_event());
    w.key("warm_cost").value(s.warm_cost);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream json(bench::artifact_path("bench_simspeed.json"));
  bool json_ok = static_cast<bool>(json);
  if (json_ok) {
    json << w.str() << '\n';
    json_ok = static_cast<bool>(json);
  }

  std::printf("artifacts: bench_simspeed.csv (%s), bench_simspeed.json "
              "(%s)\n\n",
              csv_ok ? "ok" : "WRITE FAILED", json_ok ? "ok" : "WRITE FAILED");
  if (!csv_ok || !json_ok) std::exit(1);
}

void print_tables(bool smoke) {
  bench::print_header(
      "Simulation-engine throughput - DSE points/sec and engine-reuse "
      "speedup",
      "engine acceptance: warm cost per event against a calibration loop, "
      "warm probes >= 1.1x fresh (docs/METRICS.md)");
  std::vector<SectionResult> sections;
  sections.push_back(run_grid_section(smoke));
  sections.push_back(run_serving_section(smoke));

  const SectionResult& grid = sections.front();
  const bool grid_pass = grid.warm_cost <= kWarmCostCeiling;
  std::printf("%s: warm cost %.3f calibration ops/event (ceiling %.2f) - "
              "%s\n",
              grid.name.c_str(), grid.warm_cost, kWarmCostCeiling,
              grid_pass ? "pass" : "FAIL");
  const SectionResult& serving = sections.back();
  const bool serving_pass = serving.speedup() >= kServingSpeedupFloor;
  std::printf("%s: %.2fx speedup over per-point fresh construction "
              "(floor %.1fx) - %s\n",
              serving.name.c_str(), serving.speedup(), kServingSpeedupFloor,
              serving_pass ? "pass" : "FAIL");
  std::printf("\n");
  const bool pass = grid_pass && serving_pass;
  write_artifacts(sections, pass);
  if (!pass) {
    std::fprintf(stderr, "bench_simspeed: the warm engine crossed its "
                         "gate\n");
    std::exit(1);
  }
}

// Microbench pair: the same grid point one-shot vs through a warm engine.
void BM_OneShotSimulate(benchmark::State& state) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  const Schedule sched = build_chainwise_schedule(pipe, pkg);
  SimOptions opt;
  opt.frames = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_schedule(sched, opt));
  }
}
BENCHMARK(BM_OneShotSimulate)->Unit(benchmark::kMillisecond)->Iterations(20);

void BM_WarmEngineRun(benchmark::State& state) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  const Schedule sched = build_chainwise_schedule(pipe, pkg);
  SimOptions opt;
  opt.frames = 4;
  SimEngine engine;
  SimResult out;
  engine.run_into(sched, opt, out);
  for (auto _ : state) {
    engine.run_into(sched, opt, out);
    benchmark::DoNotOptimize(out.makespan_s);
  }
}
BENCHMARK(BM_WarmEngineRun)->Unit(benchmark::kMillisecond)->Iterations(20);

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      // CI path (a CTest integration test): reduced grids, no timings.
      cnpu::print_tables(true);
      return 0;
    }
  }
  return cnpu::bench::run(argc, argv,
                          +[] { cnpu::print_tables(false); });
}
