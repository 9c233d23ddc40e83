// cnpubench: the cnpu benchmark driver.
//
//   cnpubench --workload <dse_cold|sim_warm|serving_openloop> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Sets the workload up several times (setup_s is the median), then runs it
// as a closed loop of one client for --seconds: the next point starts when
// the previous one has finished. --trace 0 prints the end-to-end metrics;
// --trace 1 runs half the time untraced and half traced, and prints the
// per-layer metrics from the traced half. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is non-zero when any correctness check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "exp/sweep_runner.h"
#include "util/json.h"

namespace cnpu::bench {
namespace {

// A seed no performance change may be tuned on; claims must also hold on
// it (see README.md).
constexpr std::uint64_t kHeldOutSeed = 20251017;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out = "cnpubench-trace.json";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cnpubench: %s\nusage: cnpubench --workload "
               "<dse_cold|sim_warm|serving_openloop> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty() || !have_seed || !have_trace || !(a.seconds > 0.0)) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return a;
}

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
  int threads;  // threads its points keep busy; the host speed uses as many
};

constexpr WorkloadDef kWorkloads[] = {
    {"dse_cold", make_dse_cold, 1},
    {"sim_warm", make_sim_warm, kThreads},
    {"serving_openloop", make_serving_openloop, kThreads},
};

const WorkloadDef& find_workload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return def;
  }
  usage("unknown workload " + name);
}

// Host-time measurements of one loop. Raw values are host time; scaled
// ones are multiplied by the host speed measured around each segment, so
// they are in reference seconds (see measure_host_speed): wall time by the
// wall-clock speed, per-point CPU time by the CPU speed.
struct LoopResult {
  long points = 0;
  long failed = 0;
  double wall_s = 0.0;
  double scaled_wall_s = 0.0;
  std::vector<double> scaled_point_ns;
  double mean_speed() const { return scaled_wall_s / wall_s; }
};

// Segments between host-speed measurements.
constexpr double kSegmentS = 0.1;

// Runs batches of points until `seconds` of host time have passed. The
// host speed is measured before the first segment and after every
// segment; a segment is scaled by the mean of the two measurements around
// it. The measurements themselves are not part of any timing.
LoopResult run_loop(Workload& w, int threads, double seconds,
                    TraceSet* trace, long& next_point) {
  LoopResult r;
  std::vector<double> batch_ns(static_cast<std::size_t>(w.batch()));
  std::vector<double> segment_ns;
  HostSpeed before = measure_host_speed(threads);
  while (r.wall_s < seconds) {
    segment_ns.clear();
    const std::int64_t start = now_ns();
    std::int64_t elapsed = 0;
    while (elapsed < static_cast<std::int64_t>(kSegmentS * 1e9) &&
           r.wall_s + static_cast<double>(elapsed) * 1e-9 < seconds) {
      r.failed += w.run_points(next_point, w.batch(), trace, batch_ns);
      next_point += w.batch();
      r.points += w.batch();
      segment_ns.insert(segment_ns.end(), batch_ns.begin(), batch_ns.end());
      elapsed = now_ns() - start;
    }
    const HostSpeed after = measure_host_speed(threads);
    const double wall_speed = 0.5 * (before.wall + after.wall);
    const double cpu_speed = 0.5 * (before.cpu + after.cpu);
    before = after;
    r.wall_s += static_cast<double>(elapsed) * 1e-9;
    r.scaled_wall_s += static_cast<double>(elapsed) * 1e-9 * wall_speed;
    for (const double ns : segment_ns) {
      r.scaled_point_ns.push_back(ns * cpu_speed);
    }
  }
  return r;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// exp.point_overhead_us: SweepRunner at kThreads threads on a no-op point
// function, in rounds of four points (the load search's round size).
double sweep_point_overhead_us() {
  constexpr int kRounds = 200;
  const SweepRunner runner(SweepOptions{.threads = kThreads});
  const SweepSpec spec = SweepSpec("noop").axis("i", {0, 1, 2, 3});
  std::vector<double> per_point_us;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < kRounds; ++r) {
      (void)runner.run(spec, [](const SweepPoint&) { return SweepRecord{}; });
    }
    per_point_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                           (4.0 * kRounds));
  }
  return percentile(per_point_us, 0.5);
}

void print_result(bool correct, long attempted, long failed,
                  const Metrics& metrics) {
  JsonWriter w;
  w.begin_object()
      .key("correct").value(correct)
      .key("attempted").value(static_cast<int>(attempted))
      .key("failed").value(static_cast<int>(failed))
      .key("metrics").begin_object();
  for (const Metric& m : metrics.items) {
    w.key(m.name)
        .begin_object()
        .key("value").value_precise(m.value)
        .key("unit").value(m.unit)
        .end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
}

void print_metrics(const Metrics& metrics) {
  for (const Metric& m : metrics.items) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The per-layer metrics of a traced run, from the span summary, the
// workload's modelled tallies and its workload-specific metrics.
// Span times are scaled by the traced loop's mean host speed.
Metrics layer_metrics(const TraceSummary& s, const Workload& w, double speed,
                      double untraced_point_ns, double traced_point_ns,
                      double point_overhead_us, double parallel_eff) {
  Metrics m;
  const auto us = [&](const char* name) {
    return s.self_per_call_ns(name) * 1e-3 * speed;
  };
  const auto per_count = [&](const char* name) {
    const LayerTotals t = s.get(name);
    return t.count > 0.0 ? t.total_ns / t.count * speed : 0.0;
  };
  m.add("workloads.build_us", us("workloads.build"), "us");
  m.add("arch.package_us", us("arch.package"), "us");
  m.add("dataflow.analyze_layer_ns", per_count("dataflow.analyze_layer"), "ns");
  m.add("core.match_ms", us("core.match") * 1e-3, "ms");
  const LayerTotals match = s.get("core.match");
  m.add("core.match_steps",
        match.calls > 0 ? match.count / static_cast<double>(match.calls) : 0.0,
        "count");
  m.add("core.baseline_us", us("core.baseline"), "us");
  m.add("core.eval_us", us("core.eval"), "us");
  m.add("analysis.validate_us", us("analysis.validate"), "us");
  m.add("analysis.bounds_us", us("analysis.bounds"), "us");
  m.add("analysis.bounds_fleet_us", us("analysis.bounds_fleet"), "us");

  const double cold_us = us("sim.cold_run");
  const double warm_us = us("sim.warm_run");
  m.add("sim.cold_run_us", cold_us, "us");
  m.add("sim.warm_run_us", warm_us, "us");
  m.add("sim.compile_us", cold_us > 0.0 && warm_us > 0.0 ? cold_us - warm_us : 0.0,
        "us");
  // Host time per simulated task over every warm run.
  double run_ns = 0.0;
  double tasks = 0.0;
  double runs = 0.0;
  for (const char* name : {"sim.warm_run", "sim.analytical", "sim.contended",
                           "sim.fault", "serving.probe"}) {
    const LayerTotals t = s.get(name);
    run_ns += t.total_ns;
    tasks += t.count;
    runs += static_cast<double>(t.calls);
  }
  m.add("sim.ns_per_task", tasks > 0.0 ? run_ns / tasks * speed : 0.0, "ns");
  m.add("sim.tasks_per_run", runs > 0.0 ? tasks / runs : 0.0, "count");
  m.add("sim.analytical_us", us("sim.analytical"), "us");
  m.add("sim.contended_us", us("sim.contended"), "us");
  m.add("sim.fault_run_us", us("sim.fault"), "us");

  const LayerTally tally = w.tally();
  m.add("sim.allocs_per_run",
        tally.warm_runs > 0.0 ? tally.warm_run_allocs / tally.warm_runs : 0.0,
        "count");
  m.add("nop.max_link_util",
        tally.contended_runs > 0.0 ? tally.max_link_util / tally.contended_runs
                                   : 0.0,
        "ratio");
  m.add("nop.queue_wait_ms",
        tally.contended_runs > 0.0
            ? tally.queue_wait_s / tally.contended_runs * 1e3
            : 0.0,
        "ms");
  m.add("chiplet.busy_util",
        tally.busy_runs > 0.0 ? tally.busy_util / tally.busy_runs : 0.0,
        "ratio");

  m.add("arrivals.gen_us", us("arrivals.gen"), "us");
  m.add("serving.plan_ms", us("serving.plan") * 1e-3, "ms");
  m.add("serving.search_ms", us("serving.search") * 1e-3, "ms");
  m.add("serving.probe_us", us("serving.probe"), "us");
  const LayerTotals search = s.get("serving.search");
  m.add("serving.probes_per_search",
        search.calls > 0 ? search.count / static_cast<double>(search.calls)
                         : 0.0,
        "count");
  const LayerExtras x = w.layer_extras();
  m.add("core.e2e_gap_us", x.e2e_gap_us, "us");
  m.add("serving.shed_frac", x.shed_frac, "ratio");
  m.add("serving.queue_delay_ms", x.queue_delay_ms, "ms");
  m.add("serving.nop_wait_ms", x.nop_wait_ms, "ms");

  m.add("exp.point_overhead_us", point_overhead_us * speed, "us");
  m.add("exp.parallel_eff", parallel_eff, "ratio");
  m.add("trace_overhead_pct",
        untraced_point_ns > 0.0
            ? (traced_point_ns / untraced_point_ns - 1.0) * 100.0
            : 0.0,
        "%");
  return m;
}

void print_layer_table(const TraceSummary& s) {
  std::printf("per-layer self time, raw host time, over %ld traced points "
              "(%.3f ms/point):\n",
              s.points, s.points > 0 ? s.point_ns / static_cast<double>(s.points) * 1e-6 : 0.0);
  std::printf("  %-26s %10s %14s %14s %8s\n", "span", "calls", "self ms",
              "self us/call", "share");
  for (const auto& [name, t] : s.layers) {
    std::printf("  %-26s %10ld %14.3f %14.3f %7.2f%%\n", name.c_str(), t.calls,
                t.self_ns * 1e-6,
                t.calls > 0 ? t.self_ns / static_cast<double>(t.calls) * 1e-3 : 0.0,
                s.point_ns > 0.0 ? 100.0 * t.self_ns / s.point_ns : 0.0);
  }
}

int run(const Args& args) {
  std::printf("cnpubench workload=%s seed=%llu seconds=%g trace=%d threads=%d "
              "held_out_seed=%llu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kThreads,
              static_cast<unsigned long long>(kHeldOutSeed));

  // Set-up, kSetupReps times: the host CPU time of each (all threads),
  // scaled by the single-thread CPU speed (set-up runs on one thread but
  // for the serving warm-up searches).
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  std::unique_ptr<Workload> w;
  const WorkloadDef& def = find_workload(args.workload);
  double speed_before = measure_host_speed(1).cpu;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const std::int64_t cpu0 = process_cpu_ns();
    w = def.make(args.seed);
    const double raw = static_cast<double>(process_cpu_ns() - cpu0) * 1e-9;
    const double speed_after = measure_host_speed(1).cpu;
    raw_setup_s.push_back(raw);
    setup_s.push_back(raw * 0.5 * (speed_before + speed_after));
    speed_before = speed_after;
  }
  const ModelCard& card = w->card();
  std::printf("model: canonical 6x6 design %.4f fps, PE utilization %.4f; "
              "Table II latency error %.2f%%; 36x256 / 1x9216 utilization "
              "%.1fx modelled vs 2.8x in the paper\n",
              card.fps, card.pe_util, card.table2_err_pct, card.util_ratio);

  long next_point = 0;
  if (!args.trace) {
    LoopResult loop = run_loop(*w, def.threads, args.seconds, nullptr, next_point);
    const double tasks = w->tally().tasks;  // before finish() runs more
    const long failed = loop.failed + w->finish(nullptr);
    std::vector<double>& ns = loop.scaled_point_ns;
    std::sort(ns.begin(), ns.end());
    const auto beyond_p99 = static_cast<long>(
        ns.size() - static_cast<std::size_t>(
                        std::ceil(0.99 * static_cast<double>(ns.size()))));
    Metrics m;
    m.add("setup_s", percentile(setup_s, 0.5), "s");
    m.add("points_per_s", static_cast<double>(loop.points) / loop.scaled_wall_s,
          "1/s");
    m.add("point_ms_p50", percentile(ns, 0.50) * 1e-6, "ms");
    m.add("point_ms_p99", percentile(ns, 0.99) * 1e-6, "ms");
    m.add("sim_tasks_per_s", tasks / loop.scaled_wall_s, "1/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("model.fps", card.fps, "fps");
    m.add("model.pe_util", card.pe_util, "ratio");
    m.add("model.table2_err_pct", card.table2_err_pct, "%");
    m.add("model.p99_ms", w->model_p99_ms(), "ms");
    m.add("model.max_fps", w->model_max_fps(), "fps");
    std::printf("points=%ld failed=%ld failed_frac=%.6g samples_beyond_p99=%ld "
                "setup_reps=%d\n",
                loop.points, failed,
                static_cast<double>(failed) / static_cast<double>(loop.points),
                beyond_p99, kSetupReps);
    std::printf("host: %.3f s of points at mean speed %.4f x reference; raw "
                "host-time values: points_per_s %.6g, sim_tasks_per_s %.6g, "
                "setup_s %.6g\n",
                loop.wall_s, loop.mean_speed(),
                static_cast<double>(loop.points) / loop.wall_s,
                tasks / loop.wall_s, percentile(raw_setup_s, 0.5));
    std::printf("point_ms:");
    for (const double p : {0.10, 0.50, 0.90, 0.95, 0.98, 0.99, 0.995, 0.999}) {
      std::printf(" p%g %.4g", p * 100.0, percentile(ns, p) * 1e-6);
    }
    std::printf(" max %.4g\n", ns.back() * 1e-6);
    print_metrics(m);
    print_result(failed == 0, loop.points, failed, m);
    return failed == 0 ? 0 : 1;
  }

  const LoopResult plain = run_loop(*w, def.threads, args.seconds / 2, nullptr,
                                    next_point);
  TraceSet trace(kThreads + 1);
  const LoopResult traced = run_loop(*w, def.threads, args.seconds / 2, &trace,
                                     next_point);
  long failed = plain.failed + traced.failed + w->finish(&trace);
  const long attempted = plain.points + traced.points;

  const TraceSummary summary = summarize(trace);
  if (summary.inconsistent_points != 0) {
    std::printf("trace self-check FAILED: %ld points whose layer self times "
                "exceed the point's host time, or whose span tree is "
                "broken\n",
                summary.inconsistent_points);
    failed += summary.inconsistent_points;
  }
  std::string error;
  if (!write_and_verify_chrome_trace(trace, args.trace_out, error)) {
    std::printf("trace self-check FAILED: %s\n", error.c_str());
    ++failed;
  }
  const Metrics m = layer_metrics(summary, *w, traced.mean_speed(),
                                  mean(plain.scaled_point_ns),
                                  mean(traced.scaled_point_ns),
                                  sweep_point_overhead_us(),
                                  w->parallel_efficiency());
  print_layer_table(summary);
  std::printf("points=%ld (untraced %ld, traced %ld) failed=%ld trace=%s; "
              "span times scaled by the traced loop's mean host speed %.4f\n",
              attempted, plain.points, traced.points, failed,
              args.trace_out.c_str(), traced.mean_speed());
  print_metrics(m);
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cnpu::bench

int main(int argc, char** argv) {
  const cnpu::bench::Args args = cnpu::bench::parse_args(argc, argv);
  try {
    return cnpu::bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cnpubench: %s\n", e.what());
    return 1;
  }
}
