// Seeded inputs, bitwise result comparison, per-layer tallies, and the
// model card shared by the workloads.
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>

#include "bench.h"
#include "core/baselines.h"
#include "core/throughput_matching.h"
#include "workloads/autopilot.h"

namespace cnpu::bench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int Rng::range(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

// ----------------------------------------------------------- host speed

namespace {

// Calibration loops per second on the reference host.
constexpr double kReferenceLoopsPerS = 700.0;

// Tables of one calibration copy, allocated once so that a loop never pays
// for faulting them in.
struct CalibrationTables {
  std::vector<std::uint32_t> small = std::vector<std::uint32_t>(1u << 16, 1u);
  std::vector<std::uint32_t> large = std::vector<std::uint32_t>(1u << 20, 1u);
};

// xorshift-driven read-modify-write updates of `table` (size a power of 2).
std::uint32_t churn_table(std::vector<std::uint32_t>& table, int updates,
                          std::uint64_t& x) {
  const std::uint64_t mask = table.size() - 1;
  std::uint32_t acc = 0;
  for (int i = 0; i < updates; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & mask] += static_cast<std::uint32_t>(x);
    acc += table[(x >> 24) & mask] & 1023u;
  }
  return acc;
}

// One calibration loop, about 1.5 ms in three equal parts that between them
// follow how a shared host slows the three workloads: updates of a 256 KiB
// table (cache-resident work), of a 4 MiB table (last-level cache), and
// short-lived heap vectors (allocation churn). Returns its thread CPU time.
std::int64_t calibration_loop_cpu_ns(CalibrationTables& tables) {
  const std::int64_t t0 = thread_cpu_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint32_t acc = churn_table(tables.small, 150000, x);
  acc += churn_table(tables.large, 35000, x);
  for (int i = 0; i < 2200; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::vector<double> v;
    const int n = 8 + static_cast<int>(x & 63u);
    for (int k = 0; k < n; ++k) v.push_back(0.5 * k);
    acc += static_cast<std::uint32_t>(v.back());
  }
  tables.small[0] = acc;  // keeps the loop's work observable
  return thread_cpu_ns() - t0;
}

}  // namespace

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

HostSpeed measure_host_speed(int threads) {
  static std::vector<CalibrationTables> tables(kThreads);
  std::vector<std::int64_t> cpu_ns(static_cast<std::size_t>(threads));
  const auto copy = [&cpu_ns](std::size_t i) {
    cpu_ns[i] = calibration_loop_cpu_ns(tables[i]);
  };
  const std::int64_t t0 = now_ns();
  if (threads == 1) {
    copy(0);
  } else {
    std::vector<std::thread> copies;
    for (std::size_t i = 0; i < cpu_ns.size(); ++i) copies.emplace_back(copy, i);
    for (std::thread& c : copies) c.join();
  }
  const auto call_ns = static_cast<double>(now_ns() - t0);

  HostSpeed speed;
  speed.wall = 1e9 / call_ns / kReferenceLoopsPerS;
  double cpu_rate = 0.0;
  for (const std::int64_t ns : cpu_ns) cpu_rate += 1e9 / static_cast<double>(ns);
  speed.cpu = cpu_rate / static_cast<double>(threads) / kReferenceLoopsPerS;
  return speed;
}

double percentile(std::vector<double> sample, double p) {
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sample.size())));
  return sample[std::max<std::size_t>(rank, 1) - 1];
}

// ------------------------------------------------------------- compare

namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

bool same(const TenantResult& a, const TenantResult& b) {
  return a.name == b.name && a.frames == b.frames &&
         a.frames_completed == b.frames_completed &&
         a.dropped_frames == b.dropped_frames &&
         a.shed_frames == b.shed_frames &&
         a.deadline_miss_frames == b.deadline_miss_frames &&
         same(a.p50_latency_s, b.p50_latency_s) &&
         same(a.p95_latency_s, b.p95_latency_s) &&
         same(a.p99_latency_s, b.p99_latency_s) &&
         same(a.mean_latency_s, b.mean_latency_s) &&
         same(a.peak_latency_s, b.peak_latency_s) &&
         same(a.steady_interval_s, b.steady_interval_s) &&
         same(a.mean_queue_delay_s, b.mean_queue_delay_s) &&
         same(a.peak_queue_delay_s, b.peak_queue_delay_s) &&
         same(a.nop_wait_s, b.nop_wait_s) &&
         same(a.frame_completion_s, b.frame_completion_s) &&
         same(a.frame_latency_s, b.frame_latency_s);
}

bool same(const LinkStats& a, const LinkStats& b) {
  return a.link == b.link && same(a.busy_s, b.busy_s) &&
         same(a.utilization, b.utilization) &&
         same(a.max_queue_wait_s, b.max_queue_wait_s) &&
         same(a.total_queue_wait_s, b.total_queue_wait_s) &&
         a.messages == b.messages;
}

template <typename T>
bool same_list(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

bool sim_results_identical(const SimResult& a, const SimResult& b) {
  return same(a.first_frame_latency_s, b.first_frame_latency_s) &&
         same(a.steady_interval_s, b.steady_interval_s) &&
         same(a.makespan_s, b.makespan_s) &&
         same(a.frame_completion_s, b.frame_completion_s) &&
         same(a.frame_latency_s, b.frame_latency_s) &&
         same(a.p50_latency_s, b.p50_latency_s) &&
         same(a.p95_latency_s, b.p95_latency_s) &&
         same(a.p99_latency_s, b.p99_latency_s) &&
         same(a.chiplet_busy_s, b.chiplet_busy_s) &&
         a.tasks_executed == b.tasks_executed &&
         a.frames_completed == b.frames_completed &&
         a.dropped_frames == b.dropped_frames &&
         a.shed_frames == b.shed_frames &&
         a.deadline_miss_frames == b.deadline_miss_frames &&
         same(a.peak_latency_s, b.peak_latency_s) &&
         same(a.recovery_time_s, b.recovery_time_s) &&
         a.remapped_items == b.remapped_items &&
         same(a.reload_bytes, b.reload_bytes) &&
         same(a.reload_time_s, b.reload_time_s) &&
         same_list(a.link_stats, b.link_stats) &&
         same_list(a.tenants, b.tenants);
}

// -------------------------------------------------------------- tallies

void LayerTally::add(const LayerTally& o) {
  warm_runs += o.warm_runs;
  warm_run_allocs += o.warm_run_allocs;
  contended_runs += o.contended_runs;
  max_link_util += o.max_link_util;
  queue_wait_s += o.queue_wait_s;
  busy_runs += o.busy_runs;
  busy_util += o.busy_util;
  tasks += o.tasks;
}

void LayerTally::add_sim(const SimResult& r) {
  tasks += r.tasks_executed;
  if (r.makespan_s > 0.0 && !r.chiplet_busy_s.empty()) {
    double sum = 0.0;
    for (const double b : r.chiplet_busy_s) sum += b;
    busy_util += sum / static_cast<double>(r.chiplet_busy_s.size()) /
                 r.makespan_s;
    busy_runs += 1.0;
  }
  if (!r.link_stats.empty()) {
    double hottest = 0.0;
    for (const LinkStats& l : r.link_stats) {
      hottest = std::max(hottest, l.utilization);
      queue_wait_s += l.total_queue_wait_s;
    }
    max_link_util += hottest;
    contended_runs += 1.0;
  }
}

// ------------------------------------------------------------- workload

long Workload::run_points(long first, int count, TraceSet* trace,
                          std::vector<double>& point_ns) {
  Tracer* t = trace != nullptr ? &trace->slot(0) : nullptr;
  long failed = 0;
  for (int k = 0; k < count; ++k) {
    if (!run_point(first + k, t, point_ns[static_cast<std::size_t>(k)])) {
      ++failed;
    }
  }
  return failed;
}

// ----------------------------------------------------------- model card

CanonicalDesign::CanonicalDesign()
    : pipeline(build_autopilot_pipeline()), package(make_simba_package()) {
  MatchResult match = throughput_matching(pipeline, package);
  schedule = std::make_unique<Schedule>(std::move(match.schedule));
  pipe_s = match.metrics.pipe_s;
  e2e_s = match.metrics.e2e_s;
  utilization = match.metrics.utilization;
}

namespace {

// Paper Table II, stagewise pipelining, stages 1-3 (the values
// bench/bench_table2.cc prints beside its table): 1x9216, 2x4608, 4x2304,
// and the throughput-matched 36x256 MCM.
constexpr double kPaperE2eS[4] = {1.8, 1.8, 1.8, 0.5};
constexpr double kPaperPipeS[4] = {1.8, 0.7, 0.67, 0.09};

}  // namespace

ModelCard compute_model_card(const CanonicalDesign& canonical) {
  ModelCard card;
  card.fps = 1.0 / canonical.pipe_s;
  card.pe_util = canonical.utilization;

  const PerceptionPipeline front = build_autopilot_front();
  std::vector<ScheduleMetrics> rows;
  for (const int chips : {1, 2, 4}) {
    rows.push_back(run_baseline(front, make_monolithic_package(chips),
                                PipelineMode::kStagewise, "table2")
                       .metrics);
  }
  rows.push_back(throughput_matching(front, make_simba_package()).metrics);

  double err = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    err += std::abs(rows[i].e2e_s - kPaperE2eS[i]) / kPaperE2eS[i];
    err += std::abs(rows[i].pipe_s - kPaperPipeS[i]) / kPaperPipeS[i];
  }
  card.table2_err_pct = 100.0 * err / (2.0 * static_cast<double>(rows.size()));
  card.util_ratio = rows.back().utilization / rows.front().utilization;
  return card;
}

StreamModel canonical_stream_model(const CanonicalDesign& canonical,
                                   std::uint64_t seed, SimEngine& engine) {
  Rng rng(seed, 0xCA770u);
  SimOptions opt;
  opt.frames = 64;
  opt.nop_mode = NopMode::kContended;
  opt.frame_interval_s = canonical.pipe_s * rng.uniform(0.995, 1.0);
  SimResult r;
  StreamModel model;
  engine.run_into(*canonical.schedule, opt, r);
  model.p99_ms = r.p99_latency_s * 1e3;
  opt.frame_interval_s = 0.0;
  engine.run_into(*canonical.schedule, opt, r);
  model.max_fps = 1.0 / r.steady_interval_s;
  return model;
}

}  // namespace cnpu::bench
