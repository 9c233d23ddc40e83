// Shared pieces of the cnpu benchmark: seeded input generation, the span
// tracer, the allocation counter, result comparison, the model card, and
// the interface every workload implements. See README.md for what each
// workload measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_sim.h"

namespace cnpu::bench {

// Worker threads every parallel section uses (never 0, which means "all
// cores" to SweepRunner).
inline constexpr int kThreads = 2;

// ---------------------------------------------------------------- inputs

// splitmix64: platform-independent, so a seed reproduces the same inputs
// on every compiler and standard library (std::<random> distributions do
// not).
class Rng {
 public:
  // Independent stream for (seed, a, b): each point draws its own inputs,
  // so a point's inputs do not depend on how many points ran before it.
  Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
      : state_(seed ^ (a * 0x9E3779B97F4A7C15ull) ^
               (b * 0xC2B2AE3D27D4EB4Full)) {
    next();
  }

  std::uint64_t next();
  // Uniform integer in [lo, hi].
  int range(int lo, int hi);
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

// ----------------------------------------------------------------- clock

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread, and of the whole process. On a virtual
// machine these exclude time the host takes the virtual CPU away (steal).
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

// --------------------------------------------------- allocation and RSS

// Heap allocations made by the calling thread since it started (counted by
// the replacement operator new in alloc_counter.cc).
std::uint64_t thread_allocs();
// getrusage max resident set size of this process, MiB.
double peak_rss_mb();

// ------------------------------------------------------------ host speed

// How fast this host runs right now, relative to a reference host: a fixed
// calibration loop, the benchmark's own code, runs as `threads` copies at
// once and its rates are divided by the reference rate. One copy runs on
// the calling thread; more run on threads started for the call and joined
// after it, the way the workloads' parallel sections start a thread pool
// per call (the threads are std::threads, so no change to the library can
// move the measurement). `wall` is the rate over the whole call, thread
// start-up and join included; `cpu` is the mean rate per CPU second of a
// copy. A shared host's speed drifts by tens of percent over seconds to
// minutes; host times multiplied by the matching factor are in reference
// seconds and stay comparable across runs. 1 <= threads <= kThreads.
struct HostSpeed {
  double wall = 1.0;
  double cpu = 1.0;
};
HostSpeed measure_host_speed(int threads);

// Nearest-rank percentile (0 < p <= 1) of a non-empty sample.
double percentile(std::vector<double> sample, double p);

// ---------------------------------------------------------------- tracing

// One call into a layer, timed from the benchmark's side of the call.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;     // index in the same Tracer; -1 for a root
  long point = -1;     // point id the span belongs to
  double count = 0.0;  // work the call did (tasks, steps, calls), if any
};

// Spans of one thread, kept in memory until the run ends.
class Tracer {
 public:
  int open(const char* name, long point);
  void close(int index);
  void set_count(int index, double count) {
    spans_[static_cast<std::size_t>(index)].count = count;
  }
  // The host time of point `point` as the workload measured it itself, on
  // the steady clock around the point's root span.
  void set_point_host_ns(long point, std::int64_t ns) {
    point_host_ns_.emplace_back(point, ns);
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::pair<long, std::int64_t>>& point_host_ns() const {
    return point_host_ns_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::pair<long, std::int64_t>> point_host_ns_;
};

// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, long point)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, point) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(double count) {
    if (tracer_ != nullptr) tracer_->set_count(index_, count);
  }

 private:
  Tracer* tracer_;
  int index_;
};

// One tracer per SweepRunner worker slot (slot 0 is the calling thread).
class TraceSet {
 public:
  explicit TraceSet(int slots) : tracers_(static_cast<std::size_t>(slots)) {}
  Tracer& slot(int s) { return tracers_[static_cast<std::size_t>(s)]; }
  const std::vector<Tracer>& tracers() const { return tracers_; }

 private:
  std::vector<Tracer> tracers_;
};

// Per-name totals over every span of a trace.
struct LayerTotals {
  long calls = 0;
  double self_ns = 0.0;   // duration minus the time child spans cover
  double total_ns = 0.0;  // duration
  double count = 0.0;     // summed Span::count
};

struct TraceSummary {
  std::vector<std::pair<std::string, LayerTotals>> layers;  // by name
  long points = 0;         // distinct "point" roots
  double point_ns = 0.0;   // summed "point" root durations
  // Points whose layer self times summed past the host time the workload
  // measured around the point (or that have no such measurement), whose
  // spans carry another point's id, or whose child spans left their
  // parent's interval: a broken trace.
  long inconsistent_points = 0;

  // Totals of `name`; all zero when no span had that name.
  LayerTotals get(const std::string& name) const;
  // Mean self time per call of `name`, in ns (0 when never called).
  double self_per_call_ns(const std::string& name) const;
};

TraceSummary summarize(const TraceSet& trace);

// Writes the spans as Chrome trace-event JSON (util/json's JsonWriter),
// reads the file back through parse_json and checks that every span
// survived. Returns false, with a message, when any step fails.
bool write_and_verify_chrome_trace(const TraceSet& trace,
                                   const std::string& path,
                                   std::string& error);

// ---------------------------------------------------------------- checks

// Every field of two simulation results, doubles compared by bit pattern
// (dropped frames carry NaN, so == on doubles cannot express identity).
bool sim_results_identical(const SimResult& a, const SimResult& b);

// ------------------------------------------------------------ model card

// What the modelled package delivers, in simulated time. Deterministic for
// a seed. See README.md for how each number is defined.
struct ModelCard {
  double fps = 0.0;              // 1 / pipe_s of the canonical 6x6 design
  double pe_util = 0.0;          // its utilization
  double table2_err_pct = 0.0;   // MAPE vs the paper's Table II latencies
  double util_ratio = 0.0;       // modelled 36x256 / 1x9216 utilization
};

// The canonical design: the 8-camera Autopilot pipeline throughput-matched
// onto the 6x6 Simba package. Not movable: the schedule points at the
// pipeline and package it owns.
struct CanonicalDesign {
  CanonicalDesign();
  CanonicalDesign(const CanonicalDesign&) = delete;
  CanonicalDesign& operator=(const CanonicalDesign&) = delete;

  PerceptionPipeline pipeline;
  PackageConfig package;
  std::unique_ptr<Schedule> schedule;
  double pipe_s = 0.0;
  double e2e_s = 0.0;
  double utilization = 0.0;
};

// fps and pe_util from `canonical`; the Table II error and utilization
// ratio from the four Table II designs, priced here.
ModelCard compute_model_card(const CanonicalDesign& canonical);

// model.p99_ms and model.max_fps of the canonical design, run on `engine`.
// p99_ms: the contended 64-frame stream with the camera period drawn from
// the seed in [0.995, 1.0) x the analytical pipe interval, so frames arrive
// slightly faster than the pipeline drains them and the tail grows with
// the backlog (550-576 ms). max_fps: 1 / steady interval of the same
// stream with back-to-back frames.
struct StreamModel {
  double p99_ms = 0.0;
  double max_fps = 0.0;
};
StreamModel canonical_stream_model(const CanonicalDesign& canonical,
                                   std::uint64_t seed, SimEngine& engine);

// exp.parallel_eff: runs serial() then parallel() twice and returns the
// serial time over kThreads times the parallel time (1.0 = perfect
// scaling).
template <typename Serial, typename Parallel>
double parallel_efficiency_of(Serial&& serial, Parallel&& parallel);

// ------------------------------------------------------------- workloads

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Metrics {
  std::vector<Metric> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, value, unit});
  }
};

// Per-thread tallies of modelled per-layer quantities, merged after a run.
struct LayerTally {
  double warm_runs = 0.0;
  double warm_run_allocs = 0.0;
  double contended_runs = 0.0;
  double max_link_util = 0.0;   // summed hottest-link utilization
  double queue_wait_s = 0.0;    // summed LinkStats::total_queue_wait_s
  double busy_runs = 0.0;
  double busy_util = 0.0;       // summed mean chiplet busy / makespan
  double tasks = 0.0;           // tasks of every SimResult a point returned

  void add(const LayerTally& o);
  void add_sim(const SimResult& r);  // busy, link and task tallies
};

// Per-layer metrics a workload measures itself.
struct LayerExtras {
  double e2e_gap_us = 0.0;      // mean |evaluator E2E - sim first frame|
  double shed_frac = 0.0;       // shed / offered frames over fixed-rate probes
  double queue_delay_ms = 0.0;  // mean tenant queue delay over those probes
  double nop_wait_ms = 0.0;     // mean tenant critical-path NoP wait
};

// A workload: built (its set-up) by its factory, then driven in batches of
// points by the benchmark loop. Points are numbered from 0; a point's
// inputs depend only on the seed and its number.
class Workload {
 public:
  Workload() : card_(compute_model_card(canonical_)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const ModelCard& card() const { return card_; }

  // Points run per batch; the loop checks the clock between batches.
  virtual int batch() const = 0;
  // Runs points [first, first + count) and records the host CPU time each
  // took in point_ns[i - first]. Returns the number of points that threw
  // or failed a check. The default runs them one at a time on the calling
  // thread (tracer slot 0) through run_point().
  virtual long run_points(long first, int count, TraceSet* trace,
                          std::vector<double>& point_ns);
  // Post-loop work: checks on the points sampled during the loop, and any
  // untimed points the model metrics need. Returns the number that failed.
  virtual long finish(TraceSet* trace) = 0;
  // model.p99_ms and model.max_fps, deterministic for the seed; valid
  // after finish().
  virtual double model_p99_ms() const = 0;
  virtual double model_max_fps() const = 0;
  // Modelled per-layer tallies gathered by run_points.
  virtual LayerTally tally() const = 0;
  // Per-layer metrics not derived from spans; zero where the workload does
  // not exercise the layer.
  virtual LayerExtras layer_extras() const = 0;
  // exp.parallel_eff: the workload's unit of parallel work at kThreads
  // threads over kThreads times its serial rate.
  virtual double parallel_efficiency() = 0;

 protected:
  // Runs point `i`; returns false when it threw or failed a check. Its
  // host CPU time goes to `ns` (the process's, when points run one at a
  // time; the worker thread's, when they run concurrently). With a tracer
  // it records a "point" root span, notes the point's steady-clock host
  // time with set_point_host_ns(), and puts traced-only probes under
  // "probe" roots.
  virtual bool run_point(long i, Tracer* t, double& ns) = 0;

  CanonicalDesign canonical_;
  ModelCard card_;
};

template <typename Serial, typename Parallel>
double parallel_efficiency_of(Serial&& serial, Parallel&& parallel) {
  double serial_ns = 0.0;
  double parallel_ns = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    std::int64_t t0 = now_ns();
    serial();
    serial_ns += static_cast<double>(now_ns() - t0);
    t0 = now_ns();
    parallel();
    parallel_ns += static_cast<double>(now_ns() - t0);
  }
  return serial_ns / (kThreads * parallel_ns);
}

std::unique_ptr<Workload> make_dse_cold(std::uint64_t seed);
std::unique_ptr<Workload> make_sim_warm(std::uint64_t seed);
std::unique_ptr<Workload> make_serving_openloop(std::uint64_t seed);


}  // namespace cnpu::bench
