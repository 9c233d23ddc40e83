// sim_warm: one seed-drawn SimOptions point per run on the hoisted,
// throughput-matched canonical design, through SweepRunner with one warm
// SimEngine per worker slot. See README.md.
#include <algorithm>

#include "bench.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"

namespace cnpu::bench {
namespace {

// A point whose warm result is re-checked against a one-shot run after
// the loop.
struct Sample {
  long point = 0;
  SimOptions options;
  SimResult warm;
};

// Every kSampleEvery-th point below kSampledPoints is re-checked: a fixed
// set of samples, so the memory they hold does not depend on how many
// points the loop reaches.
constexpr long kSampleEvery = 16;
constexpr long kSampledPoints = 1024;

class SimWarm final : public Workload {
 public:
  explicit SimWarm(std::uint64_t seed)
      : seed_(seed),
        runner_(SweepOptions{.threads = kThreads}),
        engines_(static_cast<std::size_t>(runner_.worker_slots())),
        results_(engines_.size()),
        tallies_(engines_.size()),
        samples_(engines_.size()) {
    // Fault victims: the four busiest chiplets whose router does not carry
    // the I/O port (losing that one severs camera ingress outright).
    const ScheduleMetrics metrics = evaluate_schedule(*canonical_.schedule);
    std::vector<std::pair<double, int>> busy;
    for (const ChipletUsage& u : metrics.chiplets) {
      if (u.busy_s > 0.0 && !canonical_.package.io_port_attached_to(u.chiplet_id)) {
        busy.emplace_back(-u.busy_s, u.chiplet_id);
      }
    }
    std::sort(busy.begin(), busy.end());
    for (std::size_t i = 0; i < busy.size() && i < 4; ++i) {
      victims_.push_back(busy[i].second);
    }

    stream_ = canonical_stream_model(canonical_, seed, engines_.front());

    // Engine warm-up: every slot compiles each program variant a point can
    // need (both NoP modes, each victim's degraded program) at the longest
    // stream, so loop runs reuse compiled programs and buffers.
    for (std::size_t slot = 0; slot < engines_.size(); ++slot) {
      for (const NopMode mode : {NopMode::kAnalytical, NopMode::kContended}) {
        SimOptions opt = base_options(kMaxFrames, mode);
        engines_[slot].run_into(*canonical_.schedule, opt, results_[slot]);
        for (const int victim : victims_) {
          opt.fault = fault_plan(opt, victim, 0.5, true);
          engines_[slot].run_into(*canonical_.schedule, opt, results_[slot]);
        }
      }
    }
  }

  int batch() const override { return 16; }

  // Points run concurrently, one per worker slot, each on its slot's
  // engine and tracer.
  long run_points(long first, int count, TraceSet* trace,
                  std::vector<double>& point_ns) override {
    const std::vector<int> failed = runner_.map(count, [&](int k) {
      Tracer* t = trace != nullptr ? &trace->slot(current_slot()) : nullptr;
      return run_point(first + k, t, point_ns[static_cast<std::size_t>(k)])
                 ? 0
                 : 1;
    });
    long n = 0;
    for (const int f : failed) n += f;
    return n;
  }

  // Each sampled warm result must be bitwise equal to a one-shot
  // simulate_schedule of the same point. Sampled points the loop did not
  // reach are run here first, untimed. Traced, the one-shot run is the
  // cold run and a re-run on the slot-0 engine the warm run of the same
  // point (sim.compile_us is their difference).
  long finish(TraceSet* trace) override {
    long failed = 0;
    std::vector<bool> sampled(kSampledPoints / kSampleEvery, false);
    for (const std::vector<Sample>& list : samples_) {
      for (const Sample& s : list) {
        sampled[static_cast<std::size_t>(s.point / kSampleEvery)] = true;
      }
    }
    double unused = 0.0;
    for (std::size_t k = 0; k < sampled.size(); ++k) {
      const auto i = static_cast<long>(k) * kSampleEvery;
      if (!sampled[k] && !run_point(i, nullptr, unused)) ++failed;
    }
    Tracer* t = trace != nullptr ? &trace->slot(0) : nullptr;
    SimResult cold;
    for (std::vector<Sample>& list : samples_) {
      for (const Sample& s : list) {
        ScopedSpan root(t, "probe", s.point);
        bool ok = true;
        try {
          {
            ScopedSpan span(t, "sim.cold_run", s.point);
            cold = simulate_schedule(*canonical_.schedule, s.options);
            span.set_count(cold.tasks_executed);
          }
          ok = sim_results_identical(cold, s.warm);
          if (t != nullptr) {
            ScopedSpan span(t, "sim.warm_run", s.point);
            engines_.front().run_into(*canonical_.schedule, s.options,
                                      results_.front());
            span.set_count(results_.front().tasks_executed);
          }
        } catch (const std::exception&) {
          ok = false;
        }
        if (!ok) ++failed;
      }
      list.clear();
    }
    return failed;
  }

  double model_p99_ms() const override { return stream_.p99_ms; }
  double model_max_fps() const override { return stream_.max_fps; }

  LayerTally tally() const override {
    LayerTally sum;
    for (const LayerTally& t : tallies_) sum.add(t);
    return sum;
  }

  LayerExtras layer_extras() const override { return {}; }

  // The same points through SweepRunner at kThreads threads and at one
  // (the slot-0 engine, warmed like the others).
  double parallel_efficiency() override {
    constexpr int kPoints = 64;
    const auto body = [this](int k) {
      const auto slot = static_cast<std::size_t>(current_slot());
      engines_[slot].run_into(*canonical_.schedule, options_for(k),
                              results_[slot]);
      return 0;
    };
    return parallel_efficiency_of(
        [&] { SweepRunner(SweepOptions{.threads = 1}).map(kPoints, body); },
        [&] { runner_.map(kPoints, body); });
  }

 protected:
  bool run_point(long i, Tracer* t, double& ns) override {
    const auto slot = static_cast<std::size_t>(current_slot());
    const SimOptions opt = options_for(i);
    SimResult& out = results_[slot];
    const char* layer = opt.fault.active() ? "sim.fault"
                        : opt.nop_mode == NopMode::kContended
                            ? "sim.contended"
                            : "sim.analytical";
    std::uint64_t allocs = 0;
    bool ok = true;
    const std::int64_t cpu0 = thread_cpu_ns();
    const std::int64_t wall0 = now_ns();
    {
      ScopedSpan root(t, "point", i);
      ScopedSpan span(t, layer, i);
      try {
        const std::uint64_t a0 = thread_allocs();
        engines_[slot].run_into(*canonical_.schedule, opt, out);
        allocs = thread_allocs() - a0;
      } catch (const std::exception&) {
        ok = false;
      }
      span.set_count(out.tasks_executed);
    }
    ns = static_cast<double>(thread_cpu_ns() - cpu0);
    if (t != nullptr) t->set_point_host_ns(i, now_ns() - wall0);
    if (!ok) return false;

    LayerTally& tally = tallies_[slot];
    tally.add_sim(out);
    tally.warm_runs += 1.0;
    tally.warm_run_allocs += static_cast<double>(allocs);
    if (i < kSampledPoints && i % kSampleEvery == 0) {
      samples_[slot].push_back({i, opt, out});
    }
    // Frame conservation. The allocation count is measured, not checked:
    // the engine is allocation-free only when a run repeats the previous
    // run's admission pattern, and consecutive points differ.
    return out.frames_completed + out.dropped_frames + out.shed_frames ==
           opt.frames;
  }

 private:
  // The SweepRunner worker slot of the calling thread (0 off the pool).
  static int current_slot() { return ThreadPool::current_worker_index() + 1; }

  static constexpr int kMaxFrames = 64;

  SimOptions base_options(int frames, NopMode mode) const {
    SimOptions opt;
    opt.frames = frames;
    opt.nop_mode = mode;
    opt.frame_interval_s = canonical_.pipe_s;
    opt.deadline_s = canonical_.e2e_s * 2.0;
    return opt;
  }

  // A chiplet death at `at` of the stream, with or without recovery.
  FaultPlan fault_plan(const SimOptions& opt, int victim, double at,
                       bool recovers) const {
    FaultPlan f;
    f.chiplet_id = victim;
    const double stream_s = opt.frame_interval_s * opt.frames;
    f.fail_time_s = stream_s * at;
    f.reschedule_penalty_s = opt.frame_interval_s * 0.25;
    if (recovers) f.recover_time_s = f.fail_time_s + stream_s * 0.2;
    return f;
  }

  // Point i's inputs: 16-64 frames, either NoP mode, a camera period
  // around the pipe interval, a deadline, and a mid-stream fault on about
  // one point in eight.
  SimOptions options_for(long i) const {
    Rng rng(seed_, 0x51Du, static_cast<std::uint64_t>(i));
    SimOptions opt = base_options(
        rng.range(16, kMaxFrames),
        rng.range(0, 1) == 0 ? NopMode::kAnalytical : NopMode::kContended);
    opt.frame_interval_s = canonical_.pipe_s * rng.uniform(0.9, 1.2);
    opt.deadline_s = canonical_.e2e_s * rng.uniform(1.5, 3.0);
    if (rng.range(0, 7) == 0) {
      const int victim = victims_[static_cast<std::size_t>(
          rng.range(0, static_cast<int>(victims_.size()) - 1))];
      opt.fault = fault_plan(opt, victim, rng.uniform(0.3, 0.6),
                             rng.range(0, 1) == 0);
    }
    return opt;
  }

  std::uint64_t seed_;
  SweepRunner runner_;
  // One engine, output buffer, tally and sample list per worker slot.
  std::vector<SimEngine> engines_;
  std::vector<SimResult> results_;
  std::vector<LayerTally> tallies_;
  std::vector<std::vector<Sample>> samples_;
  std::vector<int> victims_;
  StreamModel stream_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_warm(std::uint64_t seed) {
  return std::make_unique<SimWarm>(seed);
}

}  // namespace cnpu::bench
