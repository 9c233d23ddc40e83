// serving_openloop: one max_sustainable_load search per point over a
// seed-drawn open-loop fleet, then fixed-rate probes on a ServingPlan at
// 0.5x, 0.9x and 1.5x the rate found. See README.md.
#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/bounds.h"
#include "bench.h"
#include "core/baselines.h"
#include "core/partition.h"
#include "sim/arrivals.h"
#include "sim/serving.h"
#include "workloads/zoo.h"

namespace cnpu::bench {
namespace {

constexpr int kTenants = 4;
constexpr int kCamerasPerTenant = 3;
constexpr int kFrames = 48;  // offered frames per tenant per probe
// Per-frame deadline, in isolated service intervals of one tenant.
constexpr double kDeadlineIntervals = 8.0;
constexpr double kProbeLoads[3] = {0.5, 0.9, 1.5};
// model.max_fps and model.p99_ms are medians over points [0, kModelPoints).
constexpr long kModelPoints = 512;
// Every kSampleEvery-th point of the model set has one probe re-checked
// against serve_tenants: a fixed set of samples, so the memory they hold
// does not depend on how many points the loop reaches.
constexpr long kSampleEvery = 8;

struct Sample {
  long point = 0;
  double fps = 0.0;
  SimResult warm;
};

class ServingOpenloop final : public Workload {
 public:
  explicit ServingOpenloop(std::uint64_t seed)
      : seed_(seed),
        package_(make_simba_package(4, 4)),
        pipeline_(build_fault_probe_pipeline(kCamerasPerTenant)) {
    options_.policy = PlacementPolicy::kPartitioned;
    options_.nop_mode = NopMode::kContended;

    // Capacity anchor (as in bench_openloop): the steady interval of one
    // tenant alone on its quadrant.
    const auto pools = partition_tenant_pools(package_, kTenants);
    const Schedule quadrant =
        build_pool_schedule(pipeline_, package_, pools.front(), 0);
    SimOptions burst;
    burst.frames = 8;
    healthy_s_ = simulate_schedule(quadrant, burst).steady_interval_s;

    search_.fps_lo = 0.02 / healthy_s_;
    search_.fps_hi = 2.0 / healthy_s_;
    search_.threads = kThreads;
    search_.use_static_bound = true;

    // Warm-up: two searches and probes on fleets outside the point range,
    // for thread start-up, allocator and code paths.
    for (long k = 1; k <= 2; ++k) {
      const std::vector<TenantWorkload> fleet = make_fleet(-k);
      const LoadSearchResult found =
          max_sustainable_load(package_, fleet, options_, search_);
      ServingPlan plan(package_, fleet, options_);
      (void)plan.run_at_rate(std::max(found.max_fps, search_.fps_lo));
    }
  }

  int batch() const override { return 4; }

  // A warm plan's probe must be bitwise equal to a fresh serve_tenants of
  // the same fleet at the same rate. Points of the model set the loop did
  // not reach are run here, untimed.
  long finish(TraceSet*) override {
    long failed = 0;
    double unused = 0.0;
    for (long i = 0; i < kModelPoints; ++i) {
      if (model_max_fps_[static_cast<std::size_t>(i)] < 0.0 &&
          !run_point(i, nullptr, unused)) {
        ++failed;
      }
    }
    for (const Sample& s : samples_) {
      bool ok = false;
      try {
        std::vector<TenantWorkload> fleet = make_fleet(s.point);
        for (TenantWorkload& w : fleet) w.arrivals.rate_fps = s.fps;
        ok = sim_results_identical(serve_tenants(package_, fleet, options_),
                                   s.warm);
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok) ++failed;
    }
    samples_.clear();
    return failed;
  }

  double model_p99_ms() const override { return percentile(model_p99_s_, 0.5) * 1e3; }
  double model_max_fps() const override { return percentile(model_max_fps_, 0.5); }

  LayerTally tally() const override { return tally_; }

  LayerExtras layer_extras() const override {
    LayerExtras x;
    if (offered_frames_ > 0.0) x.shed_frac = shed_frames_ / offered_frames_;
    if (delay_tenants_ > 0.0) {
      x.queue_delay_ms = queue_delay_s_ / delay_tenants_ * 1e3;
    }
    if (probe_tenants_ > 0.0) x.nop_wait_ms = nop_wait_s_ / probe_tenants_ * 1e3;
    return x;
  }

  // Searches at kThreads threads against the same searches serially.
  double parallel_efficiency() override {
    constexpr int kSearches = 8;
    LoadSearchOptions serial = search_;
    serial.threads = 1;
    const auto searches = [this](const LoadSearchOptions& options) {
      for (int k = 0; k < kSearches; ++k) {
        (void)max_sustainable_load(package_, make_fleet(-100 - k), options_,
                                   options);
      }
    };
    return parallel_efficiency_of([&] { searches(serial); },
                                  [&] { searches(search_); });
  }

 protected:
  bool run_point(long i, Tracer* t, double& ns) override {
    const std::vector<TenantWorkload> fleet = make_fleet(i);
    bool ok = true;
    double found_fps = 0.0;
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t wall0 = now_ns();
    {
      ScopedSpan root(t, "point", i);
      try {
        {
          ScopedSpan span(t, "serving.search", i);
          const LoadSearchResult found =
              max_sustainable_load(package_, fleet, options_, search_);
          span.set_count(static_cast<double>(found.probes.size()));
          // 0 means even the floor rate missed a deadline or shed a frame:
          // a valid answer, probed around the floor instead.
          found_fps = found.max_fps > 0.0 ? found.max_fps : search_.fps_lo;
          if (i < kModelPoints) {
            model_max_fps_[static_cast<std::size_t>(i)] = found.max_fps;
          }
        }
        std::optional<ServingPlan> plan;
        {
          ScopedSpan span(t, "serving.plan", i);
          plan.emplace(package_, fleet, options_);
        }
        for (std::size_t p = 0; p < std::size(kProbeLoads); ++p) {
          const double fps = kProbeLoads[p] * found_fps;
          std::uint64_t allocs = 0;
          {
            ScopedSpan span(t, "serving.probe", i);
            const std::uint64_t a0 = thread_allocs();
            plan->run_at_rate_into(fps, result_);
            allocs = thread_allocs() - a0;
            span.set_count(result_.tasks_executed);
          }
          ok = record_probe(p, allocs) && ok;
          if (i < kModelPoints && kProbeLoads[p] == 0.9) {
            model_p99_s_[static_cast<std::size_t>(i)] = worst_p99_s(result_);
          }
          if (i < kModelPoints && i % kSampleEvery == 0 &&
              static_cast<long>(p) == (i / kSampleEvery) % 3) {
            samples_.push_back({i, fps, result_});
          }
        }
      } catch (const std::exception&) {
        ok = false;
      }
    }
    ns = static_cast<double>(process_cpu_ns() - cpu0);
    if (t != nullptr) {
      t->set_point_host_ns(i, now_ns() - wall0);
      if (ok) probe(i, t, fleet, found_fps);
    }
    return ok;
  }

 private:
  // Point i's fleet: bench_openloop's partitioned fleet with Poisson
  // arrival seeds drawn for the point, a deadline of kDeadlineIntervals
  // isolated service intervals, and a drop-oldest queue of four frames.
  std::vector<TenantWorkload> make_fleet(long i) const {
    Rng rng(seed_, 0x5E7u, static_cast<std::uint64_t>(i));
    std::vector<TenantWorkload> fleet;
    for (int t = 0; t < kTenants; ++t) {
      TenantWorkload w;
      w.name = "cam" + std::to_string(t);
      w.pipeline = &pipeline_;
      w.frames = kFrames;
      w.deadline_s = healthy_s_ * kDeadlineIntervals;
      w.arrivals.kind = ArrivalKind::kPoisson;
      w.arrivals.rate_fps = 1.0 / healthy_s_;
      w.arrivals.seed = rng.next();
      w.admission.queue_capacity = 4;
      w.admission.policy = ShedPolicy::kDropOldest;
      fleet.push_back(w);
    }
    return fleet;
  }

  static double worst_p99_s(const SimResult& r) {
    double worst = 0.0;
    for (const TenantResult& tr : r.tenants) {
      worst = std::max(worst, tr.p99_latency_s);
    }
    return worst;
  }

  // Tallies one fixed-rate probe (the first on a fresh plan compiles its
  // programs; the later ones are warm runs). Checks frame conservation.
  bool record_probe(std::size_t p, std::uint64_t allocs) {
    tally_.add_sim(result_);
    if (p > 0) {
      tally_.warm_runs += 1.0;
      tally_.warm_run_allocs += static_cast<double>(allocs);
    }
    bool ok = true;
    for (const TenantResult& tr : result_.tenants) {
      ok = ok && tr.frames_completed + tr.dropped_frames + tr.shed_frames ==
                     tr.frames;
      offered_frames_ += tr.frames;
      shed_frames_ += tr.shed_frames;
      nop_wait_s_ += tr.nop_wait_s;
      probe_tenants_ += 1.0;
      if (!std::isnan(tr.mean_queue_delay_s)) {
        queue_delay_s_ += tr.mean_queue_delay_s;
        delay_tenants_ += 1.0;
      }
    }
    return ok;
  }

  // Traced-only: the calls the search makes inside the library, timed
  // from outside: the fleet's static bounds and its arrival generation.
  void probe(long i, Tracer* t, const std::vector<TenantWorkload>& fleet,
             double fps) {
    ScopedSpan root(t, "probe", i);
    {
      ScopedSpan span(t, "analysis.bounds_fleet", i);
      sink_ += analysis::compute_bounds(package_, fleet, options_)
                   .uniform_rate_bound_fps;
    }
    ScopedSpan span(t, "arrivals.gen", i);
    for (const TenantWorkload& w : fleet) {
      ArrivalSpec spec = w.arrivals;
      spec.rate_fps = fps;
      generate_arrivals(spec, w.frames, arrivals_);
      sink_ += arrivals_.back();
    }
    span.set_count(static_cast<double>(fleet.size()));
  }

  std::uint64_t seed_;
  PackageConfig package_;
  PerceptionPipeline pipeline_;
  ServingOptions options_;
  LoadSearchOptions search_;
  double healthy_s_ = 0.0;
  // Per point of the model set: the search result and the worst tenant's
  // p99 at the 0.9x probe; -1 until the point has run.
  std::vector<double> model_max_fps_ = std::vector<double>(kModelPoints, -1.0);
  std::vector<double> model_p99_s_ = std::vector<double>(kModelPoints, -1.0);
  SimResult result_;
  std::vector<double> arrivals_;
  std::vector<Sample> samples_;
  LayerTally tally_;
  double offered_frames_ = 0.0;
  double shed_frames_ = 0.0;
  double queue_delay_s_ = 0.0;
  double delay_tenants_ = 0.0;
  double nop_wait_s_ = 0.0;
  double probe_tenants_ = 0.0;
  double sink_ = 0.0;  // keeps the probed results observable
};

}  // namespace

std::unique_ptr<Workload> make_serving_openloop(std::uint64_t seed) {
  return std::make_unique<ServingOpenloop>(seed);
}

}  // namespace cnpu::bench
