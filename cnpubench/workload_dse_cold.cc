// dse_cold: one design priced from scratch per point, serially.
//
// A point builds the pipeline and package, schedules it (throughput
// matching, or stagewise pipelining for the Table II monolithic
// baselines), validates it, prices its static bounds, evaluates it, and
// simulates one frame on a fresh engine. See README.md.
#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/bounds.h"
#include "analysis/validate.h"
#include "bench.h"
#include "core/baselines.h"
#include "core/throughput_matching.h"
#include "dataflow/cost_model.h"
#include "exp/sweep_runner.h"
#include "workloads/autopilot.h"

namespace cnpu::bench {
namespace {

struct Design {
  enum class Kind { kMatched, kMatchedFront, kBaseline };
  Kind kind = Kind::kMatched;
  int cameras = 8;
  int rows = 6;
  int cols = 6;
  int chips = 1;  // kBaseline: monolithic dies splitting 9,216 PEs
};

// Everything one point builds; kept alive for the traced-only probes that
// follow the point.
struct PointState {
  std::optional<PerceptionPipeline> pipeline;
  std::optional<PackageConfig> package;
  std::optional<Schedule> schedule;
  SimEngine engine;
  SimResult result;
};

class DseCold final : public Workload {
 public:
  explicit DseCold(std::uint64_t seed) {
    // The four Table II designs and the canonical design come first; then
    // every (cameras, rows, cols) combination, drawn without replacement
    // in a seed-shuffled order. The list repeats once exhausted.
    designs_.push_back({Design::Kind::kMatched, 8, 6, 6, 1});
    for (const int chips : {1, 2, 4}) {
      designs_.push_back({Design::Kind::kBaseline, 8, 1, 1, chips});
    }
    designs_.push_back({Design::Kind::kMatchedFront, 8, 6, 6, 1});
    std::vector<Design> grid;
    for (const int cameras : {4, 6, 8, 12}) {
      for (int rows = 3; rows <= 8; ++rows) {
        for (int cols = 3; cols <= 8; ++cols) {
          grid.push_back({Design::Kind::kMatched, cameras, rows, cols, 1});
        }
      }
    }
    Rng rng(seed, 0xD5Eu);
    for (std::size_t i = grid.size(); i > 1; --i) {
      std::swap(grid[i - 1],
                grid[static_cast<std::size_t>(rng.range(0, static_cast<int>(i) - 1))]);
    }
    designs_.insert(designs_.end(), grid.begin(), grid.end());

    SimEngine engine;
    stream_ = canonical_stream_model(canonical_, seed, engine);

    // Warm-up: fault in code and allocator pages on the fixed designs.
    std::vector<double> ns(5);
    if (run_points(0, 5, nullptr, ns) != 0) {
      throw std::runtime_error("dse_cold: a warm-up design failed its checks");
    }
    tally_ = LayerTally{};
    e2e_gap_s_ = 0.0;
    e2e_gap_points_ = 0;
  }

  int batch() const override { return 8; }

  long finish(TraceSet*) override { return 0; }

  double model_p99_ms() const override { return stream_.p99_ms; }
  double model_max_fps() const override { return stream_.max_fps; }

  LayerTally tally() const override { return tally_; }

  LayerExtras layer_extras() const override {
    LayerExtras x;
    if (e2e_gap_points_ > 0) {
      x.e2e_gap_us = e2e_gap_s_ / static_cast<double>(e2e_gap_points_) * 1e6;
    }
    return x;
  }

  double parallel_efficiency() override {
    constexpr int kPoints = 48;
    const auto body = [this](int i) {
      double ns = 0.0;
      return run_design(i, nullptr, ns, /*tally=*/false) ? 0 : 1;
    };
    return parallel_efficiency_of(
        [&] { SweepRunner(SweepOptions{.threads = 1}).map(kPoints, body); },
        [&] { SweepRunner(SweepOptions{.threads = kThreads}).map(kPoints, body); });
  }

 protected:
  bool run_point(long i, Tracer* t, double& ns) override {
    return run_design(i, t, ns, /*tally=*/true);
  }

 private:
  // run_point(), with the point's per-layer tallies kept only when `tally`
  // is set. With a tracer, the traced-only probes (warm re-run,
  // analyze_layer re-pricing) follow the point.
  bool run_design(long i, Tracer* t, double& ns, bool tally) {
    const Design& d = designs_[static_cast<std::size_t>(i) % designs_.size()];
    PointState s;
    bool ok = true;
    double bound_s = 0.0;
    double e2e_s = 0.0;
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t wall0 = now_ns();
    {
      ScopedSpan root(t, "point", i);
      try {
        {
          ScopedSpan span(t, "workloads.build", i);
          if (d.kind == Design::Kind::kMatched) {
            AutopilotConfig cfg;
            cfg.num_cameras = d.cameras;
            s.pipeline.emplace(build_autopilot_pipeline(cfg));
          } else {
            s.pipeline.emplace(build_autopilot_front());
          }
        }
        {
          ScopedSpan span(t, "arch.package", i);
          s.package.emplace(d.kind == Design::Kind::kBaseline
                                ? make_monolithic_package(d.chips)
                                : make_simba_package(d.rows, d.cols));
        }
        if (d.kind == Design::Kind::kBaseline) {
          ScopedSpan span(t, "core.baseline", i);
          s.schedule.emplace(build_baseline_schedule(
              *s.pipeline, *s.package, PipelineMode::kStagewise));
        } else {
          ScopedSpan span(t, "core.match", i);
          MatchResult m = throughput_matching(*s.pipeline, *s.package);
          span.set_count(static_cast<double>(m.trace.size()));
          s.schedule.emplace(std::move(m.schedule));
        }
        SimOptions opt;
        opt.frames = 1;
        {
          ScopedSpan span(t, "analysis.validate", i);
          analysis::validate_or_throw(*s.schedule, opt);
        }
        {
          ScopedSpan span(t, "analysis.bounds", i);
          bound_s = analysis::compute_bounds(*s.schedule, opt)
                        .streams.front()
                        .latency_bound_s;
        }
        {
          ScopedSpan span(t, "core.eval", i);
          e2e_s = evaluate_schedule(*s.schedule).e2e_s;
        }
        {
          ScopedSpan span(t, "sim.cold_run", i);
          s.engine.run_into(*s.schedule, opt, s.result);
          span.set_count(s.result.tasks_executed);
        }
      } catch (const std::exception&) {
        ok = false;
      }
    }
    ns = static_cast<double>(process_cpu_ns() - cpu0);
    if (t != nullptr) t->set_point_host_ns(i, now_ns() - wall0);
    if (!ok) return false;

    // The static bound is sound: no simulated frame beats it.
    const double ffl = s.result.first_frame_latency_s;
    ok = bound_s <= ffl;
    // Evaluator E2E == simulated first frame, the documented contract for
    // uncongested chains (docs/METRICS.md): every stage of a stagewise
    // monolithic baseline is one chain on one die. Elsewhere the
    // evaluator's stage-synchronous E2E is a different closed form, so the
    // gap is measured (core.e2e_gap_us), not checked.
    if (d.kind == Design::Kind::kBaseline) {
      ok = ok && std::abs(e2e_s - ffl) <= 1e-9;
    } else if (tally) {
      e2e_gap_s_ += std::abs(e2e_s - ffl);
      ++e2e_gap_points_;
    }
    if (tally) tally_.add_sim(s.result);
    if (t != nullptr) ok = probe(i, t, s) && ok;
    return ok;
  }

  // Traced-only: a second run on the point's engine (the warm run, which
  // must not allocate) and the analyze_layer cost of the point's
  // (layer shard, chiplet array) pairs.
  bool probe(long i, Tracer* t, PointState& s) {
    ScopedSpan root(t, "probe", i);
    SimOptions opt;
    opt.frames = 1;
    std::uint64_t allocs = 0;
    {
      ScopedSpan span(t, "sim.warm_run", i);
      const std::uint64_t a0 = thread_allocs();
      s.engine.run_into(*s.schedule, opt, s.result);
      allocs = thread_allocs() - a0;
      span.set_count(s.result.tasks_executed);
    }
    tally_.warm_runs += 1.0;
    tally_.warm_run_allocs += static_cast<double>(allocs);

    std::vector<std::pair<LayerDesc, const PeArrayConfig*>> pairs;
    for (int item = 0; item < s.schedule->num_items(); ++item) {
      const LayerDesc& desc = *s.schedule->item(item).desc;
      for (const ShardAssignment& sh : s.schedule->placement(item).shards) {
        pairs.emplace_back(shard_fraction(desc, sh.fraction),
                           &s.package->chiplet(sh.chiplet_id).array);
      }
    }
    {
      ScopedSpan span(t, "dataflow.analyze_layer", i);
      double sink = 0.0;
      for (const auto& [layer, array] : pairs) {
        sink += analyze_layer(layer, *array).latency_s;
      }
      span.set_count(static_cast<double>(pairs.size()));
      sink_ += sink;
    }
    return allocs == 0;
  }

  StreamModel stream_;
  std::vector<Design> designs_;
  LayerTally tally_;
  double e2e_gap_s_ = 0.0;
  long e2e_gap_points_ = 0;
  double sink_ = 0.0;  // keeps the re-pricing results observable
};

}  // namespace

std::unique_ptr<Workload> make_dse_cold(std::uint64_t seed) {
  return std::make_unique<DseCold>(seed);
}

}  // namespace cnpu::bench
