// Whole-result regression pins over the simulator's option space.
//
// tests/test_sim.cc pins a score of hand-picked hexfloat values. This
// suite instead draws kConfigs seeded configurations that between them
// cover every regime the event loop has: single-tenant (implicit stream)
// and multi-tenant runs, analytical, contended and delay-free NoP,
// faults with and without recovery (with and without weight reload
// traffic), all three shed policies plus shed_expired, and closed-loop,
// periodic, Poisson, bursty and trace arrivals, on both small random
// pipelines and a throughput-matched autopilot design. Every result is
// folded into a 64-bit digest of the bit patterns of all its fields
// (frame completions and latencies, aggregate and per-tenant tails, link
// stats, counters), pinned together with its makespan as a hexfloat.
//
// The pins hold the exact float operations of the engine, so any change
// to the event loop that is meant to be behaviour-preserving must pass
// this suite unedited. Each configuration runs twice: one-shot through
// simulate_schedule, and on one engine shared by all configurations (the
// warm path, with cross-configuration pollution). A second table pins the
// events each configuration pops and its busy dispatches. Two further
// tests pin pipelines whose shard ready times tie chiplet completions to
// within kTimeEps, where the dispatch decision depends on which of two
// nearly equal instants is handled first, and a last one pins faults that
// revoke running tasks, whose completion events then surface stale. A
// mismatch prints the replacement table row; re-pin only for an intended
// change of results.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "arch/package.h"
#include "core/evaluator.h"
#include "core/throughput_matching.h"
#include "dataflow/cost_model.h"
#include "sim/event_sim.h"
#include "workloads/autopilot.h"
#include "workloads/model.h"

namespace cnpu {
namespace {

constexpr int kConfigs = 64;

// splitmix64: a self-contained generator, so the configurations do not
// depend on the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1p-53;
  }
  bool coin() { return (next() & 1u) != 0; }

 private:
  std::uint64_t state_;
};

// FNV-1a over the bit patterns of every field a run reports.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(const std::vector<double>& v) {
    add(static_cast<int>(v.size()));
    for (const double x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t digest_of(const SimResult& r) {
  Digest d;
  d.add(r.first_frame_latency_s);
  d.add(r.steady_interval_s);
  d.add(r.makespan_s);
  d.add(r.frame_completion_s);
  d.add(r.frame_latency_s);
  d.add(r.p50_latency_s);
  d.add(r.p95_latency_s);
  d.add(r.p99_latency_s);
  d.add(r.chiplet_busy_s);
  d.add(r.tasks_executed);
  d.add(r.frames_completed);
  d.add(r.dropped_frames);
  d.add(r.shed_frames);
  d.add(r.deadline_miss_frames);
  d.add(r.peak_latency_s);
  d.add(r.recovery_time_s);
  d.add(r.remapped_items);
  d.add(r.reload_bytes);
  d.add(r.reload_time_s);
  d.add(static_cast<int>(r.link_stats.size()));
  for (const LinkStats& l : r.link_stats) {
    d.add(static_cast<int>(l.link.kind));
    d.add(l.link.npu);
    d.add(l.link.npu_to);
    d.add(l.link.from.row);
    d.add(l.link.from.col);
    d.add(l.link.to.row);
    d.add(l.link.to.col);
    d.add(l.link.substrate_step);
    d.add(l.busy_s);
    d.add(l.utilization);
    d.add(l.max_queue_wait_s);
    d.add(l.total_queue_wait_s);
    d.add(l.messages);
  }
  d.add(static_cast<int>(r.tenants.size()));
  for (const TenantResult& t : r.tenants) {
    d.add(t.frames);
    d.add(t.frames_completed);
    d.add(t.dropped_frames);
    d.add(t.shed_frames);
    d.add(t.deadline_miss_frames);
    d.add(t.p50_latency_s);
    d.add(t.p95_latency_s);
    d.add(t.p99_latency_s);
    d.add(t.mean_latency_s);
    d.add(t.peak_latency_s);
    d.add(t.steady_interval_s);
    d.add(t.mean_queue_delay_s);
    d.add(t.peak_queue_delay_s);
    d.add(t.nop_wait_s);
    d.add(t.frame_completion_s);
    d.add(t.frame_latency_s);
  }
  return d.value();
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// The throughput-matched autopilot design on a 4x4 package, built once:
// its balanced stages put many shard ready times on the same instants as
// chiplet completions, the tie-breaking the random pipelines rarely hit.
struct MatchedDesign {
  PerceptionPipeline pipeline;
  PackageConfig package;
  std::unique_ptr<Schedule> schedule;
  ScheduleMetrics metrics;
};

const MatchedDesign& matched_design() {
  static const MatchedDesign* design = [] {
    auto* d = new MatchedDesign;
    AutopilotConfig cfg;
    cfg.num_cameras = 4;
    d->pipeline = build_autopilot_pipeline(cfg);
    d->package = make_simba_package(4, 4);
    MatchResult m = throughput_matching(d->pipeline, d->package);
    d->schedule = std::make_unique<Schedule>(std::move(m.schedule));
    d->metrics = m.metrics;
    return d;
  }();
  return *design;
}

// One seeded configuration: the package and pipelines it owns plus the
// options that reference them.
struct Config {
  std::string label;
  std::unique_ptr<PackageConfig> package;
  std::vector<std::unique_ptr<PerceptionPipeline>> pipes;
  std::vector<std::unique_ptr<Schedule>> schedules;
  const Schedule* primary = nullptr;
  SimOptions options;
};

// A random two-stage pipeline: one or two GEMM chains in stage 0 feeding
// a fusion chain in stage 1, each item on a random chiplet or sharded
// over two or three distinct ones.
const Schedule& random_schedule(Config& cfg, Rng& rng, int tag) {
  auto pipe = std::make_unique<PerceptionPipeline>();
  const auto chain = [&](const std::string& name, int layers) {
    Model m;
    m.name = name;
    for (int l = 0; l < layers; ++l) {
      m.layers.push_back(gemm(name + "_g" + std::to_string(l),
                              rng.range(512, 8192), rng.range(16, 128),
                              rng.range(16, 128)));
    }
    return m;
  };
  const std::string p = "d" + std::to_string(tag);
  Stage s0{"S0", {}};
  const int models = rng.range(1, 2);
  for (int m = 0; m < models; ++m) {
    s0.models.push_back({chain(p + "m" + std::to_string(m), rng.range(1, 3)),
                         false});
  }
  pipe->stages.push_back(s0);
  if (rng.coin()) {
    pipe->stages.push_back(
        Stage{"S1", {{chain(p + "f", rng.range(1, 2)), false}}});
  }
  const PackageConfig& pkg = *cfg.package;
  auto sched = std::make_unique<Schedule>(*pipe, pkg);
  const int n = pkg.num_chiplets();
  for (int i = 0; i < sched->num_items(); ++i) {
    const int shards = rng.range(0, 3) == 0 ? rng.range(2, std::min(3, n)) : 1;
    std::vector<int> ids;
    while (static_cast<int>(ids.size()) < shards) {
      const int id =
          pkg.chiplets()[static_cast<std::size_t>(rng.range(0, n - 1))].id;
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
    if (shards == 1) {
      sched->assign(i, ids.front());
    } else {
      sched->assign_sharded(i, ids);
    }
  }
  cfg.pipes.push_back(std::move(pipe));
  cfg.schedules.push_back(std::move(sched));
  return *cfg.schedules.back();
}

// Configuration k. The regime axes cycle with k (so every combination
// class is present at kConfigs = 64); magnitudes come from the seeded
// generator.
Config make_config(int k) {
  Rng rng(0xD16E57ull + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull);
  Config cfg;
  const bool matched = k % 8 == 7;
  const bool multi = k % 2 == 1;
  // nop: analytical, contended, delay-free. arrival: none, periodic,
  // Poisson, bursty, trace. shed: none, reject-new, drop-oldest,
  // drop-newest. fault: none, permanent, recovers.
  const int nop = (k / 2) % 3;
  const int arrival = k % 5;
  const int shed = (k / 5) % 4;
  const int fault = (k / 3) % 3;
  const bool reload = fault != 0 && rng.coin();

  if (matched) {
    cfg.package = std::make_unique<PackageConfig>(matched_design().package);
  } else {
    cfg.package = std::make_unique<PackageConfig>(
        make_simba_package(rng.range(2, 3), rng.range(2, 4)));
  }
  if (reload) {
    MemorySpec mem;
    mem.reload_bandwidth_bytes_per_s = rng.uniform(5e9, 5e10);
    if (rng.coin()) mem = make_calibrated_memory();
    cfg.package->set_memory(mem);
  }

  SimOptions& opt = cfg.options;
  opt.model_nop_delays = nop != 2;
  opt.nop_mode = nop == 1 ? NopMode::kContended : NopMode::kAnalytical;
  const int tenants = multi ? rng.range(2, 3) : 1;
  double period = 0.0;  // slowest tenant's isolated pipe interval
  double e2e = 0.0;
  std::vector<const Schedule*> scheds;
  for (int t = 0; t < tenants; ++t) {
    const Schedule* s = nullptr;
    if (matched) {
      // The matched design lives on its own package; re-home it.
      auto copy = std::make_unique<Schedule>(matched_design().pipeline,
                                             *cfg.package);
      const Schedule& src = *matched_design().schedule;
      for (int i = 0; i < src.num_items(); ++i) {
        copy->restore_placement(i, src.placement(i).shards);
      }
      cfg.schedules.push_back(std::move(copy));
      s = cfg.schedules.back().get();
    } else {
      s = &random_schedule(cfg, rng, t);
    }
    const ScheduleMetrics m = evaluate_schedule(*s);
    period = std::max(period, m.pipe_s);
    e2e = std::max(e2e, m.e2e_s);
    scheds.push_back(s);
  }
  cfg.primary = scheds.front();

  const int frames = matched ? rng.range(8, 16) : rng.range(6, 24);
  const auto stream = [&](int t, int frames_t, double& interval,
                          double& deadline, ArrivalSpec& arr,
                          AdmissionControl& adm) {
    interval = rng.range(0, 3) == 0 ? 0.0 : period * rng.uniform(0.3, 1.6);
    deadline = rng.coin() ? e2e * rng.uniform(1.0, 4.0) : 0.0;
    const int kind = t == 0 ? arrival : rng.range(0, 4);
    const double rate = rng.uniform(0.4, 3.0) / period;
    arr = ArrivalSpec{};
    if (kind == 1) {
      arr.kind = ArrivalKind::kPeriodic;
    } else if (kind == 2) {
      arr.kind = ArrivalKind::kPoisson;
    } else if (kind == 3) {
      arr.kind = ArrivalKind::kBursty;
      arr.on_mean_s = period * rng.uniform(1.0, 8.0);
      arr.off_mean_s = period * rng.uniform(1.0, 8.0);
      arr.off_scale = rng.coin() ? 0.0 : 0.25;
    } else if (kind == 4) {
      arr.kind = ArrivalKind::kTrace;
      double at = 0.0;
      for (int f = 0; f < frames_t; ++f) {
        arr.trace_s.push_back(at);
        // Zero gaps put several admissions on one instant.
        if (rng.range(0, 3) != 0) at += period * rng.uniform(0.0, 2.0);
      }
    }
    if (arr.kind != ArrivalKind::kTrace && arr.active()) {
      arr.rate_fps = rate;
      arr.seed = rng.next() % 100000u;
    }
    const int policy = t == 0 ? shed : rng.range(0, 3);
    adm = AdmissionControl{};
    if (policy != 0) {
      adm.queue_capacity = rng.range(1, 4);
      adm.policy = policy == 1   ? ShedPolicy::kRejectNew
                   : policy == 2 ? ShedPolicy::kDropOldest
                                 : ShedPolicy::kDropNewest;
    }
    if (deadline > 0.0 && rng.coin()) adm.shed_expired = true;
  };

  if (multi) {
    const int pol = rng.range(0, 2);
    opt.policy = pol == 0   ? PlacementPolicy::kShared
                 : pol == 1 ? PlacementPolicy::kPartitioned
                            : PlacementPolicy::kPriority;
    for (int t = 0; t < tenants; ++t) {
      TenantStream ts;
      ts.name = "t" + std::to_string(t);
      ts.schedule = scheds[static_cast<std::size_t>(t)];
      ts.frames = t == 0 ? frames : rng.range(4, 16);
      ts.priority = rng.range(0, 2);
      stream(t, ts.frames, ts.frame_interval_s, ts.deadline_s, ts.arrivals,
             ts.admission);
      opt.tenants.push_back(ts);
    }
  } else {
    opt.frames = frames;
    stream(0, frames, opt.frame_interval_s, opt.deadline_s, opt.arrivals,
           opt.admission);
  }

  if (fault != 0) {
    const PackageConfig& pkg = *cfg.package;
    int victim = -1;
    while (victim < 0) {
      const ChipletSpec& c = pkg.chiplets()[static_cast<std::size_t>(
          rng.range(0, pkg.num_chiplets() - 1))];
      if (!pkg.io_port_attached_to(c.id)) victim = c.id;
    }
    opt.fault.chiplet_id = victim;
    const double span = std::max(period, opt.frame_interval_s) * frames;
    // One fault in four lands exactly on a closed-loop admission instant.
    const bool on_admission =
        rng.range(0, 3) == 0 && opt.frame_interval_s > 0.0;
    opt.fault.fail_time_s =
        on_admission ? opt.frame_interval_s * rng.range(0, frames / 2)
                     : span * rng.uniform(0.0, 0.6);
    opt.fault.reschedule_penalty_s =
        rng.coin() ? 0.0 : period * rng.uniform(0.0, 0.5);
    if (fault == 2) {
      opt.fault.recover_time_s =
          opt.fault.fail_time_s + span * rng.uniform(0.0, 0.4);
    }
  }

  cfg.label = "config " + std::to_string(k) + (matched ? " matched" : "") +
              (multi ? " tenants=" + std::to_string(tenants) : " single") +
              " nop=" + std::to_string(nop) +
              " arrival=" + std::to_string(arrival) +
              " shed=" + std::to_string(shed) +
              " fault=" + std::to_string(fault) + (reload ? " reload" : "");
  return cfg;
}

struct Pin {
  int config;
  std::uint64_t digest;
  const char* makespan;
};

// Generated by this suite; see the header comment before editing.
constexpr Pin kPins[] = {
    {0, 0x6806369d6b0ef59bull, "0x1.e10e63d37be85p-9"},
    {1, 0x698c45fceca7b826ull, "0x1.8ad00cbaaa19fp-8"},
    {2, 0xabca5b5edb5c05baull, "0x1.6abf228423941p-8"},
    {3, 0x3eec94ece1c457c4ull, "0x1.88c2c90f9d2a3p-7"},
    {4, 0x1b07797ce0a63026ull, "0x1.92b8c5ca7d876p-8"},
    {5, 0xf7ddfe4c7b533310ull, "0x1.23a1c837c9b82p-9"},
    {6, 0x4716b7286b255163ull, "0x1.b88f27de0f95dp-11"},
    {7, 0x7b41392e4aa48a80ull, "0x1.5075f5c578d44p+3"},
    {8, 0x838c6cda75725ed9ull, "0x1.67eecdc390b29p-9"},
    {9, 0xb7e2d5abcbe56f0bull, "0x1.16ebf460ae335p-8"},
    {10, 0x2c19ee8d477e565aull, "0x1.82a57d3561e5ep-9"},
    {11, 0xe3f76dca5a8382aeull, "0x1.0731303e0be63p-8"},
    {12, 0xfc5a149c8264d38bull, "0x1.07328c0aa4719p-9"},
    {13, 0x6707bf26b6a9c994ull, "0x1.1456cfff2a954p-9"},
    {14, 0x5b08f369c68a9960ull, "0x1.bb463709e3e47p-10"},
    {15, 0x73da396eb64c276aull, "0x1.88e49dc1e662p+3"},
    {16, 0xf7afea6e96b9fc15ull, "0x1.4050d52d317e6p-10"},
    {17, 0x87b8e82448828009ull, "0x1.e64444509cfa6p-8"},
    {18, 0x94d0cd3b017f43a8ull, "0x1.2563b7f7d101dp-5"},
    {19, 0xe4bb389dd4420fdcull, "0x1.b91c4fe9d6432p-9"},
    {20, 0x9f93acfd1089525dull, "0x1.3805ef8aa1f29p-8"},
    {21, 0x8ff07d820c41f9afull, "0x1.14eca694ad9ccp-8"},
    {22, 0x0b18d4ae2c7cbf70ull, "0x1.1fbd931404b31p-9"},
    {23, 0xd289741870eb7089ull, "0x1.79f5410a51a7cp+3"},
    {24, 0x5a64ebd79da7c05dull, "0x1.144e40bbb71b7p-9"},
    {25, 0x29d39f6cd98bed88ull, "0x1.7efd6c3c872e5p-9"},
    {26, 0xe5e88b57bb30d58bull, "0x1.ebd555b637589p-11"},
    {27, 0x879cb465982c9f1eull, "0x1.02c8a90620354p-7"},
    {28, 0xcab453310c889cf0ull, "0x1.02c9babadd87fp-7"},
    {29, 0xb305c738599a1304ull, "0x1.02f55d5294eebp-8"},
    {30, 0xf3149a72491f707full, "0x1.38f0125518679p-10"},
    {31, 0x4bccecd1f29e4931ull, "0x1.83dda39cb8a2ep+3"},
    {32, 0x8aea7037c3e30ee1ull, "0x1.192d23478a07fp-7"},
    {33, 0x528a9933da18522cull, "0x1.b15414efa3724p-5"},
    {34, 0x186c23ba33e78d16ull, "0x1.a17688bff2426p-8"},
    {35, 0xb8aad91c39a93e04ull, "0x1.bf20edaccab02p-10"},
    {36, 0x4672814c20171b1bull, "0x1.501a8f06bac1ep-10"},
    {37, 0xd4faa4eee415fd4eull, "0x1.1098298e5b3a2p-9"},
    {38, 0x9a53b059023b0492ull, "0x1.93f449b2de64p-10"},
    {39, 0x18485be4d183b045ull, "0x1.90cf121fad54p+3"},
    {40, 0x60ee9543330995deull, "0x1.2f44571b353fep-9"},
    {41, 0x728030c606f59ddfull, "0x1.f45a97aae0958p-9"},
    {42, 0x2671d2bf9af5ab74ull, "0x1.f9cb98bca37cbp-8"},
    {43, 0xc83d82d7c8db0267ull, "0x1.0d353ee1ec91fp-7"},
    {44, 0x8f7427a253787273ull, "0x1.73baa62382a1dp-8"},
    {45, 0x6bb247775bc44a4cull, "0x1.a9fbac534395ap-10"},
    {46, 0x619dad293212fc23ull, "0x1.067926e599239p-8"},
    {47, 0xce08ba60c7f4fd49ull, "0x1.5c5827d22733fp+3"},
    {48, 0xd09f5ff9670e511eull, "0x1.d30dbae3982fcp-11"},
    {49, 0xf1ca49f995033990ull, "0x1.a67b0e4fe61bcp-10"},
    {50, 0xc0d969f1abc7f5dcull, "0x1.1b5c3266651a4p-11"},
    {51, 0x700441cfc5fd22f7ull, "0x1.ffd5a9d4a73fbp-8"},
    {52, 0xd59a04bbcfa33bb2ull, "0x1.db5682e2f7a79p-10"},
    {53, 0xc0d312a37e619bc6ull, "0x1.869ad347a1ecap-9"},
    {54, 0xd3e635173e324d16ull, "0x1.ff6ea293c6ffap-12"},
    {55, 0x4dd9554d828b384eull, "0x1.5158bf67de3d2p+3"},
    {56, 0x08cc85f8fc11619eull, "0x1.741238f92e1c2p-10"},
    {57, 0x112e38c175e56214ull, "0x1.d4bb0fc3db1c7p-7"},
    {58, 0x9c345a0f2576f8b8ull, "0x1.13ef7a6d8fecdp-9"},
    {59, 0x2c215dd1072c711full, "0x1.a018765910e31p-9"},
    {60, 0x9e21016d0ab62eebull, "0x1.8b4d619b50f1ap-10"},
    {61, 0xe0ab753d5c915966ull, "0x1.33297b272252ep-8"},
    {62, 0x1bb77448536f4831ull, "0x1.805f946f57b78p-10"},
    {63, 0xe003820f1cd63621ull, "0x1.183fcac833e2bp+3"},
};

TEST(SimDigest, SeededConfigurationsMatchPinnedResults) {
  ASSERT_EQ(std::size(kPins), static_cast<std::size_t>(kConfigs))
      << "pin table incomplete";
  // The engine caches programs by schedule address, so every
  // configuration stays alive for the engine's lifetime.
  std::vector<Config> configs;
  for (int k = 0; k < kConfigs; ++k) configs.push_back(make_config(k));
  SimEngine engine;
  SimResult warm;
  for (int k = 0; k < kConfigs; ++k) {
    const Config& cfg = configs[static_cast<std::size_t>(k)];
    SCOPED_TRACE(cfg.label);
    const SimResult fresh = simulate_schedule(*cfg.primary, cfg.options);
    engine.run_into(*cfg.primary, cfg.options, warm);
    const std::uint64_t got = digest_of(fresh);
    const Pin& pin = kPins[k];
    char row[160];
    std::snprintf(row, sizeof(row), "    {%d, 0x%016llxull, \"%s\"},", k,
                  static_cast<unsigned long long>(got),
                  hexfloat(fresh.makespan_s).c_str());
    EXPECT_EQ(pin.config, k);
    EXPECT_EQ(got, pin.digest) << "pin row: " << row;
    EXPECT_EQ(hexfloat(fresh.makespan_s), pin.makespan);
    EXPECT_EQ(digest_of(warm), got) << "warm engine diverged from one-shot";
  }
}

// The event-loop work of each seeded configuration: EngineStats' events
// popped and busy dispatches for one run, pinned exactly. A change that
// keeps the pop sequence (a different event container, a merged queue)
// keeps these counts; one that drops or adds events must re-pin them.
struct CountPin {
  int config;
  long long events;
  long long busy;
};

// Generated by this suite; see the header comment before editing.
constexpr CountPin kCountPins[] = {
    {0, 217, 0},
    {1, 339, 2},
    {2, 144, 0},
    {3, 308, 3},
    {4, 470, 3},
    {5, 225, 3},
    {6, 113, 0},
    {7, 20616, 8},
    {8, 221, 2},
    {9, 309, 7},
    {10, 81, 0},
    {11, 448, 0},
    {12, 65, 1},
    {13, 96, 2},
    {14, 198, 0},
    {15, 30670, 1},
    {16, 186, 1},
    {17, 450, 5},
    {18, 698, 2},
    {19, 288, 3},
    {20, 328, 0},
    {21, 418, 5},
    {22, 284, 1},
    {23, 25741, 4},
    {24, 273, 2},
    {25, 225, 1},
    {26, 125, 4},
    {27, 475, 0},
    {28, 318, 0},
    {29, 468, 0},
    {30, 111, 0},
    {31, 27368, 13},
    {32, 471, 7},
    {33, 584, 14},
    {34, 461, 2},
    {35, 259, 7},
    {36, 267, 0},
    {37, 245, 6},
    {38, 55, 1},
    {39, 26771, 10},
    {40, 147, 1},
    {41, 516, 5},
    {42, 183, 0},
    {43, 644, 5},
    {44, 188, 0},
    {45, 178, 0},
    {46, 255, 0},
    {47, 20252, 0},
    {48, 83, 2},
    {49, 144, 1},
    {50, 42, 0},
    {51, 375, 4},
    {52, 72, 2},
    {53, 307, 6},
    {54, 132, 0},
    {55, 19474, 0},
    {56, 99, 0},
    {57, 393, 1},
    {58, 88, 2},
    {59, 392, 6},
    {60, 146, 0},
    {61, 531, 6},
    {62, 132, 2},
    {63, 15800, 0},
};

TEST(SimDigest, SeededConfigurationsPopPinnedEventCounts) {
  ASSERT_EQ(std::size(kCountPins), static_cast<std::size_t>(kConfigs))
      << "pin table incomplete";
  std::vector<Config> configs;
  for (int k = 0; k < kConfigs; ++k) configs.push_back(make_config(k));
  SimEngine shared;
  SimResult out;
  for (int k = 0; k < kConfigs; ++k) {
    const Config& cfg = configs[static_cast<std::size_t>(k)];
    SCOPED_TRACE(cfg.label);
    SimEngine fresh;
    fresh.run_into(*cfg.primary, cfg.options, out);
    const EngineStats before = shared.stats();
    shared.run_into(*cfg.primary, cfg.options, out);
    const EngineStats& one = fresh.stats();
    const CountPin& pin = kCountPins[k];
    char row[96];
    std::snprintf(row, sizeof(row), "    {%d, %lld, %lld},", k,
                  one.events_processed, one.busy_dispatches);
    EXPECT_EQ(pin.config, k);
    EXPECT_EQ(one.events_processed, pin.events) << "pin row: " << row;
    EXPECT_EQ(one.busy_dispatches, pin.busy) << "pin row: " << row;
    EXPECT_EQ(shared.stats().events_processed - before.events_processed,
              pin.events)
        << "warm engine diverged from one-shot";
    EXPECT_EQ(shared.stats().busy_dispatches - before.busy_dispatches,
              pin.busy)
        << "warm engine diverged from one-shot";
  }
}

// Balanced chains: a two-stage GEMM pipeline whose layer costs make many
// shard ready times land within an ulp of the completion of the task
// ahead of them on the same chiplet — the kTimeEps window in which the
// dispatch decision depends on which of two nearly equal instants is
// handled first. One digest per package folds 24 runs: three placements,
// two stream lengths, burst and periodic admission, both NoP modes.
struct BalancedPin {
  int rows;
  int cols;
  std::uint64_t digest;
};

constexpr BalancedPin kBalancedPins[] = {
    {1, 2, 0x239c33a1349efa4bull},
    {1, 3, 0x3ad9f74fae1e26c1ull},
    {1, 4, 0xea90fd689d1f22d4ull},
    {2, 2, 0x2f4c600208864511ull},
    {2, 3, 0x9b0c7f6745debee3ull},
    {2, 4, 0xa32c6ea3cd5088a3ull},
};

TEST(SimDigest, BalancedChainsMatchPinnedResults) {
  PerceptionPipeline pipe;
  Model a;
  a.name = "A";
  a.layers = {gemm("a0", 4096, 64, 64), gemm("a1", 2048, 64, 64)};
  Model b;
  b.name = "B";
  b.layers = {gemm("b0", 4096, 64, 64)};
  pipe.stages.push_back(Stage{"S0", {{a, false}}});
  pipe.stages.push_back(Stage{"S1", {{b, false}}});

  ASSERT_EQ(std::size(kBalancedPins), 6u) << "pin table incomplete";
  for (const BalancedPin& pin : kBalancedPins) {
    const PackageConfig pkg = make_simba_package(pin.rows, pin.cols);
    Digest d;
    for (int offset = 0; offset < 3; ++offset) {
      Schedule sched(pipe, pkg);
      for (int i = 0; i < sched.num_items(); ++i) {
        sched.assign(i, (i + offset) % pkg.num_chiplets());
      }
      for (const int frames : {8, 16}) {
        for (const double interval : {0.0, 5e-5}) {
          for (const NopMode mode :
               {NopMode::kAnalytical, NopMode::kContended}) {
            SimOptions opt;
            opt.frames = frames;
            opt.frame_interval_s = interval;
            opt.nop_mode = mode;
            d.add(digest_of(simulate_schedule(sched, opt)));
          }
        }
      }
    }
    EXPECT_EQ(d.value(), pin.digest)
        << "pin row: {" << pin.rows << ", " << pin.cols << ", 0x" << std::hex
        << d.value() << "ull},";
  }
}

// Identical-layer pipelines: every layer of a configuration shares one
// GEMM shape (or half of it), so ready times and completions coincide in
// exact arithmetic across chiplets and differ by ulps in floating point,
// while closed-loop overload, bursts and two-tenant sharing build
// per-chiplet backlogs. Shards that become ready within kTimeEps of a
// completion then sit behind other pending shards, not only at the front
// of a chiplet's queue. One digest folds kPerPin configurations.
struct IdenticalPin {
  int first;
  std::uint64_t digest;
};

constexpr int kPerPin = 20;
constexpr IdenticalPin kIdenticalPins[] = {
    {0, 0x21edef7584ef54b4ull},
    {20, 0x9b20db7f86e92375ull},
    {40, 0x5cb07dee0217780eull},
    {60, 0xea23d3f47320ea84ull},
    {80, 0xe4739c25db62d9bfull},
    {100, 0xeec987b18ecd98cdull},
    {120, 0x2567c0580013bc30ull},
    {140, 0xbe0bc7af5c487175ull},
};

SimResult run_identical_layers(int k) {
  Rng rng(0x1D3A7ull + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull);
  const PackageConfig pkg =
      make_simba_package(rng.range(1, 3), rng.range(2, 4));
  const int m = rng.range(512, 4096);
  const int kk = rng.range(16, 128);
  PerceptionPipeline pipe;
  Stage s0{"S0", {}};
  const int models = rng.range(1, 3);
  for (int mi = 0; mi < models; ++mi) {
    Model md;
    md.name = "m" + std::to_string(mi);
    const int layers = rng.range(1, 4);
    for (int l = 0; l < layers; ++l) {
      md.layers.push_back(gemm(md.name + "g" + std::to_string(l),
                               rng.coin() ? m : m / 2, kk, kk));
    }
    s0.models.push_back({md, false});
  }
  pipe.stages.push_back(s0);
  if (rng.coin()) {
    Model f;
    f.name = "f";
    f.layers = {gemm("f0", m, kk, kk)};
    pipe.stages.push_back(Stage{"S1", {{f, false}}});
  }
  Schedule sched(pipe, pkg);
  const int n = pkg.num_chiplets();
  for (int i = 0; i < sched.num_items(); ++i) {
    const int a = rng.range(0, n - 1);
    if (rng.range(0, 3) == 0) {
      const int b = (a + rng.range(1, n - 1)) % n;
      sched.assign_sharded(i, {pkg.chiplets()[static_cast<std::size_t>(a)].id,
                               pkg.chiplets()[static_cast<std::size_t>(b)].id});
    } else {
      sched.assign(i, pkg.chiplets()[static_cast<std::size_t>(a)].id);
    }
  }
  const double service =
      analyze_layer(gemm("x", m, kk, kk), pkg.chiplets().front().array)
          .latency_s;
  SimOptions opt;
  opt.frames = rng.range(8, 48);
  const int load = rng.range(0, 3);  // burst, 2x overload, matched, half load
  opt.frame_interval_s = load == 0 ? 0.0 : service * 0.5 * load;
  opt.nop_mode = rng.coin() ? NopMode::kContended : NopMode::kAnalytical;
  opt.model_nop_delays = rng.range(0, 3) != 0;
  if (rng.coin()) {
    opt.policy =
        rng.coin() ? PlacementPolicy::kPriority : PlacementPolicy::kShared;
    for (int t = 0; t < 2; ++t) {
      TenantStream ts;
      ts.name = t == 0 ? "a" : "b";
      ts.schedule = &sched;
      ts.frames = opt.frames;
      ts.frame_interval_s = opt.frame_interval_s * (t + 1);
      ts.priority = t;
      opt.tenants.push_back(ts);
    }
  }
  return simulate_schedule(sched, opt);
}

TEST(SimDigest, IdenticalLayerPipelinesMatchPinnedResults) {
  ASSERT_EQ(std::size(kIdenticalPins), 8u) << "pin table incomplete";
  for (const IdenticalPin& pin : kIdenticalPins) {
    Digest d;
    for (int k = pin.first; k < pin.first + kPerPin; ++k) {
      d.add(digest_of(run_identical_layers(k)));
    }
    EXPECT_EQ(d.value(), pin.digest)
        << "pin row: {" << pin.first << ", 0x" << std::hex << d.value()
        << "ull},";
  }
}

// Faults that land while tasks are in flight. Every layer shares one GEMM
// shape of service time s and items are not sharded, so with NoP delays
// off every admission, start and completion sits on a multiple of s, and
// a fail time of (j + frac) * s revokes each running task with exactly
// (1 - frac) * s of service left. The reschedule penalty is drawn shorter
// than that remainder (the revoked task's completion dispatch pops after
// the resume, on a live chiplet) or longer (it pops before the resume and
// finds the chiplet stalled). With NoP delays on, the same draws land near
// those instants instead. The axes cycle with k: one or two tenants,
// recovery, weight reload traffic and the penalty side. Each digest folds
// kStalePerPin runs together with their EngineStats event counts, and
// every run repeats on one shared engine, which must agree bit for bit.
struct StalePin {
  int first;
  std::uint64_t digest;
};

constexpr int kStalePerPin = 16;
constexpr StalePin kStalePins[] = {
    {0, 0x48b5c6018b1d2a76ull},
    {16, 0x9d4c4ec8c101f4a6ull},
    {32, 0xf301c9f5991b437aull},
    {48, 0x00f21b565a08836bull},
};

// A stale-finish configuration: the schedule it runs and its options.
struct StaleConfig {
  std::unique_ptr<PackageConfig> package;
  std::unique_ptr<PerceptionPipeline> pipe;
  std::unique_ptr<Schedule> schedule;
  SimOptions options;
};

StaleConfig make_stale_config(int k) {
  Rng rng(0x57A1Eull + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull);
  const bool two_tenants = k % 2 == 1;
  const bool recovers = (k / 2) % 2 == 1;
  const bool reload = (k / 4) % 2 == 1;
  const bool longer = (k / 8) % 2 == 1;
  StaleConfig cfg;
  cfg.package = std::make_unique<PackageConfig>(
      make_simba_package(rng.range(2, 3), rng.range(2, 3)));
  PackageConfig& pkg = *cfg.package;
  if (reload) {
    MemorySpec mem;
    mem.reload_bandwidth_bytes_per_s = rng.uniform(5e9, 5e10);
    if (rng.coin()) mem = make_calibrated_memory();
    pkg.set_memory(mem);
  }
  const int m = rng.range(512, 4096);
  const int kk = rng.range(16, 128);
  cfg.pipe = std::make_unique<PerceptionPipeline>();
  Stage s0{"S0", {}};
  const int models = rng.range(1, 3);
  for (int mi = 0; mi < models; ++mi) {
    Model md;
    md.name = "m" + std::to_string(mi);
    const int layers = rng.range(1, 3);
    for (int l = 0; l < layers; ++l) {
      md.layers.push_back(gemm(md.name + "g" + std::to_string(l), m, kk, kk));
    }
    s0.models.push_back({md, false});
  }
  cfg.pipe->stages.push_back(s0);
  if (rng.coin()) {
    Model f;
    f.name = "f";
    f.layers = {gemm("f0", m, kk, kk)};
    cfg.pipe->stages.push_back(Stage{"S1", {{f, false}}});
  }
  cfg.schedule = std::make_unique<Schedule>(*cfg.pipe, pkg);
  const int n = pkg.num_chiplets();
  for (int i = 0; i < cfg.schedule->num_items(); ++i) {
    cfg.schedule->assign(
        i, pkg.chiplets()[static_cast<std::size_t>(rng.range(0, n - 1))].id);
  }
  const double s =
      analyze_layer(gemm("x", m, kk, kk), pkg.chiplets().front().array)
          .latency_s;

  SimOptions& opt = cfg.options;
  const int nop = rng.range(0, 3);  // delays off twice as often
  opt.model_nop_delays = nop >= 2;
  opt.nop_mode = nop == 3 ? NopMode::kContended : NopMode::kAnalytical;
  const int frames = rng.range(6, 24);
  if (two_tenants) {
    opt.policy =
        rng.coin() ? PlacementPolicy::kPriority : PlacementPolicy::kShared;
    for (int t = 0; t < 2; ++t) {
      TenantStream ts;
      ts.name = t == 0 ? "a" : "b";
      ts.schedule = cfg.schedule.get();
      ts.frames = t == 0 ? frames : rng.range(4, 16);
      ts.frame_interval_s = s * rng.range(0, 2);
      ts.priority = t;
      opt.tenants.push_back(ts);
    }
  } else {
    opt.frames = frames;
    opt.frame_interval_s = s * rng.range(0, 2);
  }

  int victim = -1;
  while (victim < 0) {
    const ChipletSpec& c =
        pkg.chiplets()[static_cast<std::size_t>(rng.range(0, n - 1))];
    if (!pkg.io_port_attached_to(c.id)) victim = c.id;
  }
  const double frac = rng.uniform(0.25, 0.75);
  const double left = (1.0 - frac) * s;
  opt.fault.chiplet_id = victim;
  opt.fault.fail_time_s = (rng.range(1, frames / 2) + frac) * s;
  opt.fault.reschedule_penalty_s =
      longer ? left * rng.uniform(1.25, 3.0) : left * rng.uniform(0.0, 0.75);
  if (recovers) {
    opt.fault.recover_time_s =
        opt.fault.fail_time_s + s * rng.uniform(0.5, 4.0);
  }
  return cfg;
}

TEST(SimDigest, FaultsOverInFlightTasksMatchPinnedResults) {
  ASSERT_EQ(std::size(kStalePins), 4u) << "pin table incomplete";
  // Every configuration outlives the shared engine's program cache.
  std::vector<StaleConfig> configs;
  for (int k = 0; k < kStalePerPin * 4; ++k) {
    configs.push_back(make_stale_config(k));
  }
  SimEngine shared;
  SimResult warm;
  for (const StalePin& pin : kStalePins) {
    Digest d;
    for (int k = pin.first; k < pin.first + kStalePerPin; ++k) {
      SCOPED_TRACE("stale config " + std::to_string(k));
      const StaleConfig& cfg = configs[static_cast<std::size_t>(k)];
      SimEngine fresh;
      SimResult one;
      fresh.run_into(*cfg.schedule, cfg.options, one);
      shared.run_into(*cfg.schedule, cfg.options, warm);
      const std::uint64_t got = digest_of(one);
      d.add(got);
      d.add(static_cast<std::uint64_t>(fresh.stats().events_processed));
      d.add(static_cast<std::uint64_t>(fresh.stats().busy_dispatches));
      EXPECT_EQ(digest_of(warm), got) << "warm engine diverged from one-shot";
    }
    EXPECT_EQ(d.value(), pin.digest)
        << "pin row: {" << pin.first << ", 0x" << std::hex << d.value()
        << "ull},";
  }
}

}  // namespace
}  // namespace cnpu
