// Bitwise pins over compute_bounds.
//
// test_match_digest pins the latency bound of each matched design; this
// suite pins everything else a BoundsReport carries, in its emitted order:
// every StreamBound field, every LinkBound (link, bytes per frame, demand,
// capacity, utilization, verdict) in NopLink order, every ChipletBound in
// package order, the uniform-rate bound and the residency verdict.
//
// Designs: the 144 dse_cold grid designs (4/6/8/12 cameras x 3..8 x 3..8
// Simba meshes), each bounded twice — under the dse_cold point's options
// (frames=1, analytical NoP) and as a 30 fps contended stream, so link
// demand, capacity and the uniform-rate bound are non-trivial — the four
// Table II designs, bench_openloop's 4-tenant fleet under partitioned and
// shared placement with contended NoP, and a matched design on a package
// that lost a chiplet (ids no longer dense). A change meant to keep
// results must pass this suite unedited. A mismatch prints the replacement
// table row; re-pin only for an intended change of results.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "arch/package.h"
#include "core/baselines.h"
#include "core/partition.h"
#include "core/throughput_matching.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

// FNV-1a over the text of every value, doubles as "%a" hexfloats.
class Digest {
 public:
  void add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
    h_ ^= 0xFFu;  // field separator
    h_ *= 0x100000001B3ull;
  }
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    add(std::string(buf));
  }
  void add(int v) { add(std::to_string(v)); }
  void add(bool v) { add(std::string(v ? "T" : "F")); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void add_report(Digest& d, const analysis::BoundsReport& r) {
  d.add(static_cast<int>(r.streams.size()));
  for (const analysis::StreamBound& s : r.streams) {
    d.add(s.name);
    d.add(s.locus);
    d.add(s.latency_bound_s);
    d.add(s.rate_fps);
    d.add(s.rate_known);
    d.add(s.deadline_s);
    d.add(s.deadline_infeasible);
    d.add(s.bytes_per_frame);
  }
  d.add(static_cast<int>(r.links.size()));
  for (const analysis::LinkBound& l : r.links) {
    d.add(l.link.describe());
    d.add(l.bytes_per_frame);
    d.add(l.demand_bytes_per_s);
    d.add(l.capacity_bytes_per_s);
    d.add(l.utilization);
    d.add(l.oversubscribed);
  }
  d.add(static_cast<int>(r.chiplets.size()));
  for (const analysis::ChipletBound& c : r.chiplets) {
    d.add(c.chiplet_id);
    d.add(c.busy_s_per_frame);
    d.add(c.demand);
    d.add(c.oversubscribed);
  }
  d.add(r.uniform_rate_bound_fps);
  d.add(r.residency_checked);
  d.add(r.residency_checked && r.residency.overflow);
}

// The dse_cold point's options, then a 30 fps contended stream.
std::uint64_t schedule_digest(const Schedule& s) {
  Digest d;
  SimOptions point;
  point.frames = 1;
  add_report(d, analysis::compute_bounds(s, point));
  SimOptions contended;
  contended.nop_mode = NopMode::kContended;
  contended.frame_interval_s = 1.0 / 30.0;
  contended.deadline_s = 0.1;
  add_report(d, analysis::compute_bounds(s, contended));
  return d.value();
}

struct Pin {
  const char* name;
  std::uint64_t digest;
};

// Compares each design's digest against its pin, printing a replacement
// row for every mismatch.
void expect_pins(const std::vector<Pin>& pins,
                 const std::function<std::uint64_t(int)>& digest_at) {
  for (std::size_t k = 0; k < pins.size(); ++k) {
    const std::uint64_t got = digest_at(static_cast<int>(k));
    EXPECT_EQ(got, pins[k].digest)
        << "replacement row: {\"" << pins[k].name << "\", 0x" << std::hex
        << got << "ull},";
  }
}

// The dse_cold grid, in (cameras, rows, cols) order.
const std::vector<Pin> kGridPins = {
    {"4cam 3x3", 0xd0a8ff3378fe519ull},
    {"4cam 3x4", 0xe5594ab23f2ee964ull},
    {"4cam 3x5", 0x5de852309bba8179ull},
    {"4cam 3x6", 0x233d9d75cc0900c7ull},
    {"4cam 3x7", 0xc053c829ea678e48ull},
    {"4cam 3x8", 0xbd3ab69667092b9full},
    {"4cam 4x3", 0x469e1c639026c1eull},
    {"4cam 4x4", 0x49df38c7265f1657ull},
    {"4cam 4x5", 0x16277c038165bfe6ull},
    {"4cam 4x6", 0x494f07ba802baccdull},
    {"4cam 4x7", 0xe46611148d377f60ull},
    {"4cam 4x8", 0xa71afb8a0f707f12ull},
    {"4cam 5x3", 0x97366832bc67f90ull},
    {"4cam 5x4", 0x559648d0c2672de4ull},
    {"4cam 5x5", 0xb69611e9e49291efull},
    {"4cam 5x6", 0x2d1e3e5b546696d4ull},
    {"4cam 5x7", 0x1d87557315c79d6cull},
    {"4cam 5x8", 0xabe9844c52671ec4ull},
    {"4cam 6x3", 0xc883dbbc065f9a9ull},
    {"4cam 6x4", 0x466dae336d035d4aull},
    {"4cam 6x5", 0xe3c74df2049a9977ull},
    {"4cam 6x6", 0x8bcdc163b21163a5ull},
    {"4cam 6x7", 0x8793efd129a2290full},
    {"4cam 6x8", 0xe96dbf07f5a34e63ull},
    {"4cam 7x3", 0x3c409b7b19700a39ull},
    {"4cam 7x4", 0xcf7720fd097129d8ull},
    {"4cam 7x5", 0x604c1d2ff5342650ull},
    {"4cam 7x6", 0xb4846cc993142d07ull},
    {"4cam 7x7", 0x6acd0969c355dda0ull},
    {"4cam 7x8", 0xe23d1899a2ce1855ull},
    {"4cam 8x3", 0xd76924004a17fa72ull},
    {"4cam 8x4", 0x4bd4f1dd20548db9ull},
    {"4cam 8x5", 0xbc4b6bf74f6ca9a9ull},
    {"4cam 8x6", 0xe2b177159db8fcd5ull},
    {"4cam 8x7", 0xb694e3576eb82c72ull},
    {"4cam 8x8", 0xc0653b6946e90dddull},
    {"6cam 3x3", 0xf1fb5c3d15200aacull},
    {"6cam 3x4", 0x6a6d8bc28fc65d36ull},
    {"6cam 3x5", 0xba441f9c427ab29full},
    {"6cam 3x6", 0xabacf1e13e038938ull},
    {"6cam 3x7", 0x72a82b5b49547ad9ull},
    {"6cam 3x8", 0xce9f82c92d59c274ull},
    {"6cam 4x3", 0xea709a9c9ee95436ull},
    {"6cam 4x4", 0xf9a8898880625748ull},
    {"6cam 4x5", 0x7444a2b57cff9223ull},
    {"6cam 4x6", 0x297b5acc66084d00ull},
    {"6cam 4x7", 0x554fdc82a2817c60ull},
    {"6cam 4x8", 0xb3376b05ef0cc35aull},
    {"6cam 5x3", 0x5f4dbb6e09d5b5bfull},
    {"6cam 5x4", 0x1ce93c7669757655ull},
    {"6cam 5x5", 0x3caf91bb16dcf77dull},
    {"6cam 5x6", 0x38ce68eee3618cb2ull},
    {"6cam 5x7", 0xef64971d75742819ull},
    {"6cam 5x8", 0x88ff087dcc91cdf2ull},
    {"6cam 6x3", 0x7998953e0fad3408ull},
    {"6cam 6x4", 0xbc8d7783a2fa1ea5ull},
    {"6cam 6x5", 0xf22568204509ff93ull},
    {"6cam 6x6", 0x9a09bd7a17266c8cull},
    {"6cam 6x7", 0xdae9d047299b580eull},
    {"6cam 6x8", 0x61ed2901d3347dadull},
    {"6cam 7x3", 0x3138a59836efbe4bull},
    {"6cam 7x4", 0xe81aee88528fc915ull},
    {"6cam 7x5", 0x913e40abb16d3277ull},
    {"6cam 7x6", 0x7a078c10000c70a0ull},
    {"6cam 7x7", 0x58f52a65e760e125ull},
    {"6cam 7x8", 0x2f2e46cef66caf39ull},
    {"6cam 8x3", 0x7e9580475e032f65ull},
    {"6cam 8x4", 0x8ce28c68fa0d8e38ull},
    {"6cam 8x5", 0x960b306b7d90c7a3ull},
    {"6cam 8x6", 0x25c4816ce041376ull},
    {"6cam 8x7", 0x5fee8ed705a6a47full},
    {"6cam 8x8", 0xd12b9ef5ef9a8638ull},
    {"8cam 3x3", 0x9113718f0651c640ull},
    {"8cam 3x4", 0xbcd69685c2d032dcull},
    {"8cam 3x5", 0xc5a42d6a9f3aaed5ull},
    {"8cam 3x6", 0xafcf1baff015a718ull},
    {"8cam 3x7", 0xee146437cf5f515dull},
    {"8cam 3x8", 0x75e72ff9dde17f46ull},
    {"8cam 4x3", 0x1e2b1da09e657f29ull},
    {"8cam 4x4", 0x1be0290492048c81ull},
    {"8cam 4x5", 0x6566c1e924506a31ull},
    {"8cam 4x6", 0x46b00e7b917ef155ull},
    {"8cam 4x7", 0x3dfdb0124be19ac4ull},
    {"8cam 4x8", 0x4583081f8b76bb43ull},
    {"8cam 5x3", 0xb6fb30eb64ff531dull},
    {"8cam 5x4", 0x308173317d6475f5ull},
    {"8cam 5x5", 0x34212851d2dab52bull},
    {"8cam 5x6", 0x203bd62846858fb5ull},
    {"8cam 5x7", 0xefda3755ebcb399aull},
    {"8cam 5x8", 0x9e1baa36e3ac8475ull},
    {"8cam 6x3", 0x17c81f3d64e8fdb3ull},
    {"8cam 6x4", 0xb46c1a7174e887f0ull},
    {"8cam 6x5", 0x1865109261fe059dull},
    {"8cam 6x6", 0xcd462bc4fe01d959ull},
    {"8cam 6x7", 0x210cf943dfae6f35ull},
    {"8cam 6x8", 0x29e5d809b842b891ull},
    {"8cam 7x3", 0x67051d13d024dbb4ull},
    {"8cam 7x4", 0x7a6def0ef5f12b8full},
    {"8cam 7x5", 0xdd7b3fd4fbfff725ull},
    {"8cam 7x6", 0xba189d52afc550cfull},
    {"8cam 7x7", 0x2ae01648f4158a2ull},
    {"8cam 7x8", 0x51f6ce2b469673a9ull},
    {"8cam 8x3", 0xdfa4f7f35add3db1ull},
    {"8cam 8x4", 0x1896fa93b099e3f2ull},
    {"8cam 8x5", 0x486455c136b2e980ull},
    {"8cam 8x6", 0x4562718deca5e5f3ull},
    {"8cam 8x7", 0xa52cf22380185b05ull},
    {"8cam 8x8", 0xbb47ec879b1371bcull},
    {"12cam 3x3", 0x2153da84851d33f4ull},
    {"12cam 3x4", 0xdeef7e222899b91ull},
    {"12cam 3x5", 0xbcc8f0cab88efc58ull},
    {"12cam 3x6", 0xc041e2defab3132bull},
    {"12cam 3x7", 0x2104a7ac1d32b634ull},
    {"12cam 3x8", 0x691eaabd6724e5ddull},
    {"12cam 4x3", 0x3769103a36ec3a15ull},
    {"12cam 4x4", 0xa60e8e09e1bdb070ull},
    {"12cam 4x5", 0x12c786a907e5c5d9ull},
    {"12cam 4x6", 0xe83f3478e06d84b7ull},
    {"12cam 4x7", 0x3235805189bd192aull},
    {"12cam 4x8", 0xe261129e0907f494ull},
    {"12cam 5x3", 0x9f0ea51a501eb3c5ull},
    {"12cam 5x4", 0x15f13cbc67315e43ull},
    {"12cam 5x5", 0xa45981b85cf9f2d6ull},
    {"12cam 5x6", 0x91fc3f9e30f185f7ull},
    {"12cam 5x7", 0x99cca1f70d293fd7ull},
    {"12cam 5x8", 0xbc982c02fbcbc251ull},
    {"12cam 6x3", 0x7a832a4cabb4e053ull},
    {"12cam 6x4", 0xbcda5ce198a6264bull},
    {"12cam 6x5", 0x924de9aa1c86290ull},
    {"12cam 6x6", 0x82d57f3f20959184ull},
    {"12cam 6x7", 0xb978ca90a44f2031ull},
    {"12cam 6x8", 0x9b5e89ccf2b22c8dull},
    {"12cam 7x3", 0xeb9e08dc63c56cdfull},
    {"12cam 7x4", 0xf3b61b96afafac59ull},
    {"12cam 7x5", 0xd8dff80aed57c61aull},
    {"12cam 7x6", 0x6ebca5b1eec6310ull},
    {"12cam 7x7", 0x9d06838e29b3656dull},
    {"12cam 7x8", 0x27aa37be35603c80ull},
    {"12cam 8x3", 0x739aad9e6869e64bull},
    {"12cam 8x4", 0x46787b185cbcf9f8ull},
    {"12cam 8x5", 0xc70cacec6674f919ull},
    {"12cam 8x6", 0xe0ab43a820623aa7ull},
    {"12cam 8x7", 0xa8bea162c3eebc1full},
    {"12cam 8x8", 0x8da14d4a1d8ab29bull},
};

TEST(BoundsDigest, DseColdGrid) {
  ASSERT_EQ(kGridPins.size(), 144u);
  expect_pins(kGridPins, [](int k) {
    AutopilotConfig cfg;
    constexpr int kCameras[] = {4, 6, 8, 12};
    cfg.num_cameras = kCameras[k / 36];
    const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
    const PackageConfig pkg = make_simba_package(3 + k % 36 / 6, 3 + k % 6);
    return schedule_digest(throughput_matching(pipe, pkg).schedule);
  });
}

TEST(BoundsDigest, TableTwoDesigns) {
  const std::vector<Pin> pins = {
      {"stagewise 1x9216", 0xab9c7a8e8d51ebf2ull},
      {"stagewise 2x4608", 0x59e0ff98605d6213ull},
      {"stagewise 4x2304", 0x56467cfb0320d2e7ull},
      {"front 36x256 matched", 0xcf8cbf7949be2000ull},
  };
  const PerceptionPipeline front = build_autopilot_front();
  expect_pins(pins, [&](int k) {
    if (k < 3) {
      const PackageConfig pkg = make_monolithic_package(1 << k);
      return schedule_digest(
          build_baseline_schedule(front, pkg, PipelineMode::kStagewise));
    }
    const PackageConfig pkg = make_simba_package(6, 6);
    return schedule_digest(throughput_matching(front, pkg).schedule);
  });
}

// bench_openloop's fleet: four 3-camera fault-probe tenants on a 4x4
// package, Poisson arrivals at 1.5x a quadrant's saturation rate, a
// deadline of four steady intervals and drop-oldest shedding.
TEST(BoundsDigest, OpenLoopFleet) {
  const std::vector<Pin> pins = {
      {"4 tenants partitioned contended", 0x7b1732b24570d8ddull},
      {"4 tenants shared contended", 0x5e9e9739969358f6ull},
  };
  const PackageConfig pkg = make_simba_package(4, 4);
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  const auto pools = partition_tenant_pools(pkg, 4);
  SimOptions burst;
  burst.frames = 8;
  const double healthy =
      simulate_schedule(build_pool_schedule(pipe, pkg, pools.front(), 0),
                        burst)
          .steady_interval_s;
  std::vector<TenantWorkload> fleet;
  for (int t = 0; t < 4; ++t) {
    TenantWorkload w;
    w.name = "cam" + std::to_string(t);
    w.pipeline = &pipe;
    w.frames = 32;
    w.deadline_s = healthy * 4.0;
    w.arrivals.kind = ArrivalKind::kPoisson;
    w.arrivals.rate_fps = 1.5 / healthy;
    w.arrivals.seed = 1000u + static_cast<std::uint64_t>(t);
    w.admission.queue_capacity = 4;
    w.admission.policy = ShedPolicy::kDropOldest;
    fleet.push_back(w);
  }
  expect_pins(pins, [&](int k) {
    ServingOptions opt;
    opt.policy = k == 0 ? PlacementPolicy::kPartitioned
                        : PlacementPolicy::kShared;
    opt.nop_mode = NopMode::kContended;
    const analysis::BoundsReport r = analysis::compute_bounds(pkg, fleet, opt);
    EXPECT_EQ(r.streams.size(), 4u);
    EXPECT_FALSE(r.links.empty());
    Digest d;
    add_report(d, r);
    return d.value();
  });
}

// A package that lost chiplet 14: ids are no longer dense, and routes
// detour around the dead router.
TEST(BoundsDigest, DegradedPackage) {
  const std::vector<Pin> pins = {
      {"8cam 6x6 without 14", 0x66caea57a92c1842ull},
  };
  expect_pins(pins, [](int) {
    const PerceptionPipeline pipe = build_autopilot_pipeline();
    const PackageConfig pkg = make_simba_package(6, 6).without_chiplet(14);
    return schedule_digest(throughput_matching(pipe, pkg).schedule);
  });
}

}  // namespace
}  // namespace cnpu
