// Bitwise pins over throughput matching, evaluation and bounds.
//
// The other matching suites check tolerances and shapes. This one pins the
// exact float operations of the scheduling layer across a design grid:
// every dse_cold grid design (4/6/8/12 cameras x 3..8 x 3..8 Simba
// meshes), the three Table II stagewise monolithic baselines, the 36-chiplet
// front end, memory-bounded packages (so matching's capacity-aware branches
// run), one heterogeneous package with weight-stationary chiplets and the
// 2-NPU scale-out with its base (FE chain) split.
//
// Per design, a 64-bit FNV-1a digest folds the hexfloat text of every
// value the layer reports: each matching TraceStep (action, pipe, latbase,
// free chiplets), the final ScheduleMetrics (pipeline, per-stage and
// per-chiplet), every shard's chiplet and fraction, compute_bounds'
// latency bound and the frames=1 simulated first-frame latency. A change
// meant to keep results must pass this suite unedited. A mismatch prints
// the replacement table row; re-pin only for an intended change of results.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "arch/package.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/scaling.h"
#include "core/throughput_matching.h"
#include "sim/event_sim.h"
#include "workloads/autopilot.h"

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
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void add_metrics(Digest& d, const ScheduleMetrics& m) {
  d.add(m.e2e_s);
  d.add(m.pipe_s);
  d.add(m.energy_j());
  d.add(m.compute_energy_j);
  d.add(m.nop.latency_s);
  d.add(m.nop.energy_j);
  d.add(m.total_macs);
  d.add(m.utilization);
  for (const StageMetrics& s : m.stages) {
    d.add(s.name);
    d.add(s.e2e_s);
    d.add(s.pipe_s);
    d.add(s.compute_energy_j);
    d.add(s.nop.latency_s);
    d.add(s.nop.energy_j);
    d.add(s.chiplets_used);
  }
  for (const ChipletUsage& u : m.chiplets) {
    d.add(u.chiplet_id);
    d.add(u.busy_s);
    d.add(u.macs);
    d.add(u.energy_j);
    for (const double b : u.stage_busy_s) d.add(b);
  }
}

// Digest of one scheduled design: its matching trace (empty for the
// stagewise baselines), final metrics, placements, bound and simulated
// first frame.
std::uint64_t digest_of(const Schedule& s, const std::vector<TraceStep>& trace) {
  Digest d;
  for (const TraceStep& t : trace) {
    d.add(t.action);
    d.add(t.pipe_ms);
    d.add(t.latbase_ms);
    d.add(t.chiplets_free);
  }
  add_metrics(d, evaluate_schedule(s));
  for (int i = 0; i < s.num_items(); ++i) {
    for (const ShardAssignment& sh : s.placement(i).shards) {
      d.add(sh.chiplet_id);
      d.add(sh.fraction);
    }
  }
  SimOptions opt;
  opt.frames = 1;
  d.add(analysis::compute_bounds(s, opt).streams.front().latency_bound_s);
  d.add(simulate_schedule(s, opt).first_frame_latency_s);
  return d.value();
}

std::uint64_t matched_digest(const PerceptionPipeline& pipe,
                             const PackageConfig& pkg) {
  const MatchResult m = throughput_matching(pipe, pkg);
  return digest_of(m.schedule, m.trace);
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
    {"4cam 3x3", 0x8eb9cc031e3133f1ull},
    {"4cam 3x4", 0x291fef2a98510b72ull},
    {"4cam 3x5", 0x7c6a87a51dddb97eull},
    {"4cam 3x6", 0x69c479cb86f89fa5ull},
    {"4cam 3x7", 0xf32d275dd58c3e4full},
    {"4cam 3x8", 0x706128cf47e4cc8ull},
    {"4cam 4x3", 0xe42a320e55b136a4ull},
    {"4cam 4x4", 0x690b7726044c2cd9ull},
    {"4cam 4x5", 0xf6fcd1588845e5cbull},
    {"4cam 4x6", 0x9c195e3210c76664ull},
    {"4cam 4x7", 0x1b6a17ce823e2085ull},
    {"4cam 4x8", 0xee6498a512ba4144ull},
    {"4cam 5x3", 0x62b4f5cbc1c64edeull},
    {"4cam 5x4", 0x522c39cfe9b8e8acull},
    {"4cam 5x5", 0x3a31a436a832ec2ull},
    {"4cam 5x6", 0x76c8d10e14a4b381ull},
    {"4cam 5x7", 0x444374ff5a8b8b66ull},
    {"4cam 5x8", 0x806248d5acbe74d3ull},
    {"4cam 6x3", 0x2084d22838d6b36cull},
    {"4cam 6x4", 0x30caf529b6d2bfa1ull},
    {"4cam 6x5", 0x75154a0fde33d60dull},
    {"4cam 6x6", 0x467fad05b0aae109ull},
    {"4cam 6x7", 0x4c87109f409980f7ull},
    {"4cam 6x8", 0xab047c98e2b86771ull},
    {"4cam 7x3", 0xa369f69cbe716c32ull},
    {"4cam 7x4", 0x3abff312bc5ee03eull},
    {"4cam 7x5", 0xbcd3ec2cf6a69c71ull},
    {"4cam 7x6", 0x3a5cb788e8f55c5dull},
    {"4cam 7x7", 0xb20a9234598bad14ull},
    {"4cam 7x8", 0xd9a9769aa0cb23beull},
    {"4cam 8x3", 0xfb7ff970aa275eaeull},
    {"4cam 8x4", 0x9ab38983404aedfcull},
    {"4cam 8x5", 0xcfe5be4b408472a1ull},
    {"4cam 8x6", 0x9187ac0d1bc3a22full},
    {"4cam 8x7", 0x9e6e06ec2f619705ull},
    {"4cam 8x8", 0x558197830039283dull},
    {"6cam 3x3", 0x4d32f779fb5b72c5ull},
    {"6cam 3x4", 0xddc182884731ddbfull},
    {"6cam 3x5", 0x33b31e53d8795307ull},
    {"6cam 3x6", 0xc7110a55936debffull},
    {"6cam 3x7", 0x929220e27dd2c854ull},
    {"6cam 3x8", 0x61ce4c066f117b44ull},
    {"6cam 4x3", 0x3a5da36ca896171cull},
    {"6cam 4x4", 0x2a0c4f3e51a51189ull},
    {"6cam 4x5", 0xc0413a7e0826aa7bull},
    {"6cam 4x6", 0x893b73b54abc5b3bull},
    {"6cam 4x7", 0x6fa058a4eab2011aull},
    {"6cam 4x8", 0xc938e101c2db7f53ull},
    {"6cam 5x3", 0xb62f02a3c83d172aull},
    {"6cam 5x4", 0x3ffec42a5eddeea0ull},
    {"6cam 5x5", 0x367af4c70a1fb3c3ull},
    {"6cam 5x6", 0x3e7d888f883c315cull},
    {"6cam 5x7", 0x3b75e0dfa8487860ull},
    {"6cam 5x8", 0x7f32608efaddaf9dull},
    {"6cam 6x3", 0x4cce526cbda7b2e2ull},
    {"6cam 6x4", 0x3533e138986f2d54ull},
    {"6cam 6x5", 0xbd315cf35552e0afull},
    {"6cam 6x6", 0x83977695c619f0c4ull},
    {"6cam 6x7", 0x6efdc461810d2c44ull},
    {"6cam 6x8", 0xe3d46fa2668ca7cull},
    {"6cam 7x3", 0x49eebe936446ae68ull},
    {"6cam 7x4", 0x8dd47700d855d15aull},
    {"6cam 7x5", 0x189a5c7e89efd291ull},
    {"6cam 7x6", 0xc0f5f8d13d74db05ull},
    {"6cam 7x7", 0xf5e7be4f0d6d9054ull},
    {"6cam 7x8", 0x999a73fbfc3a7b1dull},
    {"6cam 8x3", 0x6b5d94e863ba6ecull},
    {"6cam 8x4", 0xf5c8b5903dbce9e0ull},
    {"6cam 8x5", 0x232209cd4f5a726full},
    {"6cam 8x6", 0xcba0ef8276847a61ull},
    {"6cam 8x7", 0x95aa4f8bd229e383ull},
    {"6cam 8x8", 0xd057858424320059ull},
    {"8cam 3x3", 0x365684269121e3a5ull},
    {"8cam 3x4", 0xe3b78b10437ca6dfull},
    {"8cam 3x5", 0xa9c733b8dc1881ull},
    {"8cam 3x6", 0x29b1bea40523426dull},
    {"8cam 3x7", 0xe6861bcb50353dfull},
    {"8cam 3x8", 0x45784b72c8b4c938ull},
    {"8cam 4x3", 0xe4dc8767fd094852ull},
    {"8cam 4x4", 0xc698e82d7cc69344ull},
    {"8cam 4x5", 0xe083d8de8d895531ull},
    {"8cam 4x6", 0x3e3414d8bb2d9d97ull},
    {"8cam 4x7", 0x9145cb4c025cf5f2ull},
    {"8cam 4x8", 0x1469563c3400a673ull},
    {"8cam 5x3", 0x79c77befac21ce90ull},
    {"8cam 5x4", 0x1a7dec410b2e3442ull},
    {"8cam 5x5", 0xd3b510efb94a17aull},
    {"8cam 5x6", 0x35948b433f36db2bull},
    {"8cam 5x7", 0xea7a67bb6341ccb4ull},
    {"8cam 5x8", 0xd1d65813fdc3ae6dull},
    {"8cam 6x3", 0x65e15cb61d7d2a51ull},
    {"8cam 6x4", 0x2dde9bebd293de9full},
    {"8cam 6x5", 0x32c43bd2519a8dd8ull},
    {"8cam 6x6", 0xb7c337326ef585d4ull},
    {"8cam 6x7", 0x65e83fc5da526bb4ull},
    {"8cam 6x8", 0xb790d85f5453f8bfull},
    {"8cam 7x3", 0x3f65b9492a65d7d1ull},
    {"8cam 7x4", 0x68d99508f6eb87a0ull},
    {"8cam 7x5", 0x4fcbd5301a068d1bull},
    {"8cam 7x6", 0xa10d3e728ebdcceull},
    {"8cam 7x7", 0x9d5889ea02626e5eull},
    {"8cam 7x8", 0x1541749d155c98c8ull},
    {"8cam 8x3", 0x6cc0ee890912b1c3ull},
    {"8cam 8x4", 0xc971140aa0f80d7bull},
    {"8cam 8x5", 0xf69c04a5135b98fdull},
    {"8cam 8x6", 0xc52999dc5bab6bd5ull},
    {"8cam 8x7", 0xee5a422075418e6eull},
    {"8cam 8x8", 0x6dbeca2fff226130ull},
    {"12cam 3x3", 0x8580a1f77a97ded8ull},
    {"12cam 3x4", 0xbf140481e9b436eaull},
    {"12cam 3x5", 0x3760c81afafef929ull},
    {"12cam 3x6", 0x65031104633e19d0ull},
    {"12cam 3x7", 0x41279f06d54cf94full},
    {"12cam 3x8", 0x68413c14e70918edull},
    {"12cam 4x3", 0x49439104cf20831aull},
    {"12cam 4x4", 0x79bf46cc0ab13152ull},
    {"12cam 4x5", 0x8391eee70290dffull},
    {"12cam 4x6", 0x9e55d546a5a72108ull},
    {"12cam 4x7", 0xf12241ea01c2a352ull},
    {"12cam 4x8", 0xd327b1d737398c29ull},
    {"12cam 5x3", 0xdaeb9dd2bad14104ull},
    {"12cam 5x4", 0x54adcf6e896d8d9cull},
    {"12cam 5x5", 0x5bdf36ddfc8b5394ull},
    {"12cam 5x6", 0x138e8e5abaae5766ull},
    {"12cam 5x7", 0xaa0806e0f6c1ef2aull},
    {"12cam 5x8", 0xb1ba6319fb471c53ull},
    {"12cam 6x3", 0xb2b865cbde8050a7ull},
    {"12cam 6x4", 0x1c0101013b3fe3f6ull},
    {"12cam 6x5", 0x6f2c24975e6a9d7ull},
    {"12cam 6x6", 0xb8cd3a17b0ae7548ull},
    {"12cam 6x7", 0x3c68b6b60ebb36b7ull},
    {"12cam 6x8", 0x4cacd1452429147full},
    {"12cam 7x3", 0x4c629aa8765cc64aull},
    {"12cam 7x4", 0xe69354e19313147ull},
    {"12cam 7x5", 0x52566a1dbf7bfce8ull},
    {"12cam 7x6", 0x21df8b43acbd94ccull},
    {"12cam 7x7", 0x386c94775ca4ad4bull},
    {"12cam 7x8", 0x9f7598efddcc0290ull},
    {"12cam 8x3", 0x7ca696272cb387ccull},
    {"12cam 8x4", 0x7da585d687fbb7b6ull},
    {"12cam 8x5", 0x200c8cf57e502a43ull},
    {"12cam 8x6", 0x1e67280a6aeb93efull},
    {"12cam 8x7", 0xbfca24b14507f71aull},
    {"12cam 8x8", 0x60f0a2c4a39e48d3ull},
};

TEST(MatchDigest, DseColdGrid) {
  ASSERT_EQ(kGridPins.size(), 144u);
  std::vector<PerceptionPipeline> pipes;
  for (const int cameras : {4, 6, 8, 12}) {
    AutopilotConfig cfg;
    cfg.num_cameras = cameras;
    pipes.push_back(build_autopilot_pipeline(cfg));
  }
  expect_pins(kGridPins, [&](int k) {
    const int cols = 3 + k % 6;
    const int rows = 3 + (k / 6) % 6;
    const PackageConfig pkg = make_simba_package(rows, cols);
    return matched_digest(pipes[static_cast<std::size_t>(k / 36)], pkg);
  });
}

TEST(MatchDigest, TableTwoBaselinesAndFront) {
  const std::vector<Pin> pins = {
      {"stagewise 1x9216", 0x8521ab22aad9597full},
      {"stagewise 2x4608", 0xfa611d204fdfff2aull},
      {"stagewise 4x2304", 0x51e10c04e9334f0eull},
      {"front 36x256 matched", 0xfe1a0d06e3b4477cull},
  };
  const PerceptionPipeline front = build_autopilot_front();
  expect_pins(pins, [&](int k) {
    if (k < 3) {
      const PackageConfig pkg = make_monolithic_package(1 << k);
      const Schedule s =
          build_baseline_schedule(front, pkg, PipelineMode::kStagewise);
      return digest_of(s, {});
    }
    return matched_digest(front, make_simba_package(6, 6));
  });
}

// Finite weight memory: the initial placement probes for room and every
// sharding step checks the target's residency. The calibrated memory fits
// the autopilot designs everywhere; the tight variants shrink the weight
// SRAM of every chiplet whose id is 1 mod `every`, so some targets are
// refused and the traces diverge from the unbounded ones.
TEST(MatchDigest, MemoryBoundedPackages) {
  struct Case {
    int cameras;
    int mesh;
    int every;  // 0: calibrated memory on every chiplet
    double tight_mib;
  };
  const std::vector<Case> cases = {
      {8, 6, 0, 0.0}, {8, 6, 2, 1.0}, {8, 8, 3, 0.25}, {12, 7, 4, 4.0}};
  const std::vector<Pin> pins = {
      {"8cam 6x6 calibrated", 0xb7c337326ef585d4ull},
      {"8cam 6x6 tight 1 MiB every 2nd", 0x65ca498c1605d291ull},
      {"8cam 8x8 tight 0.25 MiB every 3rd", 0xa603aafcfc680345ull},
      {"12cam 7x7 tight 4 MiB every 4th", 0x7e1a99e838a25a8aull},
  };
  ASSERT_EQ(pins.size(), cases.size());
  expect_pins(pins, [&](int k) {
    const Case& c = cases[static_cast<std::size_t>(k)];
    AutopilotConfig cfg;
    cfg.num_cameras = c.cameras;
    const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
    PackageConfig pkg = make_simba_package(c.mesh, c.mesh);
    pkg.set_memory(make_calibrated_memory());
    MemorySpec tight = make_calibrated_memory();
    tight.weight_capacity_bytes = c.tight_mib * 1024.0 * 1024.0;
    for (int id = 0; c.every > 0 && id < pkg.num_chiplets(); ++id) {
      if (id % c.every == 1) pkg.set_chiplet_memory(id, tight);
    }
    return matched_digest(pipe, pkg);
  });
}

// Weight-stationary chiplets in the east column: matching's rebalance
// splits rows by per-chiplet rate, so the shard fractions are uneven.
TEST(MatchDigest, HeterogeneousPackage) {
  const std::vector<Pin> pins = {
      {"8cam 6x6 ws east column", 0x6da033b3a0cee75aull},
  };
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  expect_pins(pins, [&](int) {
    PackageConfig pkg = make_simba_package(6, 6);
    for (int row = 0; row < 6; ++row) {
      pkg.set_chiplet_dataflow(row * 6 + 5, DataflowKind::kWeightStationary);
    }
    return matched_digest(pipe, pkg);
  });
}

// The 2-NPU scale-out (Fig. 10): explicit pools, a frozen trunk stage and
// allow_base_split, whose FE chain split is the one matching step that
// moves stage-0 items.
TEST(MatchDigest, ScaleOutTwoNpus) {
  const std::vector<Pin> pins = {
      {"2npu 72 chiplets base split", 0x2f56ff6cc1b56b5aull},
  };
  expect_pins(pins, [&](int) {
    const ScaleOutResult r = scale_out_two_npus();
    bool split = false;
    for (const TraceStep& t : r.match.trace) {
      split = split || t.action.rfind("split FE", 0) == 0;
    }
    EXPECT_TRUE(split) << "the scale-out run no longer splits the base stage";
    return digest_of(r.match.schedule, r.match.trace);
  });
}

}  // namespace
}  // namespace cnpu
