// Schedule evaluator: turns a Schedule into the paper's metrics.
//
// Semantics (matching the paper's Figs. 5-8 / Table II accounting):
//  * item latency    - max over its shards of the shard's stored cost
//                      (analyze_layer on that chiplet, priced by Schedule)
//  * chiplet busy    - sum of its shard latencies (per frame)
//  * pipe latency    - max chiplet busy: the steady-state initiation
//                      interval of the software-pipelined stream
//  * stage E2E       - prefix chains + max parallel model chain (respecting
//                      chiplet contention) + NoP transfer edges
//  * pipeline E2E    - sum of stage E2Es + inter-stage NoP edges
//  * energy          - compute energy of all shards (weight replication
//                      included naturally) + NoP transfer energy
//  * EDP             - energy x pipe latency (J*ms)
//  * utilization     - total MACs / (PE-seconds of busy chiplets * freq)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/nop.h"
#include "core/schedule.h"
#include "dataflow/cost_model.h"

namespace cnpu {

struct ChipletUsage {
  int chiplet_id = -1;
  double busy_s = 0.0;
  double macs = 0.0;
  double energy_j = 0.0;
  // busy seconds broken down per stage index
  std::vector<double> stage_busy_s;
};

struct StageMetrics {
  std::string name;
  double e2e_s = 0.0;
  double pipe_s = 0.0;
  double compute_energy_j = 0.0;
  NopCost nop;
  int chiplets_used = 0;

  double energy_j() const { return compute_energy_j + nop.energy_j; }
  double edp_j_ms() const { return energy_j() * pipe_s * 1e3; }
};

struct ScheduleMetrics {
  std::vector<StageMetrics> stages;
  std::vector<ChipletUsage> chiplets;  // one per package chiplet
  double e2e_s = 0.0;
  double pipe_s = 0.0;
  double compute_energy_j = 0.0;
  NopCost nop;
  double total_macs = 0.0;

  double energy_j() const { return compute_energy_j + nop.energy_j; }
  double edp_j_ms() const { return energy_j() * pipe_s * 1e3; }
  // MACs / (PE-seconds across busy chiplets * frequency).
  double utilization = 0.0;
  int chiplets_used() const;
};

// Bytes one camera frame injects at the package I/O port (3 x 720 x 1280
// int8). Priced on every stage-0 ingress edge by both evaluate_schedule and
// simulate_schedule.
inline constexpr double kCameraInputBytes = 3.0 * 720.0 * 1280.0;

// Fraction-weighted mean NoP hops for a tensor produced by `from` (possibly
// sharded) and gathered by the primary chiplet of `to`. Never rounded: a
// sub-half-hop mean pays its proportional share (see docs/METRICS.md).
double gather_hops(const PackageConfig& pkg, const Placement& from,
                   const Placement& to);

// Cost of one schedule edge: `bytes` moved over the fractional gather hop
// count. The single shared implementation of the edge-delay formula — the
// analytical evaluator and the event simulator both call it, so the two
// can never drift apart again (PR 1 fixed a units bug that had diverged
// between their former private copies).
NopCost nop_gather_cost(const PackageConfig& pkg, const Placement& from,
                        const Placement& to, double bytes);

// Cost of one camera frame's ingress edge: kCameraInputBytes moved from the
// package I/O port to `chiplet_id`. Shared by the evaluator and the event
// simulator for the same never-drift-apart reason as nop_gather_cost.
NopCost nop_ingress_cost(const PackageConfig& pkg, int chiplet_id);

// Latency of one item under its placement (max across shards), seconds.
// Throws like Schedule::priced.
double item_latency_s(const Schedule& s, int item_idx);

// Evaluator of one schedule that re-evaluates only what changed. Each
// evaluate() compares the schedule's per-stage versions (Schedule::
// stage_version) with those of its last successful pass:
//  * pass 1 (chiplet busy/MACs/energy and the compute totals, running sums
//    in item order) resumes from the sums it saved at the first changed
//    stage's boundary — items are stage-major, so the result is bitwise
//    that of a full pass;
//  * pass 2 (chains, NoP edges, stage E2E and pipe) reruns for each changed
//    stage and the stage after it, whose input edges read it;
//  * the pipeline totals are summed again in stage order.
// The metrics therefore always equal a fresh evaluate_schedule bitwise.
//
// The evaluator is caller-owned and reads the schedule through a const
// reference: the schedule must outlive it and change only through its
// assign*/restore_placement/clear_assignment calls (assigning another
// Schedule object over it is not tracked). evaluate() throws what
// evaluate_schedule throws, and succeeds again once the schedule is fixed.
class ScheduleEvaluator {
 public:
  explicit ScheduleEvaluator(const Schedule& s);
  // A temporary schedule would die before the evaluator reads it.
  explicit ScheduleEvaluator(const Schedule&&) = delete;

  // Brings the metrics up to date with the schedule and returns them; the
  // reference stays valid, and tracks later calls, for the evaluator's life.
  const ScheduleMetrics& evaluate() &;
  // One-shot form, ScheduleEvaluator(s).evaluate(): moves the metrics out.
  ScheduleMetrics evaluate() &&;

 private:
  // Pass 1 over stage `st`'s items, adding to the running sums.
  void accumulate_stage(int st);
  // Pass 2 for stage `st`: its chains, NoP edges, E2E and pipe.
  void evaluate_stage(int st);
  // Running pass-1 sums saved before stage `st`'s items, and their restore.
  double* sums_of(int st);
  void save_sums(int st);
  void restore_sums(int st);

  const Schedule* s_;
  ScheduleMetrics m_;
  std::vector<double> item_lat_;
  // stage_begin_[st]..stage_begin_[st + 1]: stage st's item indices.
  std::vector<int> stage_begin_;
  // Per stage: chiplet busy, MACs and energy, then total MACs and compute
  // energy, as they stood before the stage's first item.
  std::vector<double> sums_;
  // Stage versions of the last successful pass; empty before the first.
  std::vector<std::uint64_t> seen_;
};

// ScheduleEvaluator(s).evaluate(). Throws like Schedule::priced for the
// first item it cannot price.
ScheduleMetrics evaluate_schedule(const Schedule& s);

}  // namespace cnpu
