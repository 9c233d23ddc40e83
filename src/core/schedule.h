// Schedule IR: which chiplet(s) run each layer of the perception pipeline.
//
// A layer may be data-parallel sharded across several chiplets with
// per-chiplet work fractions (weights replicated on every shard). Chain
// models may additionally be pipeline-split by assigning consecutive layer
// ranges to different chiplets — that is just per-layer assignment here.
//
// Each shard is priced once, when it is placed: the schedule stores its
// compute cost next to it, and the evaluator, the bounds analyzer, the
// simulator's program compile and fault remapping all read that one number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/package.h"
#include "workloads/model.h"

namespace cnpu {

// Compute cost of one shard on its chiplet: analyze_layer of the shard's
// rows (shard_fraction) on that chiplet's PE array.
struct ShardCost {
  double latency_s = 0.0;
  double macs = 0.0;
  double energy_j = 0.0;
};

// One shard of one layer on one chiplet; `fraction` of the layer's token /
// output-row dim (fractions of a placement sum to 1). `slot` and `cost` are
// filled in by the Schedule that stores the shard; the values a caller
// passes in are replaced.
struct ShardAssignment {
  ShardAssignment() = default;
  ShardAssignment(int chiplet, double frac)
      : chiplet_id(chiplet), fraction(frac) {}

  int chiplet_id = -1;
  // Position of chiplet_id in package().chiplets(); -1 when the package has
  // no such chiplet, in which case the shard is unpriced.
  int slot = -1;
  double fraction = 1.0;
  ShardCost cost;
};

struct Placement {
  std::vector<ShardAssignment> shards;

  bool assigned() const { return !shards.empty(); }
  int num_shards() const { return static_cast<int>(shards.size()); }
  // The shard carrying the largest fraction (used for NoP hop estimates).
  int primary_chiplet() const;
  bool uses_chiplet(int chiplet_id) const;
};

class Schedule {
 public:
  // One schedulable unit: a (stage, model, layer) coordinate.
  struct Item {
    int stage = 0;
    int model = 0;
    int layer = 0;
    const LayerDesc* desc = nullptr;
    bool prefix = false;  // belongs to a stage prefix model
  };

  // `pipeline` and `package` must outlive the schedule. Shard costs are
  // priced against the package's chiplet arrays when each shard is placed,
  // so those arrays (set_chiplet_dataflow) must not change while a schedule
  // on the package is alive: configure the package first, then schedule.
  Schedule(const PerceptionPipeline& pipeline, const PackageConfig& package);

  const PerceptionPipeline& pipeline() const { return *pipeline_; }
  const PackageConfig& package() const { return *package_; }

  int num_items() const { return static_cast<int>(items_.size()); }
  const Item& item(int idx) const { return items_[static_cast<std::size_t>(idx)]; }
  const Placement& placement(int idx) const {
    return placements_[static_cast<std::size_t>(idx)];
  }

  // Item `idx`'s placement for a consumer of its shard costs. Throws
  // std::logic_error when the item is unassigned and std::out_of_range when
  // a shard names a chiplet the package lacks (never had, or lost to
  // without_chiplet): such a shard is stored unpriced, for the validator to
  // report as S003/S004.
  const Placement& priced(int idx) const;

  // Every assign_* / restore / clear call replaces the item's shards and
  // their stored costs. None of them throws for an absent chiplet.
  //
  // Whole layer on one chiplet.
  void assign(int idx, int chiplet_id);
  // Even data-parallel shard across `chiplets`.
  void assign_sharded(int idx, const std::vector<int>& chiplets);
  // Arbitrary weighted shards (fractions are normalized to sum to 1).
  void assign_weighted(int idx, std::vector<ShardAssignment> shards);
  // Deserialization restore: stores `shards` verbatim — no normalization, no
  // positivity check, empty means unassigned. Round-trips exported bundles
  // bitwise and lets the linter (src/analysis/validate.h) see malformed
  // placements exactly as they appeared on disk instead of a silently
  // repaired copy. Everything else should use the assign_* checked paths.
  void restore_placement(int idx, std::vector<ShardAssignment> shards);
  void clear_assignment(int idx);

  // Counts the changes to stage `stage`'s placements: every assign_*,
  // restore_placement and clear_assignment call on one of its items bumps
  // it. ScheduleEvaluator compares versions to find what changed.
  std::uint64_t stage_version(int stage) const {
    return stage_version_[static_cast<std::size_t>(stage)];
  }

  // Item indices of one stage / one model, in execution order.
  const std::vector<int>& items_of_model(int stage, int model) const;
  std::vector<int> items_of_stage(int stage) const;

  // Chiplet ids with no assigned work anywhere in the schedule.
  std::vector<int> free_chiplets() const;
  // Chiplet ids carrying at least one shard, in package order — the
  // complement of free_chiplets. The serving layer's partitioned-placement
  // isolation check compares these sets across tenants.
  std::vector<int> used_chiplets() const;
  bool fully_assigned() const;

  std::string describe() const;

 private:
  // Stores `shards` as item `idx`'s placement, pricing each one.
  void place(int idx, std::vector<ShardAssignment> shards);
  // Adds `delta` to slot_shards_ for each of item `idx`'s priced shards.
  void count_shards(int idx, int delta);
  // Package chiplet ids whose used-by-some-shard state equals `used`.
  std::vector<int> chiplets_in_use(bool used) const;

  const PerceptionPipeline* pipeline_;
  const PackageConfig* package_;
  std::vector<Item> items_;
  std::vector<Placement> placements_;
  // index_[stage][model] -> item indices
  std::vector<std::vector<std::vector<int>>> index_;
  std::vector<std::uint64_t> stage_version_;
  // Stored shards per package slot: a chiplet is in use while its count is
  // positive.
  std::vector<int> slot_shards_;
};

// LayerDesc for one weighted shard of `layer` (`fraction` of its rows).
LayerDesc shard_fraction(const LayerDesc& layer, double fraction);

// Cost of running `fraction` of `layer` on `array`: the price a Schedule
// stores for such a shard.
ShardCost price_shard(const LayerDesc& layer, double fraction,
                      const PeArrayConfig& array);

// The exact edge set the simulator wires (build_program in
// sim/event_sim.cc) and the analytical evaluator prices: camera ingress
// into every stage-0 model's first item, intra-model chain edges, stage
// prefix handoffs, and cross-stage gathers into the models that receive
// stage input. `ingress(item)` fires for each stage-0 model's first item
// (the payload is the camera frame — callers price kCameraInputBytes);
// `edge(producer, consumer, bytes)` fires for every inter-item edge with
// the payload bytes the producer emits. Enumeration order matches
// build_program so consumers see edges in runtime order — note it is NOT
// topological (a stage's prefix model may be enumerated after the models
// that consume its output).
template <typename IngressFn, typename EdgeFn>
void for_each_schedule_edge(const Schedule& s, IngressFn&& ingress,
                            EdgeFn&& edge) {
  const PerceptionPipeline& pipe = s.pipeline();
  for (int st = 0; st < pipe.num_stages(); ++st) {
    const Stage& stage = pipe.stages[static_cast<std::size_t>(st)];
    for (int mod = 0; mod < stage.num_models(); ++mod) {
      const StageModel& sm = stage.models[static_cast<std::size_t>(mod)];
      const std::vector<int>& items = s.items_of_model(st, mod);
      if (items.empty()) continue;
      if (st == 0) ingress(items.front());
      for (std::size_t li = 1; li < items.size(); ++li) {
        edge(items[li - 1], items[li],
             sm.model.layers[li - 1].output_bytes());
      }
      if (!sm.prefix) {
        for (int pm = 0; pm < stage.num_models(); ++pm) {
          if (!stage.models[static_cast<std::size_t>(pm)].prefix) continue;
          const std::vector<int>& pre = s.items_of_model(st, pm);
          if (!pre.empty()) {
            edge(pre.back(), items.front(),
                 stage.models[static_cast<std::size_t>(pm)].model
                     .output_bytes());
          }
        }
      }
      const bool receives_stage_input =
          sm.prefix || stage.prefix_models().empty();
      if (st > 0 && receives_stage_input) {
        const Stage& prev = pipe.stages[static_cast<std::size_t>(st - 1)];
        for (int pm = 0; pm < prev.num_models(); ++pm) {
          if (prev.models[static_cast<std::size_t>(pm)].prefix) continue;
          const std::vector<int>& src = s.items_of_model(st - 1, pm);
          if (!src.empty()) {
            edge(src.back(), items.front(),
                 prev.models[static_cast<std::size_t>(pm)].model
                     .output_bytes());
          }
        }
      }
    }
  }
}

}  // namespace cnpu
