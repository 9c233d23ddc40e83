#include "core/schedule.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "dataflow/cost_model.h"

namespace cnpu {

int Placement::primary_chiplet() const {
  int best = -1;
  double best_frac = -1.0;
  for (const auto& s : shards) {
    if (s.fraction > best_frac) {
      best_frac = s.fraction;
      best = s.chiplet_id;
    }
  }
  return best;
}

bool Placement::uses_chiplet(int chiplet_id) const {
  for (const auto& s : shards) {
    if (s.chiplet_id == chiplet_id) return true;
  }
  return false;
}

Schedule::Schedule(const PerceptionPipeline& pipeline,
                   const PackageConfig& package)
    : pipeline_(&pipeline), package_(&package) {
  index_.resize(pipeline.stages.size());
  for (std::size_t s = 0; s < pipeline.stages.size(); ++s) {
    const Stage& stage = pipeline.stages[s];
    index_[s].resize(stage.models.size());
    for (std::size_t m = 0; m < stage.models.size(); ++m) {
      const StageModel& sm = stage.models[m];
      for (std::size_t l = 0; l < sm.model.layers.size(); ++l) {
        Item it;
        it.stage = static_cast<int>(s);
        it.model = static_cast<int>(m);
        it.layer = static_cast<int>(l);
        it.desc = &sm.model.layers[l];
        it.prefix = sm.prefix;
        index_[s][m].push_back(static_cast<int>(items_.size()));
        items_.push_back(it);
      }
    }
  }
  placements_.resize(items_.size());
  stage_version_.assign(pipeline.stages.size(), 0);
  slot_shards_.assign(package.chiplets().size(), 0);
}

const Placement& Schedule::priced(int idx) const {
  const Placement& p = placements_[static_cast<std::size_t>(idx)];
  if (!p.assigned()) {
    throw std::logic_error("unassigned layer: " + item(idx).desc->name);
  }
  for (const auto& sh : p.shards) {
    if (sh.slot < 0) {
      throw std::out_of_range("no chiplet with id " +
                              std::to_string(sh.chiplet_id));
    }
  }
  return p;
}

void Schedule::place(int idx, std::vector<ShardAssignment> shards) {
  const LayerDesc& desc = *items_[static_cast<std::size_t>(idx)].desc;
  const std::vector<ChipletSpec>& specs = package_->chiplets();
  for (auto& sh : shards) {
    sh.slot = package_->slot_of(sh.chiplet_id);
    sh.cost = ShardCost{};
    if (sh.slot >= 0) {
      sh.cost = price_shard(desc, sh.fraction,
                            specs[static_cast<std::size_t>(sh.slot)].array);
    }
  }
  count_shards(idx, -1);
  placements_[static_cast<std::size_t>(idx)].shards = std::move(shards);
  count_shards(idx, +1);
  ++stage_version_[static_cast<std::size_t>(item(idx).stage)];
}

void Schedule::count_shards(int idx, int delta) {
  for (const auto& sh : placements_[static_cast<std::size_t>(idx)].shards) {
    if (sh.slot >= 0) slot_shards_[static_cast<std::size_t>(sh.slot)] += delta;
  }
}

void Schedule::assign(int idx, int chiplet_id) {
  assign_weighted(idx, {ShardAssignment{chiplet_id, 1.0}});
}

void Schedule::assign_sharded(int idx, const std::vector<int>& chiplets) {
  assert(!chiplets.empty());
  std::vector<ShardAssignment> shards;
  const double frac = 1.0 / static_cast<double>(chiplets.size());
  shards.reserve(chiplets.size());
  for (int c : chiplets) shards.push_back(ShardAssignment{c, frac});
  assign_weighted(idx, std::move(shards));
}

void Schedule::assign_weighted(int idx, std::vector<ShardAssignment> shards) {
  if (shards.empty()) throw std::invalid_argument("empty placement");
  double total = 0.0;
  for (const auto& s : shards) {
    if (s.fraction <= 0.0) throw std::invalid_argument("non-positive shard fraction");
    total += s.fraction;
  }
  for (auto& s : shards) s.fraction /= total;
  place(idx, std::move(shards));
}

void Schedule::restore_placement(int idx, std::vector<ShardAssignment> shards) {
  place(idx, std::move(shards));
}

void Schedule::clear_assignment(int idx) {
  count_shards(idx, -1);
  placements_[static_cast<std::size_t>(idx)].shards.clear();
  ++stage_version_[static_cast<std::size_t>(item(idx).stage)];
}

const std::vector<int>& Schedule::items_of_model(int stage, int model) const {
  return index_[static_cast<std::size_t>(stage)][static_cast<std::size_t>(model)];
}

std::vector<int> Schedule::items_of_stage(int stage) const {
  std::vector<int> out;
  for (const auto& model_items : index_[static_cast<std::size_t>(stage)]) {
    out.insert(out.end(), model_items.begin(), model_items.end());
  }
  return out;
}

std::vector<int> Schedule::chiplets_in_use(bool used) const {
  std::vector<int> out;
  for (std::size_t k = 0; k < slot_shards_.size(); ++k) {
    if ((slot_shards_[k] > 0) == used) {
      out.push_back(package_->chiplets()[k].id);
    }
  }
  return out;
}

std::vector<int> Schedule::free_chiplets() const {
  return chiplets_in_use(false);
}

std::vector<int> Schedule::used_chiplets() const {
  return chiplets_in_use(true);
}

bool Schedule::fully_assigned() const {
  return std::all_of(placements_.begin(), placements_.end(),
                     [](const Placement& p) { return p.assigned(); });
}

std::string Schedule::describe() const {
  int assigned = 0;
  for (const auto& p : placements_) assigned += p.assigned() ? 1 : 0;
  return std::to_string(assigned) + "/" + std::to_string(items_.size()) +
         " layers placed on " + package_->describe();
}

LayerDesc shard_fraction(const LayerDesc& layer, double fraction) {
  LayerDesc shard = layer;
  fraction = std::clamp(fraction, 0.0, 1.0);
  shard.y = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(static_cast<double>(layer.y) * fraction)));
  return shard;
}

ShardCost price_shard(const LayerDesc& layer, double fraction,
                      const PeArrayConfig& array) {
  const CostReport r = analyze_layer(shard_fraction(layer, fraction), array);
  return ShardCost{r.latency_s, r.macs, r.energy_j()};
}

}  // namespace cnpu
