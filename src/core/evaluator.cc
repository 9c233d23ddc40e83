#include "core/evaluator.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace cnpu {
namespace {

// Fractional hops: rounding the fraction-weighted mean would zero the NoP
// cost of any sharded producer whose mean hop count is below 0.5.
NopCost edge_cost(const PackageConfig& pkg, double bytes, double hops) {
  return nop_transfer(pkg.nop(), bytes, hops);
}

}  // namespace

double gather_hops(const PackageConfig& pkg, const Placement& from,
                   const Placement& to) {
  const int dst = to.primary_chiplet();
  double hops = 0.0;
  for (const auto& s : from.shards) {
    hops += s.fraction * pkg.hops_between(s.chiplet_id, dst);
  }
  return hops;
}

NopCost nop_gather_cost(const PackageConfig& pkg, const Placement& from,
                        const Placement& to, double bytes) {
  return edge_cost(pkg, bytes, gather_hops(pkg, from, to));
}

NopCost nop_ingress_cost(const PackageConfig& pkg, int chiplet_id) {
  return edge_cost(pkg, kCameraInputBytes, pkg.hops_from_io(chiplet_id));
}

double item_latency_s(const Schedule& s, int item_idx) {
  double latency = 0.0;
  for (const auto& shard : s.priced(item_idx).shards) {
    latency = std::max(latency, shard.cost.latency_s);
  }
  return latency;
}

ScheduleEvaluator::ScheduleEvaluator(const Schedule& s) : s_(&s) {
  const PackageConfig& pkg = s.package();
  const std::size_t num_stages =
      static_cast<std::size_t>(s.pipeline().num_stages());
  const std::size_t num_chiplets = pkg.chiplets().size();
  m_.stages.resize(num_stages);
  for (std::size_t st = 0; st < num_stages; ++st) {
    m_.stages[st].name = s.pipeline().stages[st].name;
  }
  m_.chiplets.resize(num_chiplets);
  for (std::size_t c = 0; c < num_chiplets; ++c) {
    m_.chiplets[c].chiplet_id = pkg.chiplets()[c].id;
    m_.chiplets[c].stage_busy_s.assign(num_stages, 0.0);
  }
  item_lat_.assign(static_cast<std::size_t>(s.num_items()), 0.0);
  // Items are stage-major: per-stage counts, then their running sum.
  stage_begin_.assign(num_stages + 1, 0);
  for (int i = 0; i < s.num_items(); ++i) {
    ++stage_begin_[static_cast<std::size_t>(s.item(i).stage) + 1];
  }
  std::partial_sum(stage_begin_.begin(), stage_begin_.end(),
                   stage_begin_.begin());
  sums_.assign(num_stages * (3 * num_chiplets + 2), 0.0);
}

double* ScheduleEvaluator::sums_of(int st) {
  return sums_.data() +
         static_cast<std::size_t>(st) * (3 * m_.chiplets.size() + 2);
}

void ScheduleEvaluator::save_sums(int st) {
  double* out = sums_of(st);
  for (const ChipletUsage& u : m_.chiplets) {
    *out++ = u.busy_s;
    *out++ = u.macs;
    *out++ = u.energy_j;
  }
  *out++ = m_.total_macs;
  *out = m_.compute_energy_j;
}

void ScheduleEvaluator::restore_sums(int st) {
  const double* in = sums_of(st);
  for (ChipletUsage& u : m_.chiplets) {
    u.busy_s = *in++;
    u.macs = *in++;
    u.energy_j = *in++;
  }
  m_.total_macs = *in++;
  m_.compute_energy_j = *in;
}

// Pass 1: stored shard costs -> chiplet usage + compute energy. A shard's
// slot is its chiplet's position in the package, so it indexes m_.chiplets
// directly.
void ScheduleEvaluator::accumulate_stage(int st) {
  const Schedule& s = *s_;
  const std::size_t stage = static_cast<std::size_t>(st);
  for (ChipletUsage& u : m_.chiplets) u.stage_busy_s[stage] = 0.0;
  StageMetrics& sm = m_.stages[stage];
  sm.compute_energy_j = 0.0;
  for (int i = stage_begin_[stage]; i < stage_begin_[stage + 1]; ++i) {
    double lat = 0.0;
    for (const auto& shard : s.priced(i).shards) {
      const ShardCost& r = shard.cost;
      lat = std::max(lat, r.latency_s);
      ChipletUsage& u = m_.chiplets[static_cast<std::size_t>(shard.slot)];
      u.busy_s += r.latency_s;
      u.stage_busy_s[stage] += r.latency_s;
      u.macs += r.macs;
      u.energy_j += r.energy_j;
      m_.total_macs += r.macs;
      m_.compute_energy_j += r.energy_j;
      sm.compute_energy_j += r.energy_j;
    }
    item_lat_[static_cast<std::size_t>(i)] = lat;
  }
}

// Pass 2: chain E2Es + NoP edges.
void ScheduleEvaluator::evaluate_stage(int st) {
  const Schedule& s = *s_;
  const PerceptionPipeline& pipe = s.pipeline();
  const PackageConfig& pkg = s.package();
  const Stage& stage = pipe.stages[static_cast<std::size_t>(st)];
  StageMetrics& sm = m_.stages[static_cast<std::size_t>(st)];
  sm.nop = NopCost{};

  double prefix_chain = 0.0;
  double max_parallel_chain = 0.0;
  double max_input_edge = 0.0;

  for (int mod = 0; mod < stage.num_models(); ++mod) {
    const StageModel& model = stage.models[static_cast<std::size_t>(mod)];
    const std::vector<int>& items = s.items_of_model(st, mod);
    if (items.empty()) continue;

    // Input edge(s) into this model's first layer.
    const Placement& first = s.placement(items.front());
    if (st == 0) {
      const NopCost in = nop_ingress_cost(pkg, first.primary_chiplet());
      sm.nop += in;
      max_input_edge = std::max(max_input_edge, in.latency_s);
    } else if (!model.prefix) {
      // From the previous stage's parallel model outputs (or, inside a
      // staged trunk, from the prefix model handled below).
      const Stage& prev = pipe.stages[static_cast<std::size_t>(st - 1)];
      for (int pm = 0; pm < prev.num_models(); ++pm) {
        if (prev.models[static_cast<std::size_t>(pm)].prefix) continue;
        const std::vector<int>& prev_items = s.items_of_model(st - 1, pm);
        if (prev_items.empty()) continue;
        const Placement& src = s.placement(prev_items.back());
        const double bytes =
            prev.models[static_cast<std::size_t>(pm)].model.output_bytes();
        const NopCost in = nop_gather_cost(pkg, src, first, bytes);
        sm.nop += in;
        max_input_edge = std::max(max_input_edge, in.latency_s);
      }
    }
    // Prefix handoff within the stage.
    if (st > 0 && !model.prefix) {
      for (int pm = 0; pm < stage.num_models(); ++pm) {
        if (!stage.models[static_cast<std::size_t>(pm)].prefix) continue;
        const std::vector<int>& pre_items = s.items_of_model(st, pm);
        if (pre_items.empty()) continue;
        const Placement& src = s.placement(pre_items.back());
        const double bytes =
            stage.models[static_cast<std::size_t>(pm)].model.output_bytes();
        sm.nop += nop_gather_cost(pkg, src, first, bytes);
      }
    }

    // Chain latency: items + intra-model transfer edges.
    double chain = 0.0;
    for (std::size_t li = 0; li < items.size(); ++li) {
      const int idx = items[li];
      chain += item_lat_[static_cast<std::size_t>(idx)];
      if (li + 1 < items.size()) {
        const Placement& cur = s.placement(idx);
        const Placement& nxt = s.placement(items[li + 1]);
        const NopCost hop =
            nop_gather_cost(pkg, cur, nxt, s.item(idx).desc->output_bytes());
        sm.nop += hop;
        chain += hop.latency_s;
      }
    }
    if (model.prefix) {
      prefix_chain += chain;
    } else {
      max_parallel_chain = std::max(max_parallel_chain, chain);
    }
  }

  // Resource contention floor: models sharing a chiplet serialize.
  double max_stage_busy = 0.0;
  int used = 0;
  for (const auto& u : m_.chiplets) {
    const double busy = u.stage_busy_s[static_cast<std::size_t>(st)];
    max_stage_busy = std::max(max_stage_busy, busy);
    if (busy > 0.0) ++used;
  }
  sm.chiplets_used = used;
  sm.pipe_s = max_stage_busy;
  sm.e2e_s = std::max(prefix_chain + max_parallel_chain, max_stage_busy) +
             max_input_edge;
}

const ScheduleMetrics& ScheduleEvaluator::evaluate() & {
  const Schedule& s = *s_;
  const PackageConfig& pkg = s.package();
  const int num_stages = static_cast<int>(m_.stages.size());

  // A stage is dirty when its version moved since the last successful
  // pass; before the first one, every stage is.
  auto dirty = [&](int st) {
    return seen_.empty() ||
           seen_[static_cast<std::size_t>(st)] != s.stage_version(st);
  };
  int first = 0;
  while (first < num_stages && !dirty(first)) ++first;
  if (first == num_stages) return m_;

  // Pass 1 resumes at the first dirty stage. A throw leaves seen_ as it
  // was, so the next call resumes at or before this stage, whose saved
  // sums this pass did not overwrite.
  restore_sums(first);
  for (int st = first; st < num_stages; ++st) {
    if (st > first) save_sums(st);
    accumulate_stage(st);
  }
  // Pass 2 for each dirty stage and the stage whose input edges read it.
  for (int st = first; st < num_stages; ++st) {
    if (dirty(st) || (st > 0 && dirty(st - 1))) evaluate_stage(st);
  }

  m_.e2e_s = 0.0;
  m_.nop = NopCost{};
  for (const StageMetrics& sm : m_.stages) {
    m_.e2e_s += sm.e2e_s;
    m_.nop += sm.nop;
  }

  // Steady-state initiation interval: the busiest chiplet per frame.
  m_.pipe_s = 0.0;
  double pe_seconds = 0.0;
  for (std::size_t c = 0; c < m_.chiplets.size(); ++c) {
    const ChipletUsage& u = m_.chiplets[c];
    m_.pipe_s = std::max(m_.pipe_s, u.busy_s);
    if (u.busy_s > 0.0) {
      pe_seconds +=
          u.busy_s * static_cast<double>(pkg.chiplets()[c].array.num_pes);
    }
  }
  const double freq = pkg.chiplets().empty()
                          ? cal::kFrequencyHz
                          : pkg.chiplets().front().array.frequency_hz;
  m_.utilization =
      pe_seconds > 0.0 ? m_.total_macs / (pe_seconds * freq) : 0.0;

  seen_.resize(static_cast<std::size_t>(num_stages));
  for (int st = 0; st < num_stages; ++st) {
    seen_[static_cast<std::size_t>(st)] = s.stage_version(st);
  }
  return m_;
}

ScheduleMetrics ScheduleEvaluator::evaluate() && {
  evaluate();
  return std::move(m_);
}

ScheduleMetrics evaluate_schedule(const Schedule& s) {
  return ScheduleEvaluator(s).evaluate();
}

int ScheduleMetrics::chiplets_used() const {
  int used = 0;
  for (const auto& u : chiplets) {
    if (u.busy_s > 0.0) ++used;
  }
  return used;
}

}  // namespace cnpu
