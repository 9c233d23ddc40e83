// Online rescheduling after a chiplet fault.
//
// When a chiplet dies mid-stream the event simulator (src/sim/event_sim.h)
// needs a replacement schedule on the surviving chiplets without re-running
// the full throughput-matching search: remap_schedule keeps every placement
// that never touched the failed chiplet and greedily re-homes the orphaned
// shards onto the least-loaded survivors, preferring the failed chiplet's
// own quadrant pool (reusing src/core/partition.h) so the moved work stays
// NoP-local to its stage.
#pragma once

#include "core/schedule.h"

namespace cnpu {

// One aggregated DRAM->chiplet weight-reload transfer implied by a remap.
struct ReloadTransfer {
  int chiplet_id = -1;  // destination (survivor) chiplet
  double bytes = 0.0;   // weight bytes newly resident there
};

struct RemapStats {
  int touched_items = 0;  // items whose placement changed
  int moved_shards = 0;   // shards re-homed off the failed chiplet
  // Weight bytes that acquired a new home chiplet. Weights are replicated
  // per shard, so a shard moving to a chiplet that already holds the same
  // item's weights (an existing shard it merges into) costs nothing; every
  // other move makes the full weight tensor newly resident. Zero for
  // weightless / streaming-weight layers.
  double weights_moved_bytes = 0.0;
  // weights_moved_bytes broken down per destination chiplet, in first-move
  // order. The event simulator charges exactly these transfers as cold-start
  // reloads over the NoP ingress routes when its memory model is active
  // (SimResult::reload_bytes).
  std::vector<ReloadTransfer> reloads;
};

// Rebuilds `schedule` onto `degraded` — typically
// `schedule.package().without_chiplet(failed_chiplet)`, which must outlive
// the returned schedule. Survivor loads read the schedule's stored shard
// costs, so `degraded` must carry the survivors' PE arrays unchanged (as
// without_chiplet does). Placements not using the failed chiplet are copied
// verbatim. Each orphaned shard moves to the survivor with the least
// accumulated busy time (per-frame shard latency, the evaluator's busy
// accounting) across the whole package; load ties prefer the failed
// chiplet's quadrant pool (NoP locality), then the lowest chiplet id, so
// the remap is deterministic. A shard landing on a chiplet that already
// holds a shard of the same item merges into it (fractions add).
//
// Capacity-respecting survivor choice (core/residency.h): when survivors
// carry finite weight capacity, candidates without room for the moved
// weights are filtered out first, and the least-loaded survivor WITH room
// wins (same deterministic tie-break). If no allowed survivor has room the
// filter is dropped — a degraded-but-running placement beats refusing to
// remap. With the default unbounded memory the choice is bitwise-identical
// to the legacy least-loaded rule.
//
// `allowed_pool` restricts the candidate survivors (the multi-tenant
// serving layer passes the tenant's static chiplet set so a fault cannot
// silently break partitioned isolation). Empty means every survivor is a
// candidate. When the allowed pool has no survivor at all (the whole pool
// died with the chiplet), the restriction falls back to every survivor —
// serving continuity beats strict isolation for a pool that no longer
// exists.
//
// Throws std::invalid_argument when `failed_chiplet` is missing from the
// original package, still present in `degraded`, or no survivor exists.
Schedule remap_schedule(const Schedule& schedule, const PackageConfig& degraded,
                        int failed_chiplet, RemapStats* stats = nullptr,
                        const std::vector<int>& allowed_pool = {});

}  // namespace cnpu
