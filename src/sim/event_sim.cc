#include "sim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/validate.h"
#include "core/evaluator.h"
#include "core/remap.h"
#include "core/residency.h"
#include "sim/event_calendar.h"
#include "util/stats.h"

namespace cnpu {
// Engine internals. A named namespace (not anonymous) because these types
// are the fields of SimEngine::Impl, whose class has external linkage —
// internal-linkage members there would be a -Wsubobject-linkage violation.
namespace evsim {

constexpr double kTimeEps = 1e-15;
// A frame counts as recovered once its latency is back inside this band
// over the pre-fault baseline (see SimResult::recovery_time_s).
constexpr double kRecoveryLatencyBand = 1.1;

struct ShardTask {
  int chiplet = -1;  // dense package-order index
  double service_s = 0.0;
};

// A contended-mode message: its route is Program::links[route_begin,
// route_end), dense link indices in traversal order.
struct Msg {
  int route_begin = 0;
  int route_end = 0;
  double bytes = 0.0;
};

// Completion fan-out: one consumer edge of a finished producer.
struct OutEdge {
  int consumer = 0;
  // Analytical (fraction-weighted mean hop) edge delay via nop_gather_cost —
  // the same formula evaluate_schedule prices, so the modes cross-validate.
  double delay_s = 0.0;
  // Contended mode: one message per producer shard, Program::msgs[msg_begin,
  // msg_end): that shard's share of the tensor routed to the consumer.
  int msg_begin = 0;
  int msg_end = 0;
};

struct Ingress {
  int item = 0;
  double delay_s = 0.0;
  Msg msg;  // contended mode: the camera tensor's route from the I/O port
};

// Static (frame-independent) view of one schedule, as flat CSR arrays.
// Compiled once per (schedule, NoP mode) and cached by the engine across
// runs; a run holds up to two per tenant: the primary program and, under a
// FaultPlan, the remapped degraded program swapped in per frame while the
// chiplet is down.
struct Program {
  // Item i's shards are shards[shard_begin[i], shard_begin[i + 1]); its
  // completion fan-out is outs[out_begin[i], out_begin[i + 1]), by
  // consumer, then in edge enumeration order.
  std::vector<int> shard_begin;
  std::vector<ShardTask> shards;
  std::vector<int> out_begin;
  std::vector<OutEdge> outs;
  std::vector<Msg> msgs;
  // Every route, in resolution order: the link registration order a fresh
  // fabric sees (see SimEngine::Impl::collect_run_links).
  std::vector<int> links;
  std::vector<Ingress> ingress;     // stage-0 camera edges, model order
  std::vector<int> base_deps;       // producer edges + ingress, per item
  std::vector<int> chiplet_shards;  // shards per dense chiplet
  int num_chiplets = 0;

  std::span<const ShardTask> shards_of(int item) const {
    const auto i = static_cast<std::size_t>(item);
    return {shards.data() + shard_begin[i], shards.data() + shard_begin[i + 1]};
  }
  std::span<const OutEdge> outs_of(int item) const {
    const auto i = static_cast<std::size_t>(item);
    return {outs.data() + out_begin[i], outs.data() + out_begin[i + 1]};
  }
  std::span<const int> route(const Msg& m) const {
    return {links.data() + m.route_begin, links.data() + m.route_end};
  }
};

// `dense_pkg` defines the dense chiplet index space (always the ORIGINAL
// package, so the primary and degraded programs share calendars); routes
// and costs come from the schedule's own package, which for the degraded
// program detours around the failed router.
Program build_program(const Schedule& sched, bool nop, bool contended,
                      NopFabric& fabric, const PackageConfig& dense_pkg) {
  const PackageConfig& pkg = sched.package();
  const auto n = static_cast<std::size_t>(sched.num_items());

  Program prog;
  prog.num_chiplets = dense_pkg.num_chiplets();
  prog.chiplet_shards.assign(static_cast<std::size_t>(prog.num_chiplets), 0);
  prog.shard_begin.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    prog.shard_begin[i + 1] =
        prog.shard_begin[i] + sched.placement(static_cast<int>(i)).num_shards();
  }
  prog.shards.reserve(static_cast<std::size_t>(prog.shard_begin[n]));
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& sh : sched.priced(static_cast<int>(i)).shards) {
      const int dense = dense_pkg.slot_of(sh.chiplet_id);
      if (dense < 0) throw std::out_of_range("chiplet id not in package");
      prog.shards.push_back(ShardTask{dense, sh.cost.latency_s});
      ++prog.chiplet_shards[static_cast<std::size_t>(dense)];
    }
  }

  // Appends one message over `route` to the program's pools.
  std::vector<NopLink> route;
  const auto add_msg = [&](double bytes) {
    Msg m{static_cast<int>(prog.links.size()), 0, bytes};
    for (const NopLink& l : route) prog.links.push_back(fabric.index_of(l));
    m.route_end = static_cast<int>(prog.links.size());
    return m;
  };
  // Producer edges in enumeration order.
  struct EdgeRec {
    int producer;
    int consumer;
    OutEdge out;
  };
  std::vector<EdgeRec> edges;
  edges.reserve(n);
  prog.base_deps.assign(n, 0);
  for_each_schedule_edge(
      sched,
      [&](int item) {
        const int dst = sched.placement(item).primary_chiplet();
        Ingress in;
        in.item = item;
        in.delay_s = nop ? nop_ingress_cost(pkg, dst).latency_s : 0.0;
        if (contended) {
          route.clear();
          pkg.route_from_io(dst, route);
          in.msg = add_msg(kCameraInputBytes);
        }
        prog.ingress.push_back(in);
        ++prog.base_deps[static_cast<std::size_t>(item)];
      },
      [&](int producer, int consumer, double bytes) {
        const Placement& from = sched.placement(producer);
        const Placement& to = sched.placement(consumer);
        OutEdge e;
        e.consumer = consumer;
        e.delay_s = nop ? nop_gather_cost(pkg, from, to, bytes).latency_s : 0.0;
        e.msg_begin = static_cast<int>(prog.msgs.size());
        if (contended) {
          for (const auto& sh : from.shards) {
            route.clear();
            pkg.route_between(sh.chiplet_id, to.primary_chiplet(), route);
            if (!route.empty()) {
              prog.msgs.push_back(add_msg(sh.fraction * bytes));
            }
          }
        }
        e.msg_end = static_cast<int>(prog.msgs.size());
        edges.push_back(EdgeRec{producer, consumer, e});
        ++prog.base_deps[static_cast<std::size_t>(consumer)];
      });

  // Fan-out order: by producer, then consumer, then enumeration order.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const EdgeRec& a, const EdgeRec& b) {
                     return a.producer != b.producer ? a.producer < b.producer
                                                     : a.consumer < b.consumer;
                   });
  prog.out_begin.assign(n + 1, 0);
  prog.outs.reserve(edges.size());
  for (const EdgeRec& e : edges) {
    ++prog.out_begin[static_cast<std::size_t>(e.producer) + 1];
    prog.outs.push_back(e.out);
  }
  for (std::size_t i = 0; i < n; ++i) {
    prog.out_begin[i + 1] += prog.out_begin[i];
  }
  return prog;
}

// A shard waiting for its ready time on a chiplet's calendar. `rank` is
// the owning job's dispatch rank — equal to its frame index for a single
// stream (preserving the legacy FIFO-by-frame policy bitwise), and the
// policy-resolved admission order across tenants otherwise. Ranks are a
// bijection over jobs, so (rank) alone identifies the job in comparators.
struct PendingShard {
  double ready;
  int rank;
  int job;
  int item;
  int shard;
};

struct PendingAfter {
  bool operator()(const PendingShard& a, const PendingShard& b) const {
    if (a.ready != b.ready) return a.ready > b.ready;
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.item != b.item) return a.item > b.item;
    return a.shard > b.shard;
  }
};

// A shard eligible to start now; dispatch priority is FIFO by job rank,
// then program order — the same policy the former O(queue) linear scan
// encoded, generalized from "frame" to "rank".
struct ReadyShard {
  int rank;
  int job;
  int item;
  int shard;
};

struct ReadyAfter {
  bool operator()(const ReadyShard& a, const ReadyShard& b) const {
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.item != b.item) return a.item > b.item;
    return a.shard > b.shard;
  }
};

// Vector-backed binary min-heap whose clear() retains capacity, replacing
// the std::priority_queue the one-shot simulator used (whose only
// "reset" is replacement, discarding the backing allocation every run).
// push/pop are exactly std::priority_queue's specified algorithms
// (push_back + std::push_heap / std::pop_heap + pop_back over the same
// comparator), so the pop sequence is bitwise-identical — and since every
// comparator here is a TOTAL order over its live elements, any conforming
// heap would pop the same sequence anyway.
template <typename T, typename After>
class MinHeap {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  const T& top() const { return v_.front(); }
  void push(T x) {
    v_.push_back(std::move(x));
    std::push_heap(v_.begin(), v_.end(), After{});
  }
  void pop() {
    std::pop_heap(v_.begin(), v_.end(), After{});
    v_.pop_back();
  }
  void clear() { v_.clear(); }
  void reserve(std::size_t n) { v_.reserve(n); }
  // The least key(x) below `hi` among entries where in(key(x)) holds, or
  // `hi` when there is none. key must not decrease from a node to its
  // children and in must be monotone in the key, so a node at or above
  // `hi`, or one that passes `in`, bounds its whole subtree: only nodes
  // below the window are expanded.
  template <typename Key, typename In>
  double least_key(Key key, In in, double hi, std::size_t i = 0) const {
    if (i >= v_.size()) return hi;
    const double k = key(v_[i]);
    if (k >= hi) return hi;
    if (in(k)) return k;
    return std::min(least_key(key, in, hi, 2 * i + 1),
                    least_key(key, in, hi, 2 * i + 2));
  }

 private:
  std::vector<T> v_;
};

// One resolved tenant stream: the explicit TenantStream list, or the
// single implicit stream described by SimOptions' top-level fields. Holds
// pointers into the caller's SimOptions (or the statics below) so that
// re-resolving streams every run costs no string/vector copies.
struct StreamSpec {
  const Schedule* sched = nullptr;
  const std::string* name = nullptr;
  int frames = 1;
  double interval = 0.0;
  double deadline = 0.0;
  int priority = 0;
  const std::vector<int>* allowed = nullptr;
  const ArrivalSpec* arrivals = nullptr;
  const AdmissionControl* admission = nullptr;
};

const std::string kImplicitStreamName = "stream";
const std::vector<int> kNoAllowedChiplets;
// Defaults a StreamSpec's pointers can always dereference: an inactive
// process / inactive admission control is indistinguishable from "unset".
const ArrivalSpec kNoArrivalProcess;
const AdmissionControl kNoAdmission;

// Recovery metric (see SimResult::recovery_time_s), per latency/completion
// slice: baseline = best completed latency observed before the fault
// (slice minimum when nothing completed pre-fault); the spike ends when
// the last elevated frame completes. Dropped frames carry NaN and are
// skipped. `finished` is engine-owned scratch (cleared here).
double recovery_after_fault(const std::vector<double>& latency,
                            const std::vector<double>& completion,
                            double fail_time_s,
                            std::vector<double>& finished) {
  double baseline = std::numeric_limits<double>::infinity();
  finished.clear();
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (std::isnan(completion[i])) continue;
    finished.push_back(latency[i]);
    if (completion[i] <= fail_time_s) {
      baseline = std::min(baseline, latency[i]);
    }
  }
  if (!std::isfinite(baseline)) baseline = min_of(finished);
  double last_elevated = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (std::isnan(completion[i])) continue;
    if (latency[i] > baseline * kRecoveryLatencyBand) {
      last_elevated = std::max(last_elevated, completion[i]);
    }
  }
  const double r = std::max(0.0, last_elevated - fail_time_s);
  return std::isfinite(r) ? r : 0.0;
}

// Tail statistics over one completed-frames slice (NaN = dropped):
// everything the drop-exclusion convention touches — completed count,
// makespan, steady interval, percentiles (filter-then-rank: NaN latencies
// must not poison or UB-sort into the rank), mean, peak — computed in ONE
// place so per-tenant slices and the multi-tenant package aggregates
// cannot diverge. The single-stream branches of run_into keep their
// original inline code: they are bitwise-pinned to the pre-serving
// simulator.
struct TailStats {
  int completed = 0;
  double makespan_s = 0.0;  // NaN when nothing completed
  double steady_interval_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
  double peak_s = 0.0;
};

// `lat_scratch` / `time_scratch` are engine-owned scratch buffers
// (cleared here); the former percentile_finite / mean calls over fresh
// temporaries become one filter + one in-place sort + three rank reads.
// Float-op order is preserved bitwise: the mean's summation runs over the
// finished latencies in frame order, BEFORE the sort; the percentiles read
// the same sorted array percentile_finite would have built.
TailStats reduce_tail(const std::vector<double>& latency,
                      const std::vector<double>& completion,
                      std::vector<double>& lat_scratch,
                      std::vector<double>& time_scratch) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  lat_scratch.clear();
  time_scratch.clear();
  for (std::size_t i = 0; i < completion.size(); ++i) {
    if (std::isnan(completion[i])) continue;
    time_scratch.push_back(completion[i]);
    lat_scratch.push_back(latency[i]);
  }
  std::sort(time_scratch.begin(), time_scratch.end());
  TailStats t;
  const int n = static_cast<int>(time_scratch.size());
  t.completed = n;
  t.makespan_s = n > 0 ? time_scratch.back() : nan;
  if (n >= 4) {
    const int half = n / 2;
    t.steady_interval_s =
        (time_scratch[static_cast<std::size_t>(n - 1)] -
         time_scratch[static_cast<std::size_t>(half - 1)]) /
        static_cast<double>(n - half);
  } else if (n > 0) {
    t.steady_interval_s = t.makespan_s / static_cast<double>(n);
  } else {
    t.steady_interval_s = nan;
  }
  t.mean_s = mean(lat_scratch);
  t.peak_s = max_of(lat_scratch);
  std::sort(lat_scratch.begin(), lat_scratch.end());
  t.p50_s = percentile_sorted(lat_scratch, 50.0);
  t.p95_s = percentile_sorted(lat_scratch, 95.0);
  t.p99_s = percentile_sorted(lat_scratch, 99.0);
  return t;
}

// Reduces one tenant's completion slice (NaN = dropped or shed) into `tr`
// in place, overwriting every field and reusing its vectors' capacity.
// `admit` is the tenant's realized admission-instant slice: for a
// closed-loop stream it holds exactly f * interval (the same doubles the
// pre-arrivals reduction multiplied inline, so latencies stay bitwise),
// for an open-loop stream the generated arrival instants — whose periodic
// assumption is also why `open_loop` turns the steady-interval estimate
// into a documented NaN.
void reduce_tenant_into(const StreamSpec& stream, const double* completion,
                        const double* admit, int shed, bool open_loop,
                        double nop_wait_s, double queue_delay_mean_s,
                        double queue_delay_peak_s,
                        std::vector<double>& lat_scratch,
                        std::vector<double>& time_scratch, TenantResult& tr) {
  tr.name = *stream.name;
  tr.frames = stream.frames;
  tr.deadline_miss_frames = 0;
  tr.nop_wait_s = nop_wait_s;
  tr.shed_frames = shed;
  tr.mean_queue_delay_s = queue_delay_mean_s;
  tr.peak_queue_delay_s = queue_delay_peak_s;
  tr.frame_completion_s.assign(completion, completion + stream.frames);
  tr.frame_latency_s.clear();
  for (int f = 0; f < stream.frames; ++f) {
    tr.frame_latency_s.push_back(completion[f] - admit[f]);
  }
  const TailStats tail = reduce_tail(tr.frame_latency_s, tr.frame_completion_s,
                                     lat_scratch, time_scratch);
  tr.frames_completed = tail.completed;
  tr.dropped_frames = stream.frames - tail.completed - shed;
  tr.p50_latency_s = tail.p50_s;
  tr.p95_latency_s = tail.p95_s;
  tr.p99_latency_s = tail.p99_s;
  tr.mean_latency_s = tail.mean_s;
  tr.peak_latency_s = tail.peak_s;
  tr.steady_interval_s =
      open_loop ? std::numeric_limits<double>::quiet_NaN()
                : tail.steady_interval_s;
  if (stream.deadline > 0.0) {
    for (const double lat : tr.frame_latency_s) {
      if (!std::isnan(lat) && lat > stream.deadline) {
        ++tr.deadline_miss_frames;
      }
    }
  }
}

// One DRAM->chiplet weight-reload transfer: destination chiplet (dense
// package-order index), bytes, the precomputed analytical delay (NoP
// ingress latency plus SRAM fill at the destination's reload bandwidth),
// and the resolved ingress route for contended-mode queueing (empty when
// not contended). Built only when the package's memory model is active.
struct ReloadPlan {
  int dense_chiplet = -1;
  double bytes = 0.0;
  double delay_s = 0.0;
  std::vector<int> route;
};

// One fault-remapped variant of a cached program, keyed by the failed
// chiplet and the allowed-pool restriction the remap honored (the same
// schedule remaps differently under different tenant pools).
struct DegradedEntry {
  int fault_chiplet = -1;     // package id of the chiplet that died
  std::vector<int> allowed;   // pool restriction the remap was built under
  std::optional<Schedule> remapped;
  Program prog;
  RemapStats remap_stats;
  // Weight reloads charged when this variant takes over (empty / zero with
  // the memory model inactive). fault_reloads re-home the remapped weights
  // onto the survivors at the fault instant (one aggregated transfer per
  // RemapStats::reloads destination, over the DEGRADED package's detoured
  // ingress routes); recover_reload restores the revived chiplet's
  // primary-resident weights at recovery (original healthy routes).
  std::vector<ReloadPlan> fault_reloads;
  ReloadPlan recover_reload;
};

// Cache value for one (schedule, NoP mode): the compiled primary program
// plus any degraded variants built for faults seen so far. unique_ptr
// entries keep DegradedEntry addresses stable while the vector grows (the
// run's TenantCtx holds raw pointers into them).
struct ProgramEntry {
  Program prog;
  std::vector<std::unique_ptr<DegradedEntry>> degraded;
};

// Programs depend on the schedule and on exactly two SimOptions bits.
struct ProgramKey {
  const Schedule* sched = nullptr;
  bool nop = false;
  bool contended = false;
  bool operator<(const ProgramKey& o) const {
    if (sched != o.sched) return sched < o.sched;
    if (nop != o.nop) return nop < o.nop;
    return contended < o.contended;
  }
};

// Per-tenant world of ONE run: cached primary program, and under a
// FaultPlan the cached remapped schedule + degraded program (each tenant
// remaps independently, restricted to its allowed pool). Plain pointers
// into the engine's caches, so the vector is reused across runs.
struct TenantCtx {
  ProgramEntry* entry = nullptr;
  const Program* primary = nullptr;
  const DegradedEntry* degraded = nullptr;
  // Whether any frame of this tenant actually ran the remapped schedule
  // (a fault firing after the stream drained remaps nothing).
  bool degraded_used = false;
  int items = 0;
  int job_base = 0;           // first global job id of this tenant
  std::size_t slot_base = 0;  // first per-(job, item) slot
};

}  // namespace evsim

using namespace evsim;

// All per-run state as flat reusable buffers plus the compiled-program
// caches. Between runs nothing is deallocated: vectors are assign()ed or
// clear()ed (capacity retained), heaps cleared in place, the fabric's
// occupancy zeroed with its link registry kept. After one warm-up run of
// a workload shape, a repeat run performs zero heap allocations.
struct SimEngine::Impl {
  // Caches. Declared before the per-run state so that during destruction
  // the degraded packages outlive the Schedules remapped onto them.
  std::map<std::pair<const PackageConfig*, int>, std::unique_ptr<PackageConfig>>
      degraded_pkgs;  // keyed by (original package, failed chiplet id)
  std::map<ProgramKey, ProgramEntry> programs;
  NopFabric fabric;  // persistent link registry, per-run occupancy
  EngineStats stats;

  // --- per-run state (reset by every run_into) ---
  std::vector<StreamSpec> streams;
  std::vector<TenantCtx> ctx;
  std::vector<int> tenant_of;
  std::vector<std::size_t> slot_of;
  std::vector<double> admit_of;
  // Dispatch order of the previous run, kept across runs: when the current
  // run's admission instants prove it is already THE sorted order (an O(n)
  // adjacency check), the O(n log n) re-sort is skipped
  // (EngineStats::warm_starts).
  std::vector<int> order;
  std::vector<int> rank_of;
  std::vector<int> deps_left;
  std::vector<double> ready_time;
  std::vector<int> shards_left;
  std::vector<int> frame_items_left;
  std::vector<const Program*> prog_of;
  std::vector<int> epoch_of;
  std::vector<char> frame_done;
  std::vector<char> frame_dropped;
  // Continuous-batching / admission-control state. frame_started marks a
  // job with at least one dispatched shard in its CURRENT epoch (a fault
  // flush resets it: the re-admitted frame is queued again); frame_qd_done
  // is the sticky "queue delay attributed" latch (first-ever dispatch
  // only); frame_shed marks jobs evicted by admission control — their
  // heap entries are evicted LAZILY, skipped when they surface at
  // dispatch-set re-formation (binary heaps cannot remove interior
  // elements, and the shed decision is made online).
  std::vector<char> frame_started;
  std::vector<char> frame_qd_done;
  std::vector<char> frame_shed;
  std::vector<int> queue_len;    // per tenant: admitted, not yet started
  std::vector<int> shed_count;   // per tenant
  std::vector<int> qd_count;     // per tenant: frames with attributed delay
  std::vector<double> qd_sum;
  std::vector<double> qd_peak;
  std::vector<double> arr_scratch;  // generate_arrivals output buffer
  std::vector<double> tenant_wait;
  std::vector<MinHeap<PendingShard, PendingAfter>> pending;
  std::vector<MinHeap<ReadyShard, ReadyAfter>> ready;
  std::vector<double> chiplet_free;
  std::vector<double> chiplet_busy;
  // Per chiplet: the time of the armed dispatch event the loop relies on,
  // +inf when none is armed (see run_into's `arm`).
  std::vector<double> wake;
  EventCalendar events;
  // The dispatch lane: chiplets whose completion dispatch is due at the
  // current instant, least id first (see run_into's event loop).
  MinHeap<int, std::greater<int>> due;
  // Link-stats replay: the dense indices this run's programs resolved, in
  // the order a fresh fabric would have registered them.
  std::vector<int> run_links;
  std::vector<std::uint64_t> link_mark;
  std::uint64_t mark_epoch = 0;
  // Reduction scratch (reduce_tail / recovery / legacy percentiles).
  std::vector<double> scr_lat;
  std::vector<double> scr_times;
  std::vector<double> scr_recovery;

  ProgramEntry& program_for(const Schedule& sched, bool nop, bool contended,
                            const PackageConfig& dense_pkg) {
    const ProgramKey key{&sched, nop, contended};
    const auto it = programs.find(key);
    if (it != programs.end()) {
      ++stats.program_cache_hits;
      return it->second;
    }
    ProgramEntry e;
    e.prog = build_program(sched, nop, contended, fabric, dense_pkg);
    ++stats.program_builds;
    // Inserted only after a successful build: a throwing build leaves the
    // cache without a half-constructed entry.
    return programs.emplace(key, std::move(e)).first->second;
  }

  const DegradedEntry& degraded_for(ProgramEntry& entry,
                                    const StreamSpec& stream, bool nop,
                                    bool contended, const PackageConfig& pkg,
                                    const FaultPlan& fault) {
    for (const auto& d : entry.degraded) {
      if (d->fault_chiplet == fault.chiplet_id && d->allowed == *stream.allowed) {
        ++stats.program_cache_hits;
        return *d;
      }
    }
    const auto pkey = std::make_pair(&pkg, fault.chiplet_id);
    auto pit = degraded_pkgs.find(pkey);
    if (pit == degraded_pkgs.end()) {
      pit = degraded_pkgs
                .emplace(pkey, std::make_unique<PackageConfig>(
                                   pkg.without_chiplet(fault.chiplet_id)))
                .first;
    }
    auto d = std::make_unique<DegradedEntry>();
    d->fault_chiplet = fault.chiplet_id;
    d->allowed = *stream.allowed;
    d->remapped.emplace(remap_schedule(*stream.sched, *pit->second,
                                       fault.chiplet_id, &d->remap_stats,
                                       *stream.allowed));
    d->prog = build_program(*d->remapped, nop, contended, fabric, pkg);
    // Reload plans (memory model active only — resolving them otherwise
    // would perturb the pinned link_stats order of the inactive model).
    if (pkg.memory_model_active()) {
      const auto plan = [&](const PackageConfig& routed, int chiplet_id,
                            double bytes) {
        ReloadPlan rp;
        rp.dense_chiplet = pkg.slot_of(chiplet_id);
        if (rp.dense_chiplet < 0) {
          throw std::out_of_range("reload destination not in package");
        }
        rp.bytes = bytes;
        rp.delay_s =
            nop ? routed.transfer_cost(-1, chiplet_id, bytes).latency_s : 0.0;
        const double bw =
            pkg.chiplet(chiplet_id).memory.reload_bandwidth_bytes_per_s;
        if (bw > 0.0) rp.delay_s += bytes / bw;
        if (contended) {
          rp.route = fabric.resolve(routed.route_from_io(chiplet_id));
        }
        return rp;
      };
      for (const ReloadTransfer& r : d->remap_stats.reloads) {
        d->fault_reloads.push_back(plan(*pit->second, r.chiplet_id, r.bytes));
      }
      const ResidencyReport res = compute_residency(*stream.sched);
      const ChipletResidency* cr = res.find(fault.chiplet_id);
      if (cr != nullptr && cr->weight_bytes > 0.0) {
        d->recover_reload = plan(pkg, fault.chiplet_id, cr->weight_bytes);
      }
    }
    ++stats.program_builds;
    entry.degraded.push_back(std::move(d));
    return *entry.degraded.back();
  }

  // Reconstructs the link registration order of a FRESH fabric for this
  // run — each program's route pool replayed in fresh build order
  // (primaries in tenant order, then degradeds in tenant order, each
  // followed by its reload routes), first occurrence kept — so stats_into
  // emits link_stats bitwise-identical to the one-shot path even though
  // the persistent registry also holds links of other schedules simulated
  // earlier.
  void collect_run_links(bool faulted) {
    if (link_mark.size() < static_cast<std::size_t>(fabric.num_links())) {
      link_mark.resize(static_cast<std::size_t>(fabric.num_links()), 0);
    }
    ++mark_epoch;
    run_links.clear();
    const auto add = [&](const std::vector<int>& links) {
      for (const int li : links) {
        if (link_mark[static_cast<std::size_t>(li)] != mark_epoch) {
          link_mark[static_cast<std::size_t>(li)] = mark_epoch;
          run_links.push_back(li);
        }
      }
    };
    for (const TenantCtx& c : ctx) add(c.primary->links);
    if (faulted) {
      for (const TenantCtx& c : ctx) {
        add(c.degraded->prog.links);
        for (const ReloadPlan& rp : c.degraded->fault_reloads) add(rp.route);
        add(c.degraded->recover_reload.route);
      }
    }
  }

  void run_into(const Schedule& schedule, const SimOptions& options,
                SimResult& result);

  void reset() {
    programs.clear();
    degraded_pkgs.clear();
    fabric = NopFabric();
    stats = EngineStats{};
    streams.clear();
    ctx.clear();
    tenant_of.clear();
    slot_of.clear();
    admit_of.clear();
    order.clear();
    rank_of.clear();
    deps_left.clear();
    ready_time.clear();
    shards_left.clear();
    frame_items_left.clear();
    prog_of.clear();
    epoch_of.clear();
    frame_done.clear();
    frame_dropped.clear();
    frame_started.clear();
    frame_qd_done.clear();
    frame_shed.clear();
    queue_len.clear();
    shed_count.clear();
    qd_count.clear();
    qd_sum.clear();
    qd_peak.clear();
    arr_scratch.clear();
    tenant_wait.clear();
    pending.clear();
    ready.clear();
    chiplet_free.clear();
    chiplet_busy.clear();
    wake.clear();
    events.clear();
    due.clear();
    run_links.clear();
    link_mark.clear();
    mark_epoch = 0;
    scr_lat.clear();
    scr_times.clear();
    scr_recovery.clear();
  }
};

void SimEngine::Impl::run_into(const Schedule& schedule,
                               const SimOptions& options, SimResult& result) {
  if (schedule.num_items() == 0) {
    throw std::invalid_argument(
        "simulate_schedule: schedule has no items (empty pipeline)");
  }
  // Resolve the stream list: explicit tenants, or the single implicit
  // stream described by the top-level options fields.
  streams.clear();
  if (options.tenants.empty()) {
    streams.push_back(StreamSpec{&schedule, &kImplicitStreamName,
                                 std::max(options.frames, 1),
                                 std::max(options.frame_interval_s, 0.0),
                                 options.deadline_s, 0, &kNoAllowedChiplets,
                                 &options.arrivals, &options.admission});
  } else {
    streams.reserve(options.tenants.size());
    for (const TenantStream& t : options.tenants) {
      const Schedule* sched = t.schedule != nullptr ? t.schedule : &schedule;
      if (&sched->package() != &schedule.package()) {
        throw std::invalid_argument(
            "simulate_schedule: tenant \"" + t.name +
            "\" is scheduled on a different package");
      }
      if (sched->num_items() == 0) {
        throw std::invalid_argument("simulate_schedule: tenant \"" + t.name +
                                    "\" has an empty schedule");
      }
      streams.push_back(StreamSpec{sched, &t.name, std::max(t.frames, 1),
                                   std::max(t.frame_interval_s, 0.0),
                                   t.deadline_s, t.priority,
                                   &t.allowed_chiplets, &t.arrivals,
                                   &t.admission});
    }
  }
  const int num_tenants = static_cast<int>(streams.size());
  const bool multi = num_tenants > 1;

  // Open-loop / admission-control regime of this run. Both false is the
  // bitwise-pinned legacy regime: every new branch below is either skipped
  // or a no-op there.
  bool open = false;
  bool shed_any = false;
  for (const StreamSpec& s : streams) {
    if (s.admission->policy != ShedPolicy::kNone &&
        s.admission->queue_capacity <= 0) {
      throw std::invalid_argument(
          "simulate_schedule: stream \"" + *s.name +
          "\" sets a ShedPolicy without a positive queue_capacity");
    }
    open = open || s.arrivals->active();
    shed_any = shed_any || s.admission->active();
  }

  const FaultPlan& fault = options.fault;
  const bool faulted = fault.active();
  if (faulted) {
    if (fault.fail_time_s < 0.0) {
      throw std::invalid_argument("simulate_schedule: negative fail_time_s");
    }
    if (fault.recover_time_s >= 0.0 &&
        fault.recover_time_s < fault.fail_time_s) {
      throw std::invalid_argument(
          "simulate_schedule: recover_time_s precedes fail_time_s");
    }
  }
  const bool nop = options.model_nop_delays;
  const bool contended = nop && options.nop_mode == NopMode::kContended;
  const PackageConfig& pkg = schedule.package();
  fabric.set_params(pkg.nop());
  fabric.reset_state();

  ctx.assign(static_cast<std::size_t>(num_tenants), TenantCtx{});
  int jobs = 0;
  std::size_t slots = 0;
  for (int t = 0; t < num_tenants; ++t) {
    TenantCtx& c = ctx[static_cast<std::size_t>(t)];
    ProgramEntry& e = program_for(*streams[static_cast<std::size_t>(t)].sched,
                                  nop, contended, pkg);
    c.entry = &e;
    c.primary = &e.prog;
    c.items = streams[static_cast<std::size_t>(t)].sched->num_items();
    c.job_base = jobs;
    c.slot_base = slots;
    jobs += streams[static_cast<std::size_t>(t)].frames;
    slots += static_cast<std::size_t>(
                 streams[static_cast<std::size_t>(t)].frames) *
             static_cast<std::size_t>(c.items);
  }
  const int nc = ctx.front().primary->num_chiplets;

  // Dense package-order index of the failed chiplet.
  const int dead = faulted ? pkg.slot_of(fault.chiplet_id) : -1;
  if (faulted) {
    if (dead < 0) {
      throw std::invalid_argument(
          "simulate_schedule: FaultPlan chiplet " +
          std::to_string(fault.chiplet_id) + " is not in the package");
    }
    for (int t = 0; t < num_tenants; ++t) {
      TenantCtx& c = ctx[static_cast<std::size_t>(t)];
      c.degraded = &degraded_for(*c.entry,
                                 streams[static_cast<std::size_t>(t)], nop,
                                 contended, pkg, fault);
    }
  }

  // Global job index space, tenant-major: tenant t's frame f is job
  // job_base[t] + f, so a single stream's job ids equal its frame ids and
  // every legacy code path below is bit-identical in that case.
  tenant_of.resize(static_cast<std::size_t>(jobs));
  slot_of.resize(static_cast<std::size_t>(jobs));
  admit_of.resize(static_cast<std::size_t>(jobs));
  for (int t = 0; t < num_tenants; ++t) {
    const TenantCtx& c = ctx[static_cast<std::size_t>(t)];
    const StreamSpec& s = streams[static_cast<std::size_t>(t)];
    // Open-loop streams admit at the process's generated instants; the
    // closed-loop product below is the exact expression the pre-arrivals
    // engine computed (bitwise-pinned latency = completion - admit).
    const bool gen = s.arrivals->active();
    if (gen) generate_arrivals(*s.arrivals, s.frames, arr_scratch);
    for (int f = 0; f < s.frames; ++f) {
      const std::size_t j = static_cast<std::size_t>(c.job_base + f);
      tenant_of[j] = t;
      slot_of[j] = c.slot_base + static_cast<std::size_t>(f) *
                                     static_cast<std::size_t>(c.items);
      admit_of[j] = gen ? arr_scratch[static_cast<std::size_t>(f)]
                        : static_cast<double>(f) * s.interval;
    }
  }

  // Dispatch ranks: FIFO by admission instant across tenants (ties keep
  // tenant-major job order); under kPriority a higher-priority tenant's
  // jobs rank ahead of lower-priority ones outright. For a single stream
  // admission instants are nondecreasing in frame, so the sort is the
  // identity and rank == frame (the legacy dispatch policy).
  {
    const auto before = [&](int a, int b) {
      if (options.policy == PlacementPolicy::kPriority) {
        const int pa =
            streams[static_cast<std::size_t>(
                        tenant_of[static_cast<std::size_t>(a)])].priority;
        const int pb =
            streams[static_cast<std::size_t>(
                        tenant_of[static_cast<std::size_t>(b)])].priority;
        if (pa != pb) return pa > pb;
      }
      return admit_of[static_cast<std::size_t>(a)] <
             admit_of[static_cast<std::size_t>(b)];
    };
    // The total order "before(x,y), ties broken by job index": a sequence
    // sorted under a total order is unique, so std::sort (which needs no
    // scratch buffer) yields exactly the stable sort by `before`, and the
    // previous run's order is reused outright when the O(n) adjacency
    // check proves re-sorting would reproduce it.
    const auto ranks_before = [&](int x, int y) {
      return before(x, y) || (!before(y, x) && x < y);
    };
    bool warm = static_cast<int>(order.size()) == jobs;
    for (int i = 1; warm && i < jobs; ++i) {
      warm = ranks_before(order[static_cast<std::size_t>(i - 1)],
                          order[static_cast<std::size_t>(i)]);
    }
    if (warm) {
      ++stats.warm_starts;
    } else {
      order.resize(static_cast<std::size_t>(jobs));
      for (int j = 0; j < jobs; ++j) order[static_cast<std::size_t>(j)] = j;
      std::sort(order.begin(), order.end(), ranks_before);
    }
    rank_of.resize(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
      rank_of[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
    }
  }

  // Per-(job, item) bookkeeping. The slot arrays are fully overwritten by
  // init_frame below, so a bare resize (no refill) is enough.
  const auto idx = [&](int job, int item) {
    return slot_of[static_cast<std::size_t>(job)] +
           static_cast<std::size_t>(item);
  };
  deps_left.resize(slots);
  ready_time.resize(slots);
  shards_left.resize(slots);
  frame_items_left.resize(static_cast<std::size_t>(jobs));
  prog_of.resize(static_cast<std::size_t>(jobs));
  epoch_of.assign(static_cast<std::size_t>(jobs), 0);
  frame_done.assign(static_cast<std::size_t>(jobs), 0);
  frame_dropped.assign(static_cast<std::size_t>(jobs), 0);
  frame_started.assign(static_cast<std::size_t>(jobs), 0);
  frame_qd_done.assign(static_cast<std::size_t>(jobs), 0);
  frame_shed.assign(static_cast<std::size_t>(jobs), 0);
  queue_len.assign(static_cast<std::size_t>(num_tenants), 0);
  shed_count.assign(static_cast<std::size_t>(num_tenants), 0);
  qd_count.assign(static_cast<std::size_t>(num_tenants), 0);
  qd_sum.assign(static_cast<std::size_t>(num_tenants), 0.0);
  qd_peak.assign(static_cast<std::size_t>(num_tenants), 0.0);
  tenant_wait.assign(static_cast<std::size_t>(num_tenants), 0.0);
  for (int j = 0; j < jobs; ++j) {
    prog_of[static_cast<std::size_t>(j)] =
        ctx[static_cast<std::size_t>(tenant_of[static_cast<std::size_t>(j)])]
            .primary;
  }

  const auto init_frame = [&](int j) {
    const Program& pr = *prog_of[static_cast<std::size_t>(j)];
    const int items =
        ctx[static_cast<std::size_t>(tenant_of[static_cast<std::size_t>(j)])]
            .items;
    for (int i = 0; i < items; ++i) {
      deps_left[idx(j, i)] = pr.base_deps[static_cast<std::size_t>(i)];
      ready_time[idx(j, i)] = 0.0;
      shards_left[idx(j, i)] = static_cast<int>(pr.shards_of(i).size());
    }
    frame_items_left[static_cast<std::size_t>(j)] = items;
  };
  for (int j = 0; j < jobs; ++j) init_frame(j);

  // Dense per-chiplet calendars (package order): a ready-time min-heap
  // feeding a dispatch-priority min-heap. Heap storage is grow-only so a
  // smaller run never sheds the capacity a bigger one built up, and a
  // fresh engine starts each heap at one frame of every tenant's shards
  // on its chiplet.
  if (static_cast<int>(pending.size()) < nc) {
    pending.resize(static_cast<std::size_t>(nc));
    ready.resize(static_cast<std::size_t>(nc));
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(nc); ++c) {
    std::size_t shards = 0;
    for (const TenantCtx& t : ctx) {
      shards += static_cast<std::size_t>(t.primary->chiplet_shards[c]);
    }
    pending[c].clear();
    pending[c].reserve(shards);
    ready[c].clear();
    ready[c].reserve(shards);
  }
  const double inf = std::numeric_limits<double>::infinity();
  chiplet_free.assign(static_cast<std::size_t>(nc), 0.0);
  chiplet_busy.assign(static_cast<std::size_t>(nc), 0.0);
  wake.assign(static_cast<std::size_t>(nc), inf);
  events.clear();
  due.clear();

  // Reset every field of the caller's result object (run_into reuses its
  // buffers; a stale field from a previous run must not leak through).
  result.first_frame_latency_s = 0.0;
  result.steady_interval_s = 0.0;
  result.makespan_s = 0.0;
  result.frame_completion_s.assign(static_cast<std::size_t>(jobs), 0.0);
  result.frame_latency_s.clear();
  result.p50_latency_s = 0.0;
  result.p95_latency_s = 0.0;
  result.p99_latency_s = 0.0;
  result.chiplet_busy_s.clear();
  result.link_stats.clear();
  result.tasks_executed = 0;
  result.frames_completed = 0;
  result.dropped_frames = 0;
  result.shed_frames = 0;
  result.deadline_miss_frames = 0;
  result.peak_latency_s = 0.0;
  result.recovery_time_s = 0.0;
  result.remapped_items = 0;
  result.reload_bytes = 0.0;
  result.reload_time_s = 0.0;
  result.tenants.resize(static_cast<std::size_t>(num_tenants));

  // Every calendar push; keeps EngineStats::event_heap_high_water.
  const auto post = [&](const Ev& e) {
    events.push(e);
    const auto n = static_cast<long long>(events.size());
    if (n > stats.event_heap_high_water) stats.event_heap_high_water = n;
  };

  // Dispatch arming. The loop keeps three invariants per chiplet c:
  //  1. a busy chiplet has a dispatch due at chiplet_free[c]: a task's
  //     completion dispatch rides on its kFinish and enters the lane `due`
  //     when that finish pops; fault, reload and recovery push theirs;
  //  2. an idle chiplet with pending work has one armed dispatch, at
  //     wake[c] <= its earliest pending ready time;
  //  3. only the next admission of each tenant is in the calendar.
  // A dispatch is therefore pushed only when it would fire before the
  // armed one. Dispatches at equal keys are idempotent and a dispatch that
  // finds its chiplet busy does nothing, so every dispatch that does work
  // fires at the same (time, kDispatch, chiplet) key as it would with one
  // dispatch pushed per enqueued shard — including a shard that becomes
  // ready within kTimeEps before its chiplet's running task completes,
  // which the dispatch test already counts as free (see free_at).
  const auto arm = [&](int c, double t) {
    double& w = wake[static_cast<std::size_t>(c)];
    if (t < w) {
      w = t;
      post(Ev{t, kDispatch, c, 0, 0, 0});
    }
  };

  // Whether chiplet c counts as free at time t: the dispatch test.
  const auto free_at = [&](int c, double t) {
    return chiplet_free[static_cast<std::size_t>(c)] <= t + kTimeEps;
  };

  // A shard ready at `at` on a chiplet busy past `at` is picked up by the
  // dispatch due at chiplet_free (invariant 1); otherwise it needs an
  // armed dispatch at or before `at`.
  const auto enqueue_item_shards = [&](int job, int item, double at) {
    const std::span<const ShardTask> shards =
        prog_of[static_cast<std::size_t>(job)]->shards_of(item);
    for (int s = 0; s < static_cast<int>(shards.size()); ++s) {
      const int c = shards[static_cast<std::size_t>(s)].chiplet;
      pending[static_cast<std::size_t>(c)].push(PendingShard{
          at, rank_of[static_cast<std::size_t>(job)], job, item, s});
      if (free_at(c, at)) arm(c, at);
    }
  };

  // Deliver an edge/ingress arrival to (job, item): in contended mode the
  // message walks its links first, adding the FIFO queueing wait on top of
  // the analytical delay (wait is exactly 0.0 on an idle fabric, keeping
  // the two modes bitwise-identical there).
  const auto deliver = [&](int job, int item, double arrival) {
    const std::size_t key = idx(job, item);
    if (arrival > ready_time[key]) ready_time[key] = arrival;
    if (--deps_left[key] == 0) {
      enqueue_item_shards(job, item, ready_time[key]);
    }
  };

  // Admit (or re-admit after a fault flush) job `j` at time `t` under its
  // current program: inject the camera ingress edges and release the
  // dependency-free items. Link-queueing waits are attributed to the
  // owning tenant (TenantResult::nop_wait_s).
  const auto admit_frame = [&](int j, double t) {
    const Program& pr = *prog_of[static_cast<std::size_t>(j)];
    const int tenant = tenant_of[static_cast<std::size_t>(j)];
    for (const Ingress& in : pr.ingress) {
      double arrival = t + in.delay_s;
      if (contended && in.msg.route_begin != in.msg.route_end) {
        const double wait = fabric.inject(pr.route(in.msg), in.msg.bytes, t);
        tenant_wait[static_cast<std::size_t>(tenant)] += wait;
        arrival = t + in.delay_s + wait;
      }
      deliver(j, in.item, arrival);
    }
    const int items = ctx[static_cast<std::size_t>(tenant)].items;
    for (int i = 0; i < items; ++i) {
      if (pr.base_deps[static_cast<std::size_t>(i)] == 0) {
        enqueue_item_shards(j, i, t);
      }
    }
  };

  // Invariant 3: each tenant's first admission; every kAdmit pushes its
  // successor. Per-tenant admission instants are nondecreasing and the
  // event order is total, so the successor is never due before the pop
  // that pushes it and the pop sequence is that of a fully seeded
  // calendar.
  for (int t = 0; t < num_tenants; ++t) {
    const int j = ctx[static_cast<std::size_t>(t)].job_base;
    post(Ev{admit_of[static_cast<std::size_t>(j)], kAdmit, j, 0, 0, 0});
  }
  if (faulted) {
    post(Ev{fault.fail_time_s, kFault, 0, 0, 0, 0});
    if (fault.recover_time_s >= 0.0) {
      post(Ev{fault.recover_time_s, kRecover, 0, 0, 0, 0});
    }
  }

  // Two sources: the calendar and the lane of completion dispatches, each
  // lane entry standing for (due_at, kDispatch, c). A kFinish pops at the
  // current instant and every lane entry sorts before any later event, so
  // the lane drains before time advances and due_at is that one instant;
  // taking the lesser head under EvAfter pops exactly the sequence of a
  // single calendar holding both (equal keys are the same dispatch).
  double due_at = 0.0;
  while (!events.empty() || !due.empty()) {
    Ev ev;
    if (!due.empty()) ev = Ev{due_at, kDispatch, due.top(), 0, 0, 0};
    if (!due.empty() && (events.empty() || EvAfter{}(events.top(), ev))) {
      due.pop();
    } else {
      ev = events.top();
      events.pop();
    }
    ++stats.events_processed;
    const double now = ev.time;
    switch (ev.kind) {
      case kAdmit: {
        const int f = ev.a;
        const int tn = tenant_of[static_cast<std::size_t>(f)];
        const StreamSpec& st = streams[static_cast<std::size_t>(tn)];
        if (f + 1 < ctx[static_cast<std::size_t>(tn)].job_base + st.frames) {
          post(Ev{admit_of[static_cast<std::size_t>(f + 1)], kAdmit, f + 1, 0,
                  0, 0});
        }
        const AdmissionControl& ac = *st.admission;
        if (ac.policy != ShedPolicy::kNone &&
            queue_len[static_cast<std::size_t>(tn)] >= ac.queue_capacity) {
          // Full per-tenant queue: apply the shed policy. The arriving
          // frame is the NEWEST of its tenant (per-tenant arrival instants
          // are nondecreasing and same-instant kAdmit events pop in job-id
          // order), so scanning the tenant's contiguous job-id window finds
          // the head/tail of the queue exactly. "Queued" = admitted with no
          // shard started; eviction is lazy — the victim's heap entries are
          // skipped when they surface at dispatch.
          const auto queued = [&](int j) {
            const std::size_t k = static_cast<std::size_t>(j);
            return !frame_started[k] && !frame_done[k] && !frame_shed[k] &&
                   !frame_dropped[k];
          };
          int victim = -1;  // -1 = shed the arriving frame itself
          if (ac.policy == ShedPolicy::kDropOldest) {
            const int base = ctx[static_cast<std::size_t>(tn)].job_base;
            for (int j = base; j < f; ++j) {
              if (queued(j)) { victim = j; break; }
            }
          } else if (ac.policy == ShedPolicy::kDropNewest) {
            const int base = ctx[static_cast<std::size_t>(tn)].job_base;
            for (int j = f - 1; j >= base; --j) {
              if (queued(j)) { victim = j; break; }
            }
          }
          ++shed_count[static_cast<std::size_t>(tn)];
          if (victim < 0) {
            // kRejectNew (or a defensive fallback when no victim is
            // queued): the arrival never enters the system.
            frame_shed[static_cast<std::size_t>(f)] = 1;
            break;
          }
          frame_shed[static_cast<std::size_t>(victim)] = 1;
          --queue_len[static_cast<std::size_t>(tn)];
        }
        ++queue_len[static_cast<std::size_t>(tn)];
        // Frames admitted while the chiplet is down run the remapped
        // schedule (strictly after the fault instant: an admission at the
        // exact fail time lands primary, then the flush re-admits it).
        if (faulted && now > fault.fail_time_s &&
            !(fault.recover_time_s >= 0.0 && now >= fault.recover_time_s)) {
          TenantCtx& c =
              ctx[static_cast<std::size_t>(tenant_of[static_cast<std::size_t>(f)])];
          prog_of[static_cast<std::size_t>(f)] = &c.degraded->prog;
          c.degraded_used = true;
          init_frame(f);
        }
        admit_frame(f, now);
        break;
      }
      case kFinish: {
        // The running task's completion dispatch, stale finish or not.
        due_at = now;
        due.push(ev.chiplet);
        const int f = ev.a;
        const int item = ev.b;
        // Stale: the frame was flushed (and possibly dropped) after this
        // task was dispatched.
        if (ev.c != epoch_of[static_cast<std::size_t>(f)]) break;
        const std::size_t key = idx(f, item);
        // The last shard's finish event carries the item's completion time
        // (events pop in nondecreasing time order).
        if (--shards_left[key] != 0) break;
        const double finished = now;
        if (--frame_items_left[static_cast<std::size_t>(f)] == 0) {
          if (frame_done[static_cast<std::size_t>(f)]) {
            throw std::logic_error(
                "simulate_schedule: frame completed twice (conservation "
                "violated)");
          }
          frame_done[static_cast<std::size_t>(f)] = 1;
          result.frame_completion_s[static_cast<std::size_t>(f)] = finished;
        }
        const Program& pr = *prog_of[static_cast<std::size_t>(f)];
        for (const OutEdge& oe : pr.outs_of(item)) {
          double arrival = finished + oe.delay_s;
          if (contended && oe.msg_begin != oe.msg_end) {
            double wait = 0.0;
            for (int m = oe.msg_begin; m < oe.msg_end; ++m) {
              const Msg& msg = pr.msgs[static_cast<std::size_t>(m)];
              const double w =
                  fabric.inject(pr.route(msg), msg.bytes, finished);
              if (w > wait) wait = w;
            }
            tenant_wait[static_cast<std::size_t>(
                tenant_of[static_cast<std::size_t>(f)])] += wait;
            arrival = finished + oe.delay_s + wait;
          }
          deliver(f, oe.consumer, arrival);
        }
        break;
      }
      case kFault: {
        // The chiplet and its router die. Revoke every in-flight task (the
        // unexecuted remainder is handed back; the executed slice stays in
        // chiplet_busy as wasted work), flush all calendars, and stall
        // dispatch until the reschedule penalty elapses.
        const double resume = now + std::max(fault.reschedule_penalty_s, 0.0);
        for (int c = 0; c < nc; ++c) {
          if (chiplet_free[static_cast<std::size_t>(c)] > now) {
            chiplet_busy[static_cast<std::size_t>(c)] -=
                chiplet_free[static_cast<std::size_t>(c)] - now;
          }
          pending[static_cast<std::size_t>(c)].clear();
          ready[static_cast<std::size_t>(c)].clear();
          chiplet_free[static_cast<std::size_t>(c)] = c == dead ? inf : resume;
          wake[static_cast<std::size_t>(c)] = c == dead ? inf : resume;
          if (c != dead) post(Ev{resume, kDispatch, c, 0, 0, 0});
        }
        // Cold-start weight reloads (memory model active only; the plans
        // are empty otherwise): every tenant's remap destinations refill
        // their newly-resident weights from DRAM over the NoP ingress
        // route. Transfers to one chiplet serialize on its reload port, so
        // the chiplet resumes dispatch only after the reschedule stall AND
        // its reloads land. Charged for every tenant at the fault instant —
        // re-replication starts the moment the fault is known, whether or
        // not a frame later runs the degraded program.
        for (int t = 0; t < num_tenants; ++t) {
          const DegradedEntry& de = *ctx[static_cast<std::size_t>(t)].degraded;
          for (const ReloadPlan& rp : de.fault_reloads) {
            double wait = 0.0;
            if (contended && !rp.route.empty()) {
              wait = fabric.inject(rp.route, rp.bytes, now);
              tenant_wait[static_cast<std::size_t>(t)] += wait;
            }
            const double delay = rp.delay_s + wait;
            const std::size_t c = static_cast<std::size_t>(rp.dense_chiplet);
            chiplet_free[c] += delay;
            wake[c] = chiplet_free[c];
            post(Ev{chiplet_free[c], kDispatch, rp.dense_chiplet, 0, 0, 0});
            result.reload_bytes += rp.bytes;
            result.reload_time_s += delay;
          }
        }
        // Flush incomplete frames onto the remapped schedule; drop the ones
        // whose deadline already expired. Shed frames are already out of
        // the system and are skipped.
        for (int f = 0; f < jobs; ++f) {
          if (frame_done[static_cast<std::size_t>(f)] ||
              frame_shed[static_cast<std::size_t>(f)]) {
            continue;
          }
          ++epoch_of[static_cast<std::size_t>(f)];
          const double admit_t = admit_of[static_cast<std::size_t>(f)];
          if (admit_t > now) continue;  // not yet admitted
          const double deadline =
              streams[static_cast<std::size_t>(
                          tenant_of[static_cast<std::size_t>(f)])].deadline;
          if (deadline > 0.0 && resume - admit_t > deadline) {
            frame_dropped[static_cast<std::size_t>(f)] = 1;
            continue;
          }
          TenantCtx& c =
              ctx[static_cast<std::size_t>(tenant_of[static_cast<std::size_t>(f)])];
          prog_of[static_cast<std::size_t>(f)] = &c.degraded->prog;
          c.degraded_used = true;
          init_frame(f);
          // The re-admitted frame is queued again in the new epoch (and so
          // shed-eligible again); its queue delay stays attributed to the
          // FIRST dispatch (frame_qd_done is sticky).
          frame_started[static_cast<std::size_t>(f)] = 0;
          admit_frame(f, now);
        }
        // The flush invalidated the incremental queue accounting (started
        // flags were reset, deadline drops left the queue): recompute it
        // wholesale. Every kAdmit at time <= now has already popped (kAdmit
        // sorts before kFault at equal timestamps).
        std::fill(queue_len.begin(), queue_len.end(), 0);
        for (int f = 0; f < jobs; ++f) {
          const std::size_t k = static_cast<std::size_t>(f);
          if (admit_of[k] <= now && !frame_done[k] && !frame_dropped[k] &&
              !frame_shed[k] && !frame_started[k]) {
            ++queue_len[static_cast<std::size_t>(tenant_of[k])];
          }
        }
        break;
      }
      case kRecover: {
        // The chiplet rejoins; frames admitted from now on use the primary
        // schedule again (the kAdmit regime check), frames in flight keep
        // their degraded placement — no second flush. The dispatch kick is
        // required: a frame admitted at this exact instant already enqueued
        // work here (kAdmit and its kDispatch both sort before kRecover at
        // equal timestamps) and bounced off the still-infinite calendar.
        chiplet_free[static_cast<std::size_t>(dead)] = now;
        // Cold SRAM (memory model active only): the revived chiplet
        // re-fills each tenant's primary-resident weights before accepting
        // work, serialized on its reload port.
        for (int t = 0; t < num_tenants; ++t) {
          const ReloadPlan& rp =
              ctx[static_cast<std::size_t>(t)].degraded->recover_reload;
          if (rp.bytes <= 0.0) continue;
          double wait = 0.0;
          if (contended && !rp.route.empty()) {
            wait = fabric.inject(rp.route, rp.bytes, now);
            tenant_wait[static_cast<std::size_t>(t)] += wait;
          }
          const double delay = rp.delay_s + wait;
          chiplet_free[static_cast<std::size_t>(dead)] += delay;
          result.reload_bytes += rp.bytes;
          result.reload_time_s += delay;
        }
        wake[static_cast<std::size_t>(dead)] =
            chiplet_free[static_cast<std::size_t>(dead)];
        post(Ev{chiplet_free[static_cast<std::size_t>(dead)], kDispatch, dead,
                0, 0, 0});
        break;
      }
      case kDispatch:
      default: {
        const std::size_t c = static_cast<std::size_t>(ev.a);
        if (wake[c] == now) wake[c] = inf;  // the armed dispatch fired
        // Busy: the completion dispatch riding on the running task's
        // kFinish will re-check.
        if (!free_at(ev.a, now)) {
          ++stats.busy_dispatches;
          break;
        }
        auto& pend = pending[c];
        auto& rdy = ready[c];
        while (!pend.empty() && pend.top().ready <= now + kTimeEps) {
          rdy.push(ReadyShard{pend.top().rank, pend.top().job,
                              pend.top().item, pend.top().shard});
          pend.pop();
        }
        if (shed_any) {
          // Dispatch-set re-formation: before committing the chiplet,
          // evict shed frames' stale heap entries, and under shed_expired
          // evict queued frames whose deadline has already passed — online
          // decisions made against what is queued NOW.
          while (!rdy.empty()) {
            const int j = rdy.top().job;
            const std::size_t jk = static_cast<std::size_t>(j);
            if (frame_shed[jk]) {
              rdy.pop();
              continue;
            }
            const int tn = tenant_of[jk];
            const StreamSpec& st = streams[static_cast<std::size_t>(tn)];
            if (st.admission->shed_expired && st.deadline > 0.0 &&
                !frame_started[jk] && now - admit_of[jk] >= st.deadline) {
              frame_shed[jk] = 1;
              ++shed_count[static_cast<std::size_t>(tn)];
              --queue_len[static_cast<std::size_t>(tn)];
              rdy.pop();
              continue;
            }
            break;
          }
        }
        if (rdy.empty()) {
          if (!pend.empty()) arm(ev.a, pend.top().ready);
          break;
        }
        const ReadyShard task = rdy.top();
        rdy.pop();
        if (!frame_started[static_cast<std::size_t>(task.job)]) {
          // The frame leaves the queue: it can no longer be shed, and its
          // queue delay (admission -> first dispatch) is attributed once
          // (sticky across fault flushes, which reset frame_started).
          frame_started[static_cast<std::size_t>(task.job)] = 1;
          const int tn = tenant_of[static_cast<std::size_t>(task.job)];
          --queue_len[static_cast<std::size_t>(tn)];
          if (!frame_qd_done[static_cast<std::size_t>(task.job)]) {
            frame_qd_done[static_cast<std::size_t>(task.job)] = 1;
            const double qd =
                now - admit_of[static_cast<std::size_t>(task.job)];
            qd_sum[static_cast<std::size_t>(tn)] += qd;
            if (qd > qd_peak[static_cast<std::size_t>(tn)]) {
              qd_peak[static_cast<std::size_t>(tn)] = qd;
            }
            ++qd_count[static_cast<std::size_t>(tn)];
          }
        }
        const double service =
            prog_of[static_cast<std::size_t>(task.job)]
                ->shards_of(task.item)[static_cast<std::size_t>(task.shard)]
                .service_s;
        const double done = now + service;
        chiplet_free[c] = done;
        chiplet_busy[c] += service;
        ++result.tasks_executed;
        wake[c] = done;
        // A pending shard that becomes ready within kTimeEps before `done`
        // finds the chiplet free by the same test, so it is dispatched at
        // its ready time, ahead of the completion.
        const double early = pend.least_key(
            [](const PendingShard& p) { return p.ready; },
            [&](double r) { return free_at(ev.a, r); }, done);
        if (early < done) arm(ev.a, early);
        post(Ev{done, kFinish, task.job, task.item,
                epoch_of[static_cast<std::size_t>(task.job)], ev.a});
        break;
      }
    }
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (faulted || shed_any) {
    // Dropped and shed frames carry NaN; every other offered frame must
    // have completed (conservation, per tenant and in aggregate:
    // frames == completed + dropped + shed).
    for (int f = 0; f < jobs; ++f) {
      if (frame_dropped[static_cast<std::size_t>(f)] ||
          frame_shed[static_cast<std::size_t>(f)]) {
        result.frame_completion_s[static_cast<std::size_t>(f)] = nan;
      } else if (!frame_done[static_cast<std::size_t>(f)]) {
        throw std::logic_error(
            "simulate_schedule: admitted frame neither completed nor "
            "dropped (conservation violated)");
      }
    }
  } else if (multi || open) {
    for (int f = 0; f < jobs; ++f) {
      if (!frame_done[static_cast<std::size_t>(f)]) {
        throw std::logic_error(
            "simulate_schedule: admitted frame never completed "
            "(conservation violated)");
      }
    }
  }

  // The generalized (multi-tenant-style) reduction handles every new
  // regime — open-loop admission and/or active admission control — even
  // for a single stream; the legacy single-stream branch below is entered
  // ONLY in the bitwise-pinned pre-arrivals regime, keeping its float-op
  // sequence untouched.
  const bool legacy_single = !multi && !open && !shed_any;
  if (legacy_single) {
    // Single stream: exactly the pre-serving reductions, so an implicit
    // single stream — and an explicit one-tenant list with the same
    // parameters — is bitwise-identical to the legacy simulator
    // (regression-pinned in tests/test_sim.cc). The percentile() calls of
    // the one-shot code become one scratch sort + rank reads: identical
    // math over the identical sorted data, minus the per-call copies.
    const int frames = streams.front().frames;
    const double interval = streams.front().interval;
    if (!faulted) {
      result.first_frame_latency_s = result.frame_completion_s.front();
      result.makespan_s = result.frame_completion_s.back();
      if (frames >= 4) {
        const int half = frames / 2;
        result.steady_interval_s =
            (result.frame_completion_s[static_cast<std::size_t>(frames - 1)] -
             result.frame_completion_s[static_cast<std::size_t>(half - 1)]) /
            static_cast<double>(frames - half);
      } else {
        // Documented degradation (see SimResult): with no steady half to
        // measure, fill latency folds into the mean and this is
        // makespan / frames.
        result.steady_interval_s =
            result.makespan_s / static_cast<double>(frames);
      }
      result.frame_latency_s.reserve(static_cast<std::size_t>(frames));
      for (int f = 0; f < frames; ++f) {
        result.frame_latency_s.push_back(
            result.frame_completion_s[static_cast<std::size_t>(f)] -
            static_cast<double>(f) * interval);
      }
      // percentile() poisons on any NaN; mirror that (it cannot fire here
      // — no fault means no drops — but exactness is the contract).
      bool any_nan = false;
      for (const double x : result.frame_latency_s) {
        if (std::isnan(x)) any_nan = true;
      }
      if (any_nan) {
        result.p50_latency_s = nan;
        result.p95_latency_s = nan;
        result.p99_latency_s = nan;
      } else {
        scr_lat.assign(result.frame_latency_s.begin(),
                       result.frame_latency_s.end());
        std::sort(scr_lat.begin(), scr_lat.end());
        result.p50_latency_s = percentile_sorted(scr_lat, 50.0);
        result.p95_latency_s = percentile_sorted(scr_lat, 95.0);
        result.p99_latency_s = percentile_sorted(scr_lat, 99.0);
      }
      result.frames_completed = frames;
      result.peak_latency_s = max_of(result.frame_latency_s);
    } else {
      // Fault-aware reductions: dropped frames are excluded from every
      // aggregate.
      result.frame_latency_s.reserve(static_cast<std::size_t>(frames));
      scr_times.clear();
      scr_lat.clear();
      for (int f = 0; f < frames; ++f) {
        const double lat =
            result.frame_completion_s[static_cast<std::size_t>(f)] -
            static_cast<double>(f) * interval;
        result.frame_latency_s.push_back(lat);
        if (frame_done[static_cast<std::size_t>(f)]) {
          scr_times.push_back(
              result.frame_completion_s[static_cast<std::size_t>(f)]);
          scr_lat.push_back(lat);
        }
      }
      std::sort(scr_times.begin(), scr_times.end());
      const int n = static_cast<int>(scr_times.size());
      result.frames_completed = n;
      result.dropped_frames = frames - n;
      result.first_frame_latency_s = result.frame_latency_s.front();
      result.makespan_s = n > 0 ? scr_times.back() : nan;
      if (n >= 4) {
        const int half = n / 2;
        result.steady_interval_s =
            (scr_times[static_cast<std::size_t>(n - 1)] -
             scr_times[static_cast<std::size_t>(half - 1)]) /
            static_cast<double>(n - half);
      } else if (n > 0) {
        result.steady_interval_s = result.makespan_s / static_cast<double>(n);
      } else {
        result.steady_interval_s = nan;
      }
      // scr_lat holds the NaN-free completed latencies; peak before the
      // sort is max_of either way (order-independent).
      result.peak_latency_s = max_of(scr_lat);
      std::sort(scr_lat.begin(), scr_lat.end());
      result.p50_latency_s = percentile_sorted(scr_lat, 50.0);
      result.p95_latency_s = percentile_sorted(scr_lat, 95.0);
      result.p99_latency_s = percentile_sorted(scr_lat, 99.0);
      result.remapped_items =
          ctx.front().degraded_used
              ? ctx.front().degraded->remap_stats.touched_items
              : 0;
      result.recovery_time_s = recovery_after_fault(
          result.frame_latency_s, result.frame_completion_s, fault.fail_time_s,
          scr_recovery);
    }
    if (streams.front().deadline > 0.0) {
      for (int f = 0; f < frames; ++f) {
        if (!std::isnan(result.frame_latency_s[static_cast<std::size_t>(f)]) &&
            result.frame_latency_s[static_cast<std::size_t>(f)] >
                streams.front().deadline) {
          ++result.deadline_miss_frames;
        }
      }
    }
  } else {
    // Generalized package-level reductions over the tenant-major job
    // stream: aggregates cover every completed frame of every tenant,
    // through the same reduce_tail the per-tenant slices use. Latency is
    // measured from the REALIZED admission instant (admit_of), which for
    // closed-loop streams holds exactly the legacy f * interval products.
    result.frame_latency_s.reserve(static_cast<std::size_t>(jobs));
    for (int f = 0; f < jobs; ++f) {
      result.frame_latency_s.push_back(
          result.frame_completion_s[static_cast<std::size_t>(f)] -
          admit_of[static_cast<std::size_t>(f)]);
    }
    const TailStats tail = reduce_tail(result.frame_latency_s,
                                       result.frame_completion_s, scr_lat,
                                       scr_times);
    int shed_total = 0;
    for (int t = 0; t < num_tenants; ++t) {
      shed_total += shed_count[static_cast<std::size_t>(t)];
    }
    result.frames_completed = tail.completed;
    result.shed_frames = shed_total;
    result.dropped_frames = jobs - tail.completed - shed_total;
    result.first_frame_latency_s = result.frame_latency_s.front();
    result.makespan_s = tail.makespan_s;
    // The steady-interval estimator assumes periodic admission; under any
    // open-loop stream it would conflate queueing with the service
    // interval, so it is a documented NaN (see SimResult).
    result.steady_interval_s = open ? nan : tail.steady_interval_s;
    result.p50_latency_s = tail.p50_s;
    result.p95_latency_s = tail.p95_s;
    result.p99_latency_s = tail.p99_s;
    result.peak_latency_s = tail.peak_s;
  }

  // Per-tenant slices (one entry even for single-stream runs).
  for (int t = 0; t < num_tenants; ++t) {
    const TenantCtx& c = ctx[static_cast<std::size_t>(t)];
    const std::size_t tk = static_cast<std::size_t>(t);
    const double qd_mean =
        qd_count[tk] > 0 ? qd_sum[tk] / static_cast<double>(qd_count[tk])
                         : nan;
    reduce_tenant_into(streams[tk],
                       result.frame_completion_s.data() + c.job_base,
                       admit_of.data() + c.job_base, shed_count[tk],
                       streams[tk].arrivals->active(), tenant_wait[tk],
                       qd_mean, qd_count[tk] > 0 ? qd_peak[tk] : nan,
                       scr_lat, scr_times, result.tenants[tk]);
  }
  if (!legacy_single) {
    for (const TenantResult& tr : result.tenants) {
      result.deadline_miss_frames += tr.deadline_miss_frames;
    }
    if (faulted) {
      // Remap accounting and the recovery spike, per tenant (latency
      // scales differ across tenants, so a package-level baseline would
      // be meaningless); the package recovers when its slowest tenant has.
      for (int t = 0; t < num_tenants; ++t) {
        const TenantCtx& c = ctx[static_cast<std::size_t>(t)];
        if (c.degraded_used) {
          result.remapped_items += c.degraded->remap_stats.touched_items;
        }
        const TenantResult& tr = result.tenants[static_cast<std::size_t>(t)];
        result.recovery_time_s = std::max(
            result.recovery_time_s,
            recovery_after_fault(tr.frame_latency_s, tr.frame_completion_s,
                                 fault.fail_time_s, scr_recovery));
      }
    }
  }
  result.chiplet_busy_s.assign(chiplet_busy.begin(),
                               chiplet_busy.begin() + nc);
  if (contended) {
    collect_run_links(faulted);
    fabric.stats_into(result.makespan_s, run_links, result.link_stats);
  }
  ++stats.runs;
}

SimEngine::SimEngine() : impl_(std::make_unique<Impl>()) {}
SimEngine::~SimEngine() = default;
SimEngine::SimEngine(SimEngine&&) noexcept = default;
SimEngine& SimEngine::operator=(SimEngine&&) noexcept = default;

SimResult SimEngine::run(const Schedule& schedule, const SimOptions& options) {
  SimResult out;
  impl_->run_into(schedule, options, out);
  return out;
}

void SimEngine::run_into(const Schedule& schedule, const SimOptions& options,
                         SimResult& out) {
  impl_->run_into(schedule, options, out);
}

void SimEngine::reset() { impl_->reset(); }

const EngineStats& SimEngine::stats() const { return impl_->stats; }

SimResult simulate_schedule(const Schedule& schedule, const SimOptions& options) {
  // Full static verification up front (src/analysis/validate.h): every
  // enforced rule replays the legacy in-engine throw (same type, same
  // precedence), so this rejects exactly what the engine always rejected —
  // with a rule ID and locus. The engine's own cheap precondition checks
  // below then never fire on this path; SimEngine::run keeps them because
  // DSE loops calling a warm engine cannot afford the deep analyses.
  analysis::validate_or_throw(schedule, options);
  SimEngine engine;
  return engine.run(schedule, options);
}

}  // namespace cnpu
