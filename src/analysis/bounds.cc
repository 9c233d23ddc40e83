#include "analysis/bounds.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "util/table.h"

namespace cnpu::analysis {
namespace {

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", s);
  return std::string(buf) + " s";
}

std::string fmt_ms(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", s * 1e3);
  return std::string(buf);
}

std::string fmt_gbps(double bytes_per_s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", bytes_per_s / 1e9);
  return std::string(buf) + " GB/s";
}

std::string fmt_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", r);
  return std::string(buf);
}

// One admitted stream, resolved exactly like SimEngine's run_into resolves
// SimOptions (implicit single stream vs explicit tenants) — the same
// resolution validate.cc's collect_sim performs.
struct StreamRef {
  const Schedule* sched = nullptr;
  std::string locus;
  std::string name;
  double deadline_s = 0.0;
  double frame_interval_s = 0.0;
  const ArrivalSpec* arrivals = nullptr;
};

// Bounds require a structurally sound stream (every item assigned, every
// shard chiplet present, so every shard priced): anything the S/T
// structural rules would flag is skipped rather than re-diagnosed here.
bool structurally_clean(const Schedule& s) {
  for (int i = 0; i < s.num_items(); ++i) {
    const Placement& p = s.placement(i);
    if (!p.assigned()) return false;
    for (const ShardAssignment& sh : p.shards) {
      if (!(sh.fraction > 0.0) || !std::isfinite(sh.fraction)) return false;
      if (sh.slot < 0) return false;
    }
  }
  return s.num_items() > 0;
}

// One route link's share of a stream's per-frame bytes.
struct LinkBytes {
  NopLink link;
  double bytes = 0.0;
};

// Orders by link; std::stable_sort keeps each link's bytes in the order
// they were added, so folding a run of equal links sums them exactly as a
// per-link accumulator fed in that order would.
bool by_link(const LinkBytes& a, const LinkBytes& b) {
  return a.link < b.link;
}

// Buffers compute_bounds reuses across its streams.
struct BoundsScratch {
  std::vector<NopLink> route;
  std::vector<LinkBytes> hops;    // every route link crossed, in order
  std::vector<LinkBytes> links;   // this stream's bytes per link
  std::vector<double> slot_busy;  // this stream's busy s/frame per slot
  struct Edge {
    int consumer;
    int producer;
    double delay_s;
  };
  std::vector<Edge> edges;      // by consumer, then enumeration order
  std::vector<int> pred_begin;  // CSR into `edges` per consumer
  std::vector<double> lat;
  std::vector<double> ingress_delay;
  std::vector<double> complete;
  std::vector<char> expanding;
  std::vector<int> stack;
};

// Prices one stream into the returned bound plus `b.links` (NopLink
// order) and `b.slot_busy`, which the caller merges only when the whole
// stream priced: a stream that turns out unpriceable (a NoP edge the
// degraded package cannot route) throws and is dropped whole.
StreamBound price_stream(const StreamRef& v, const PackageConfig& pkg,
                         bool nop, BoundsScratch& b) {
  const Schedule& s = *v.sched;
  const auto n = static_cast<std::size_t>(s.num_items());
  StreamBound out;
  out.name = v.name;
  out.locus = v.locus;
  out.deadline_s = v.deadline_s;
  out.rate_known =
      mean_arrival_rate_fps(*v.arrivals, v.frame_interval_s, out.rate_fps);

  // Per-item compute roofline (max over shards — exactly the simulator's
  // per-shard task cost) and per-chiplet busy accumulation.
  std::fill(b.slot_busy.begin(), b.slot_busy.end(), 0.0);
  b.lat.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const ShardAssignment& sh : s.priced(static_cast<int>(i)).shards) {
      b.lat[i] = std::max(b.lat[i], sh.cost.latency_s);
      b.slot_busy[static_cast<std::size_t>(sh.slot)] += sh.cost.latency_s;
    }
  }

  // One enumeration pass builds both the dependency DAG (analytical edge
  // delays, matching build_program's delays) and the per-link byte
  // injection (matching the contended simulator's one-message-per-shard
  // fraction-scaled routing). Unroutable edges on a degraded package are
  // skipped — R001/R002 report them; skipping only lowers the bound.
  b.ingress_delay.assign(n, 0.0);
  b.hops.clear();
  b.edges.clear();
  b.edges.reserve(n);
  const auto add_route = [&](int from, int to, double bytes) {
    b.route.clear();
    try {
      if (from < 0) {
        pkg.route_from_io(to, b.route);
      } else {
        pkg.route_between(from, to, b.route);
      }
    } catch (const std::runtime_error&) {
      return;
    }
    for (const NopLink& l : b.route) b.hops.push_back(LinkBytes{l, bytes});
  };
  for_each_schedule_edge(
      s,
      [&](int item) {
        if (!nop) return;
        const int dst = s.placement(item).primary_chiplet();
        b.ingress_delay[static_cast<std::size_t>(item)] =
            nop_ingress_cost(pkg, dst).latency_s;
        add_route(-1, dst, kCameraInputBytes);
      },
      [&](int producer, int consumer, double bytes) {
        double delay = 0.0;
        if (nop) {
          delay = nop_gather_cost(pkg, s.placement(producer),
                                  s.placement(consumer), bytes)
                      .latency_s;
          const int dst = s.placement(consumer).primary_chiplet();
          for (const ShardAssignment& sh : s.placement(producer).shards) {
            add_route(sh.chiplet_id, dst, sh.fraction * bytes);
          }
        }
        b.edges.push_back({consumer, producer, delay});
      });
  std::stable_sort(b.edges.begin(), b.edges.end(),
                   [](const BoundsScratch::Edge& x,
                      const BoundsScratch::Edge& y) {
                     return x.consumer < y.consumer;
                   });
  b.pred_begin.assign(n + 1, 0);
  for (const BoundsScratch::Edge& e : b.edges) {
    ++b.pred_begin[static_cast<std::size_t>(e.consumer) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) b.pred_begin[i + 1] += b.pred_begin[i];

  // Longest path over the DAG: complete(i) = ready(i) + lat(i), ready(i) =
  // max(ingress delay, max over deps of complete(p) + edge delay).
  // Enumeration order is NOT topological (a prefix model may be listed
  // after its consumers), so memoize with an explicit DFS stack. The
  // schedule DAG is acyclic by construction; a pred found mid-expansion
  // (which only a malformed input could produce) is ignored — ignoring a
  // dependency can only lower the bound, keeping it sound.
  b.complete.assign(n, -1.0);
  b.expanding.assign(n, 0);
  b.stack.clear();
  for (std::size_t root = 0; root < n; ++root) {
    if (b.complete[root] >= 0.0) continue;
    b.stack.push_back(static_cast<int>(root));
    while (!b.stack.empty()) {
      const auto ti = static_cast<std::size_t>(b.stack.back());
      if (b.complete[ti] >= 0.0) {
        b.stack.pop_back();
        continue;
      }
      b.expanding[ti] = 1;
      const auto first = b.edges.begin() + b.pred_begin[ti];
      const auto last = b.edges.begin() + b.pred_begin[ti + 1];
      bool deps_ready = true;
      for (auto e = first; e != last; ++e) {
        const auto pi = static_cast<std::size_t>(e->producer);
        if (b.complete[pi] < 0.0 && b.expanding[pi] == 0) {
          b.stack.push_back(e->producer);
          deps_ready = false;
        }
      }
      if (!deps_ready) continue;
      double ready = b.ingress_delay[ti];
      for (auto e = first; e != last; ++e) {
        const auto pi = static_cast<std::size_t>(e->producer);
        if (b.complete[pi] < 0.0) continue;  // malformed-input cycle guard
        ready = std::max(ready, b.complete[pi] + e->delay_s);
      }
      b.complete[ti] = ready + b.lat[ti];
      b.expanding[ti] = 0;
      b.stack.pop_back();
    }
  }
  for (const double c : b.complete) {
    out.latency_bound_s = std::max(out.latency_bound_s, c);
  }

  std::stable_sort(b.hops.begin(), b.hops.end(), by_link);
  b.links.clear();
  for (const LinkBytes& h : b.hops) {
    if (b.links.empty() || !(b.links.back().link == h.link)) {
      b.links.push_back(LinkBytes{h.link, 0.0});
    }
    b.links.back().bytes += h.bytes;
  }
  for (const LinkBytes& l : b.links) out.bytes_per_frame += l.bytes;
  out.deadline_infeasible =
      v.deadline_s > 0.0 && out.latency_bound_s > v.deadline_s;
  return out;
}

}  // namespace

bool mean_arrival_rate_fps(const ArrivalSpec& arrivals,
                           double frame_interval_s, double& rate_fps) {
  rate_fps = 0.0;
  if (!arrivals.active()) {
    if (frame_interval_s > 0.0) {
      rate_fps = 1.0 / frame_interval_s;
      return true;
    }
    return false;  // t=0 burst: no steady admission rate exists
  }
  if (arrivals.kind == ArrivalKind::kTrace) return false;
  if (!(arrivals.rate_fps > 0.0)) return false;
  double scale = 1.0;
  if (!arrivals.profile.empty()) {
    double duration = 0.0;
    double weighted = 0.0;
    for (const RatePhase& ph : arrivals.profile) {
      if (!(ph.duration_s > 0.0) || ph.scale < 0.0) return false;
      duration += ph.duration_s;
      weighted += ph.duration_s * ph.scale;
    }
    scale = weighted / duration;
  }
  if (arrivals.kind == ArrivalKind::kBursty) {
    if (!(arrivals.on_mean_s > 0.0) || !(arrivals.off_mean_s > 0.0)) {
      return false;
    }
    scale *= (arrivals.on_mean_s * arrivals.on_scale +
              arrivals.off_mean_s * arrivals.off_scale) /
             (arrivals.on_mean_s + arrivals.off_mean_s);
  }
  rate_fps = arrivals.rate_fps * scale;
  if (!(rate_fps > 0.0)) {
    rate_fps = 0.0;
    return false;
  }
  return true;
}

BoundsReport compute_bounds(const Schedule& schedule,
                            const SimOptions& options) {
  const PackageConfig& pkg = schedule.package();
  BoundsReport report;
  report.nop_modeled = options.model_nop_delays;
  report.nop_mode = options.nop_mode;

  // Resolve the stream list exactly like run_into.
  std::vector<StreamRef> streams;
  if (options.tenants.empty()) {
    streams.push_back(StreamRef{&schedule, "schedule", "stream",
                                options.deadline_s, options.frame_interval_s,
                                &options.arrivals});
  } else {
    for (std::size_t t = 0; t < options.tenants.size(); ++t) {
      const TenantStream& ten = options.tenants[t];
      const Schedule* sched = ten.schedule != nullptr ? ten.schedule
                                                      : &schedule;
      if (&sched->package() != &pkg) continue;  // T003's job, not ours
      streams.push_back(StreamRef{
          sched, "tenant " + std::to_string(t) + " \"" + ten.name + "\"",
          ten.name, ten.deadline_s, ten.frame_interval_s, &ten.arrivals});
    }
  }

  const bool nop = options.model_nop_delays;
  const bool link_binding = nop && options.nop_mode == NopMode::kContended;
  const std::size_t slots = pkg.chiplets().size();
  BoundsScratch b;
  b.slot_busy.resize(slots);
  // Every priced stream's per-link bytes, stream-major, with the stream's
  // rate (negative when unknown); totals over streams per slot.
  std::vector<std::pair<LinkBytes, double>> link_rows;
  std::vector<double> busy(slots, 0.0);
  std::vector<double> demand(slots, 0.0);
  std::vector<const Schedule*> priced_scheds;
  for (const StreamRef& v : streams) {
    if (!structurally_clean(*v.sched)) continue;
    StreamBound bound;
    try {
      bound = price_stream(v, pkg, nop, b);
    } catch (const std::exception&) {
      continue;  // unpriceable (unroutable NoP edge): skip the stream
    }
    priced_scheds.push_back(v.sched);
    const double rate = bound.rate_known ? bound.rate_fps : -1.0;
    for (const LinkBytes& l : b.links) link_rows.emplace_back(l, rate);
    for (std::size_t k = 0; k < slots; ++k) {
      busy[k] += b.slot_busy[k];
      if (bound.rate_known && b.slot_busy[k] != 0.0) {
        demand[k] += bound.rate_fps * b.slot_busy[k];
      }
    }
    report.streams.push_back(std::move(bound));
  }

  const double capacity = pkg.nop().bandwidth_bytes_per_s;
  double uniform = 0.0;
  bool any_constraint = false;
  std::stable_sort(link_rows.begin(), link_rows.end(),
                   [](const auto& x, const auto& y) {
                     return by_link(x.first, y.first);
                   });
  for (std::size_t r = 0; r < link_rows.size();) {
    LinkBound lb;
    lb.link = link_rows[r].first.link;
    for (; r < link_rows.size() && link_rows[r].first.link == lb.link; ++r) {
      const auto& [row, rate] = link_rows[r];
      lb.bytes_per_frame += row.bytes;
      if (rate >= 0.0) lb.demand_bytes_per_s += rate * row.bytes;
    }
    lb.capacity_bytes_per_s = capacity;
    lb.utilization =
        capacity > 0.0 ? lb.demand_bytes_per_s / capacity : 0.0;
    lb.oversubscribed = link_binding && lb.demand_bytes_per_s > capacity;
    if (link_binding && lb.bytes_per_frame > 0.0 && capacity > 0.0) {
      const double cap_fps = capacity / lb.bytes_per_frame;
      uniform = any_constraint ? std::min(uniform, cap_fps) : cap_fps;
      any_constraint = true;
    }
    report.links.push_back(lb);
  }
  // Emit chiplet bounds in package order, idle chiplets included, so the
  // vector indexes like SimResult::chiplet_busy_s. Shards resolve a
  // repeated id to its first slot, so every chiplet reads that slot.
  report.chiplets.reserve(slots);
  for (const ChipletSpec& spec : pkg.chiplets()) {
    const auto k = static_cast<std::size_t>(pkg.slot_of(spec.id));
    ChipletBound cb;
    cb.chiplet_id = spec.id;
    cb.busy_s_per_frame = busy[k];
    cb.demand = demand[k];
    cb.oversubscribed = cb.demand > 1.0;
    if (cb.busy_s_per_frame > 0.0) {
      const double cap_fps = 1.0 / cb.busy_s_per_frame;
      uniform = any_constraint ? std::min(uniform, cap_fps) : cap_fps;
      any_constraint = true;
    }
    report.chiplets.push_back(cb);
  }
  report.uniform_rate_bound_fps = any_constraint ? uniform : 0.0;

  if (pkg.memory_model_active() && !priced_scheds.empty()) {
    report.residency = compute_residency(priced_scheds, pkg);
    report.residency_checked = true;
  }
  return report;
}

BoundsReport compute_bounds(const PackageConfig& package,
                            const std::vector<TenantWorkload>& tenants,
                            const ServingOptions& options) {
  // Place exactly like serve_tenants (same exceptions), then bound the
  // placed fleet through the SimOptions shape the ServingPlan would run.
  const TenantPlacement placement =
      place_tenants(tenants, package, options.policy);
  SimOptions sim;
  sim.model_nop_delays = options.model_nop_delays;
  sim.nop_mode = options.nop_mode;
  sim.fault = options.fault;
  sim.policy = options.policy;
  sim.tenants.reserve(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    TenantStream stream;
    stream.name = tenants[t].name.empty() ? "tenant" + std::to_string(t)
                                          : tenants[t].name;
    stream.schedule = &placement.schedules[t];
    stream.frames = tenants[t].frames;
    stream.frame_interval_s = tenants[t].frame_interval_s;
    stream.deadline_s = tenants[t].deadline_s;
    stream.priority = tenants[t].priority;
    stream.arrivals = tenants[t].arrivals;
    stream.admission = tenants[t].admission;
    sim.tenants.push_back(std::move(stream));
  }
  return compute_bounds(placement.schedules.front(), sim);
}

void collect_bound_diagnostics(const BoundsReport& report, Diagnostics& out) {
  for (const StreamBound& s : report.streams) {
    if (!s.deadline_infeasible) continue;
    out.add(kRuleBoundDeadline, s.locus,
            "static critical-path lower bound " +
                fmt_seconds(s.latency_bound_s) + " exceeds the deadline " +
                fmt_seconds(s.deadline_s) + ": every frame must miss");
  }
  for (const LinkBound& l : report.links) {
    if (!l.oversubscribed) continue;
    out.add(kRuleBoundLinkOversubscribed, "link " + l.link.describe(),
            fmt_gbps(l.demand_bytes_per_s) + " demanded of a " +
                fmt_gbps(l.capacity_bytes_per_s) + " link (utilization " +
                fmt_ratio(l.utilization) +
                "): the FIFO queue diverges at the admitted rate");
  }
  for (const ChipletBound& c : report.chiplets) {
    if (!c.oversubscribed) continue;
    out.add(kRuleBoundComputeOversubscribed,
            "chiplet " + std::to_string(c.chiplet_id),
            fmt_ratio(c.demand) +
                " chiplet-seconds demanded per second (busy " +
                fmt_seconds(c.busy_s_per_frame) +
                " per frame): the queue diverges at the admitted rate");
  }
  if (report.residency_checked && report.residency.overflow) {
    out.add(kRuleBoundResidency, "package",
            "co-resident streams overflow chiplet memory — " +
                report.residency.describe_overflow());
  }
}

Diagnostics bound_diagnostics(const BoundsReport& report) {
  Diagnostics out;
  collect_bound_diagnostics(report, out);
  return out;
}

std::string BoundsReport::table() const {
  std::string out;
  {
    Table t;
    t.set_header({"stream", "bound (ms)", "rate (fps)", "deadline (ms)",
                  "verdict"});
    for (const StreamBound& s : streams) {
      t.add_row({s.name, fmt_ms(s.latency_bound_s),
                 s.rate_known ? fmt_ratio(s.rate_fps) : "?",
                 s.deadline_s > 0.0 ? fmt_ms(s.deadline_s) : "-",
                 s.deadline_infeasible ? "statically dead" : "feasible"});
    }
    out += t.to_string();
  }
  // Hottest links / chiplets only: a 6x6 mesh easily touches dozens.
  constexpr std::size_t kTop = 8;
  if (!links.empty()) {
    std::vector<LinkBound> hot = links;
    std::sort(hot.begin(), hot.end(),
              [](const LinkBound& a, const LinkBound& b) {
                if (a.demand_bytes_per_s != b.demand_bytes_per_s) {
                  return a.demand_bytes_per_s > b.demand_bytes_per_s;
                }
                return a.bytes_per_frame > b.bytes_per_frame;
              });
    if (hot.size() > kTop) hot.resize(kTop);
    Table t;
    t.set_header({"link", "bytes/frame", "demand", "utilization",
                  "verdict"});
    for (const LinkBound& l : hot) {
      t.add_row({l.link.describe(), fmt_ratio(l.bytes_per_frame),
                 fmt_gbps(l.demand_bytes_per_s), fmt_ratio(l.utilization),
                 l.oversubscribed ? "oversubscribed" : "ok"});
    }
    out += t.to_string();
    if (links.size() > kTop) {
      out += "(" + std::to_string(links.size() - kTop) +
             " cooler link(s) elided)\n";
    }
  }
  {
    std::vector<ChipletBound> hot;
    for (const ChipletBound& c : chiplets) {
      if (c.busy_s_per_frame > 0.0) hot.push_back(c);
    }
    std::sort(hot.begin(), hot.end(),
              [](const ChipletBound& a, const ChipletBound& b) {
                if (a.demand != b.demand) return a.demand > b.demand;
                return a.busy_s_per_frame > b.busy_s_per_frame;
              });
    const std::size_t total = hot.size();
    if (hot.size() > kTop) hot.resize(kTop);
    if (!hot.empty()) {
      Table t;
      t.set_header({"chiplet", "busy/frame (ms)", "demand", "verdict"});
      for (const ChipletBound& c : hot) {
        t.add_row({std::to_string(c.chiplet_id), fmt_ms(c.busy_s_per_frame),
                   fmt_ratio(c.demand),
                   c.oversubscribed ? "oversubscribed" : "ok"});
      }
      out += t.to_string();
      if (total > kTop) {
        out += "(" + std::to_string(total - kTop) +
               " cooler chiplet(s) elided)\n";
      }
    }
  }
  out += "uniform-rate bound: " +
         (uniform_rate_bound_fps > 0.0 ? fmt_ratio(uniform_rate_bound_fps) +
                                             std::string(" fps")
                                       : std::string("none")) +
         "\n";
  if (residency_checked) {
    out += residency.overflow
               ? "residency: OVERFLOW — " + residency.describe_overflow() +
                     "\n"
               : "residency: fits\n";
  }
  return out;
}

void BoundsReport::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("nop_modeled").value(nop_modeled);
  w.key("nop_mode").value(nop_mode == NopMode::kContended ? "contended"
                                                          : "analytical");
  w.key("uniform_rate_bound_fps").value(uniform_rate_bound_fps);
  w.key("streams").begin_array();
  for (const StreamBound& s : streams) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("locus").value(s.locus);
    w.key("latency_bound_s").value_precise(s.latency_bound_s);
    w.key("rate_known").value(s.rate_known);
    w.key("rate_fps").value(s.rate_fps);
    w.key("deadline_s").value(s.deadline_s);
    w.key("deadline_infeasible").value(s.deadline_infeasible);
    w.key("bytes_per_frame").value(s.bytes_per_frame);
    w.end_object();
  }
  w.end_array();
  w.key("links").begin_array();
  for (const LinkBound& l : links) {
    w.begin_object();
    w.key("link").value(l.link.describe());
    w.key("bytes_per_frame").value(l.bytes_per_frame);
    w.key("demand_bytes_per_s").value(l.demand_bytes_per_s);
    w.key("capacity_bytes_per_s").value(l.capacity_bytes_per_s);
    w.key("utilization").value(l.utilization);
    w.key("oversubscribed").value(l.oversubscribed);
    w.end_object();
  }
  w.end_array();
  w.key("chiplets").begin_array();
  for (const ChipletBound& c : chiplets) {
    w.begin_object();
    w.key("chiplet").value(c.chiplet_id);
    w.key("busy_s_per_frame").value(c.busy_s_per_frame);
    w.key("demand").value(c.demand);
    w.key("oversubscribed").value(c.oversubscribed);
    w.end_object();
  }
  w.end_array();
  w.key("residency_checked").value(residency_checked);
  if (residency_checked) {
    w.key("residency_overflow").value(residency.overflow);
  }
  w.end_object();
}

std::string BoundsReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("bounds");
  write_json(w);
  w.end_object();
  return w.str();
}

}  // namespace cnpu::analysis
