// The event simulator's event record, its order, and the sorted calendar
// the event loop pops from (see docs/ARCHITECTURE.md, "Event loop").
// Internal to src/sim/event_sim.cc; a header so that tests can drive the
// calendar against a reference priority queue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace cnpu::evsim {

// Event kinds, in tie-break order at equal timestamps: frame admissions
// first (so ingress messages claim links before same-instant completions),
// then shard finishes (so freed dependents are visible), then dispatches,
// then the fault flush (so same-instant work lands before the machine is
// flushed, keeping the boundary well-defined), then recovery.
enum EvKind : int {
  kAdmit = 0,
  kFinish = 1,
  kDispatch = 2,
  kFault = 3,
  kRecover = 4,
};

struct Ev {
  double time;
  int kind;
  int a;  // admit: frame; finish: frame; dispatch: dense chiplet
  int b;  // finish: item
  int c;  // finish: frame epoch at dispatch (stale-event filter)
  int chiplet;  // finish: dense chiplet that ran the task (not ordered)
};

// Total over the ordered fields (time, kind, a, b, c); `chiplet` is not
// ordered (see EventCalendar for the one tie that leaves).
struct EvAfter {
  bool operator()(const Ev& x, const Ev& y) const {
    if (x.time != y.time) return x.time > y.time;
    if (x.kind != y.kind) return x.kind > y.kind;
    if (x.a != y.a) return x.a > y.a;
    if (x.b != y.b) return x.b > y.b;
    return x.c > y.c;
  }
};

// The pending events, sorted latest first so the soonest under EvAfter is
// at the back: a pop is pop_back, and a push is a binary search for the
// insertion point followed by one vector::insert. The search branches on
// each comparison; new events land at predictable depths, so the branches
// predict well, while a select-based (branch-free) search chains every
// probe's load behind the previous comparison and measured level with the
// binary heap this calendar replaced. The loop keeps few
// events live (one admission per tenant, a finish per busy chiplet, the
// armed dispatches, the fault and recovery, and finishes a fault made
// stale; EngineStats::event_heap_high_water, 19-27 on the benchmark
// shapes), so the insert's shift is a short memmove, and clear() keeps
// the capacity, so a warm engine's pushes do not allocate.
//
// The pop sequence is the one a binary heap under EvAfter pops, up to the
// order of events equal under EvAfter. EvAfter is total over its fields,
// so two live events equal under it are either the same dispatch
// (interchangeable) or two shard finishes of one item at one instant that
// differ only in `chiplet`. Those do the same work in either order: both
// decrement the item's shard count, the second completes it, and both
// chiplets join the dispatch lane (least chiplet first) before any
// dispatch pops. A new event goes in front of its equals, so equals pop
// first in, first out.
class EventCalendar {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  const Ev& top() const { return v_.back(); }
  void pop() { v_.pop_back(); }
  void clear() { v_.clear(); }

  void push(const Ev& e) {
    // In front of the first entry that pops no later than e.
    const auto at = std::partition_point(
        v_.begin(), v_.end(), [&](const Ev& x) { return EvAfter{}(x, e); });
    v_.insert(at, e);
  }

 private:
  std::vector<Ev> v_;
};

}  // namespace cnpu::evsim
