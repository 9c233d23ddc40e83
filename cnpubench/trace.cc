// Span recording, per-layer self times, and the Chrome trace-event export.
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.h"
#include "util/json.h"

namespace cnpu::bench {

int Tracer::open(const char* name, long point) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.point = point;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

LayerTotals TraceSummary::get(const std::string& name) const {
  for (const auto& [n, t] : layers) {
    if (n == name) return t;
  }
  return {};
}

double TraceSummary::self_per_call_ns(const std::string& name) const {
  const LayerTotals t = get(name);
  return t.calls > 0 ? t.self_ns / static_cast<double>(t.calls) : 0.0;
}

TraceSummary summarize(const TraceSet& trace) {
  std::map<std::string, LayerTotals> by_name;
  TraceSummary out;
  for (const Tracer& tracer : trace.tracers()) {
    const std::vector<Span>& spans = tracer.spans();
    const std::size_t n = spans.size();
    std::vector<std::int64_t> child_ns(n, 0);
    std::vector<bool> bad_root(n, false);
    std::vector<int> root(n, 0);
    // A parent is always recorded before its children.
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      if (s.parent < 0) {
        root[i] = static_cast<int>(i);
        continue;
      }
      const auto p = static_cast<std::size_t>(s.parent);
      root[i] = root[p];
      child_ns[p] += s.end_ns - s.start_ns;
      if (s.start_ns < spans[p].start_ns || s.end_ns > spans[p].end_ns ||
          s.point != spans[static_cast<std::size_t>(root[i])].point) {
        bad_root[static_cast<std::size_t>(root[i])] = true;
      }
    }
    std::vector<std::int64_t> tree_self_ns(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const std::int64_t self = dur - child_ns[i];
      if (self < 0) bad_root[static_cast<std::size_t>(root[i])] = true;
      tree_self_ns[static_cast<std::size_t>(root[i])] += self;
      LayerTotals& t = by_name[s.name];
      ++t.calls;
      t.self_ns += static_cast<double>(self);
      t.total_ns += static_cast<double>(dur);
      t.count += s.count;
    }
    const std::map<long, std::int64_t> host_ns(
        tracer.point_host_ns().begin(), tracer.point_host_ns().end());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0 || std::string(s.name) != "point") continue;
      ++out.points;
      out.point_ns += static_cast<double>(s.end_ns - s.start_ns);
      const auto host = host_ns.find(s.point);
      if (bad_root[i] || host == host_ns.end() ||
          tree_self_ns[i] > host->second) {
        ++out.inconsistent_points;
      }
    }
  }
  out.layers.assign(by_name.begin(), by_name.end());
  return out;
}

bool write_and_verify_chrome_trace(const TraceSet& trace,
                                   const std::string& path,
                                   std::string& error) {
  std::int64_t t0 = 0;
  bool have_t0 = false;
  std::size_t total = 0;
  for (const Tracer& tracer : trace.tracers()) {
    for (const Span& s : tracer.spans()) {
      if (!have_t0 || s.start_ns < t0) t0 = s.start_ns;
      have_t0 = true;
      ++total;
    }
  }

  JsonWriter w;
  w.begin_object().key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  for (std::size_t tid = 0; tid < trace.tracers().size(); ++tid) {
    for (const Span& s : trace.tracers()[tid].spans()) {
      w.begin_object()
          .key("name").value(s.name)
          .key("ph").value("X")
          .key("pid").value(1)
          .key("tid").value(static_cast<int>(tid))
          .key("ts").value_precise(static_cast<double>(s.start_ns - t0) * 1e-3)
          .key("dur").value_precise(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      w.key("args")
          .begin_object()
          .key("point").value(static_cast<double>(s.point))
          .key("parent").value(s.parent)
          .key("count").value_precise(s.count)
          .end_object();
      w.end_object();
    }
  }
  w.end_array().end_object();
  if (!w.complete()) {
    error = "trace JSON left a container open";
    return false;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.str();
    if (!out.good()) {
      error = "cannot write trace file " + path;
      return false;
    }
  }

  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  try {
    const JsonValue doc = parse_json(text.str());
    const JsonValue& events = doc.at("traceEvents");
    if (events.size() != total) {
      error = "trace round-trip lost events: wrote " + std::to_string(total) +
              ", parsed " + std::to_string(events.size());
      return false;
    }
    std::size_t i = 0;
    for (const Tracer& tracer : trace.tracers()) {
      for (const Span& s : tracer.spans()) {
        const JsonValue& e = events.at(i++);
        if (e.at("name").as_string() != s.name ||
            e.at("ph").as_string() != "X" ||
            e.at("args").at("parent").as_int() != s.parent) {
          error = "trace round-trip changed event " + std::to_string(i - 1);
          return false;
        }
      }
    }
  } catch (const std::exception& e) {
    error = std::string("trace JSON does not parse: ") + e.what();
    return false;
  }
  return true;
}

}  // namespace cnpu::bench
