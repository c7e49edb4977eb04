#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "json.hpp"

namespace e2e {

void TraceLog::wall_span(std::uint64_t id, const std::string& name,
                         const std::string& cat, Clock::time_point start,
                         Clock::time_point end, std::uint64_t parent,
                         std::map<std::string, double> args) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ts_us = us_since_origin(start);
  e.dur_us = us_since_origin(end) - e.ts_us;
  e.id = id;
  e.parent = parent;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceLog::counter(const std::string& name, Clock::time_point at,
                       double value) {
  Event e;
  e.ph = 'C';
  e.name = name;
  e.ts_us = us_since_origin(at);
  e.args["value"] = value;
  events_.push_back(std::move(e));
}

std::uint64_t TraceLog::sim_span(const std::string& name,
                                 const std::string& cat, int tid,
                                 double start_s, double end_s,
                                 std::uint64_t trace_id, std::uint64_t parent,
                                 std::map<std::string, std::string> labels) {
  Event e;
  e.pid = 2;
  e.tid = tid;
  e.name = name;
  e.cat = cat;
  e.ts_us = start_s * 1e6;
  e.dur_us = (end_s - start_s) * 1e6;
  const std::uint64_t id = reserve_id();
  e.id = id;
  e.parent = parent;
  e.trace_id = trace_id;
  e.labels = std::move(labels);
  events_.push_back(std::move(e));
  return id;
}

void TraceLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // Track names, so the two clocks are labelled in the viewer.
  out << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
         "\"args\": {\"name\": \"wall (host time)\"}},\n"
      << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, "
         "\"args\": {\"name\": \"sim-time adaptations\"}}";
  for (const Event& e : events_) {
    JsonObject args;
    for (const auto& [k, v] : e.args) args.num(k, v);
    for (const auto& [k, v] : e.labels) args.str(k, v);
    if (e.id) args.count("id", e.id);
    if (e.parent) args.count("parent", e.parent);
    if (e.trace_id) args.count("trace_id", e.trace_id);
    JsonObject ev;
    ev.str("name", e.name)
        .str("ph", std::string(1, e.ph))
        .num("ts", e.ts_us)
        .count("pid", static_cast<std::uint64_t>(e.pid))
        .count("tid", static_cast<std::uint64_t>(e.tid));
    if (e.ph == 'X') ev.str("cat", e.cat).num("dur", e.dur_us);
    ev.object("args", args);
    out << ",\n" << ev.dump();
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace e2e
