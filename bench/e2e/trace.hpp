// In-memory span log for the traced run, exported as Chrome trace_event
// JSON (Perfetto and chrome://tracing open it as is).
//
// Two tracks:
//   pid 1 "wall"     — host-time spans the bench records around its own calls
//                      into the library (build, start, slices, restore,
//                      catch-up, the paper-fig11 part decorators), each with
//                      its own id and its parent's id, plus per-slice
//                      counter samples;
//   pid 2 "sim-time" — one span tree per adaptation, rebuilt from the
//                      repair records after the run (repair -> decision ->
//                      queries -> ops -> gauges), all sharing the repair's
//                      trace id. Timestamps are simulated microseconds.
// Everything stays in memory until write(); nothing here touches the
// program under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class TraceLog {
 public:
  TraceLog() : origin_(Clock::now()) {}

  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t reserve_id() { return ++next_id_; }
  /// Record a completed host-time span under a reserved id.
  void wall_span(std::uint64_t id, const std::string& name,
                 const std::string& cat, Clock::time_point start,
                 Clock::time_point end, std::uint64_t parent,
                 std::map<std::string, double> args = {});

  /// Sample a counter track at host time `at`.
  void counter(const std::string& name, Clock::time_point at, double value);

  /// Record a sim-time span on lane `tid` (tenant or seed index).
  std::uint64_t sim_span(const std::string& name, const std::string& cat,
                         int tid, double start_s, double end_s,
                         std::uint64_t trace_id, std::uint64_t parent,
                         std::map<std::string, std::string> labels = {});
  std::uint64_t new_trace_id() { return ++next_trace_; }

  /// Throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

 private:
  struct Event {
    char ph = 'X';
    int pid = 1;
    int tid = 0;
    std::string name;
    std::string cat;
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace_id = 0;
    std::map<std::string, double> args;
    std::map<std::string, std::string> labels;
  };
  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_trace_ = 0;
  std::vector<Event> events_;
};

/// Times one bench call. With a log, end() also records the span.
class Span {
 public:
  Span(TraceLog* log, std::string name, std::string cat,
       std::uint64_t parent = 0)
      : log_(log),
        name_(std::move(name)),
        cat_(std::move(cat)),
        parent_(parent),
        id_(log ? log->reserve_id() : 0),
        start_(Clock::now()) {}

  std::uint64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }
  /// Close the span and return its length in seconds.
  double end(std::map<std::string, double> args = {}) {
    const Clock::time_point stop = Clock::now();
    if (log_) {
      log_->wall_span(id_, name_, cat_, start_, stop, parent_,
                              std::move(args));
    }
    return seconds_between(start_, stop);
  }

 private:
  TraceLog* log_;
  std::string name_;
  std::string cat_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
};

}  // namespace e2e
