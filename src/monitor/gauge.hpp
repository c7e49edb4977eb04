// Gauges: the middle layer of the paper's monitoring infrastructure
// (Figure 4). A gauge consumes probe observations and interprets them as a
// higher-level architectural property ("the averageLatency of client
// User3"), periodically reporting on the gauge bus. Lifecycle (creation,
// deletion, relocation) is owned by the GaugeManager.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "events/bus.hpp"
#include "sim/simulator.hpp"
#include "util/ring_buffer.hpp"
#include "util/stats.hpp"
#include "util/symbol.hpp"

namespace arcadia::monitor {

/// Identity of a gauge: which model element and property it measures.
/// All names are interned eagerly at construction — specs are read
/// concurrently by the fleet's parallel shard sweep, so there must be no
/// lazy intern-on-first-use mutation behind a const accessor.
struct GaugeSpec {
  util::Symbol id;        ///< unique gauge id ("latency:User3")
  util::Symbol element;   ///< model element address ("User3",
                          ///  "Conn_User3.clientSide")
  util::Symbol property;  ///< property name ("averageLatency", "load", ...)
  sim::NodeId host_node = sim::kNoNode;  ///< machine the gauge runs on

  /// Interned `element`, used for grouping/redeploy lookups.
  util::Symbol element_symbol() const { return element; }
};

/// Base class. Subclasses define which probe notifications feed the gauge
/// and how observations aggregate into the reported value.
class Gauge {
 public:
  Gauge(sim::Simulator& sim, GaugeSpec spec)
      : sim_(sim), spec_(std::move(spec)) {}
  virtual ~Gauge() = default;

  const GaugeSpec& spec() const { return spec_; }

  /// The probe-bus filter selecting this gauge's input observations.
  virtual events::Filter probe_filter() const = 0;
  /// Ingest one observation.
  virtual void consume(const events::Notification& n) = 0;
  /// Current interpreted value; std::nullopt when there is no data yet.
  virtual std::optional<double> read() = 0;
  /// The reads due at `first`, `first + period`, ..., `last` were skipped
  /// (a GaugeManager reporting on demand). A gauge whose read() leaves
  /// state behind brings that state to where reading at each of those
  /// ticks would have left it, so the next read() returns what it would
  /// have returned had every tick read. Gauges whose read() is pure need
  /// nothing.
  virtual void skipped_reads(SimTime /*first*/, SimTime /*last*/,
                             SimTime /*period*/) {}
  /// Drop accumulated state (called when a gauge is re-deployed cold).
  virtual void reset() = 0;

 protected:
  sim::Simulator& sim_;
  GaugeSpec spec_;
};

/// Mean over a sliding time window, with bounded staleness: when no samples
/// arrived for `max_staleness`, read() reports the last known value for a
/// while, then goes empty (a silent probe should not freeze the model
/// forever).
class SlidingWindowGauge : public Gauge {
 public:
  SlidingWindowGauge(sim::Simulator& sim, GaugeSpec spec,
                     events::Filter filter, util::Symbol value_attr,
                     SimTime window, SimTime max_staleness);

  events::Filter probe_filter() const override { return filter_; }
  void consume(const events::Notification& n) override;
  std::optional<double> read() override;
  /// read() holds the window's mean through a silence, so a skipped read
  /// that still saw samples decides what is held.
  void skipped_reads(SimTime first, SimTime last, SimTime period) override;
  void reset() override;

  std::size_t samples_in_window() const { return samples_.size(); }

 private:
  void evict();
  events::Filter filter_;
  util::Symbol value_attr_;
  SimTime window_;
  SimTime max_staleness_;
  /// Ring, not deque: the window slides for the whole run, and the ring
  /// stops allocating once it reaches the high-water sample count.
  util::RingBuffer<std::pair<SimTime, double>> samples_;
  std::optional<double> last_value_;
  SimTime last_sample_time_;
};

/// Exponentially-weighted moving average of a probe attribute.
class EwmaGauge : public Gauge {
 public:
  EwmaGauge(sim::Simulator& sim, GaugeSpec spec, events::Filter filter,
            util::Symbol value_attr, double alpha);

  events::Filter probe_filter() const override { return filter_; }
  void consume(const events::Notification& n) override;
  std::optional<double> read() override;
  void reset() override;

 private:
  events::Filter filter_;
  util::Symbol value_attr_;
  Ewma ewma_;
};

/// Reports the most recent observation unchanged (bandwidth snapshots).
class LatestValueGauge : public Gauge {
 public:
  LatestValueGauge(sim::Simulator& sim, GaugeSpec spec, events::Filter filter,
                   util::Symbol value_attr);

  events::Filter probe_filter() const override { return filter_; }
  void consume(const events::Notification& n) override;
  std::optional<double> read() override;
  void reset() override;

 private:
  events::Filter filter_;
  util::Symbol value_attr_;
  std::optional<double> latest_;
};

// ---- Factories for the paper's three gauge kinds (Section 3.1: "we must
// deploy a gauge that captures the averageLatency property of each client
// ... gauges that measure the bandwidth between the client and the server
// group and also to measure the load on the server group").

std::unique_ptr<Gauge> make_latency_gauge(sim::Simulator& sim,
                                          const std::string& client,
                                          sim::NodeId host, SimTime window);

std::unique_ptr<Gauge> make_load_gauge(sim::Simulator& sim,
                                       const std::string& group,
                                       sim::NodeId host, SimTime window);

/// `role_element` is the model element carrying the bandwidth property (the
/// client's connector role); the probe stream is keyed by client name.
std::unique_ptr<Gauge> make_bandwidth_gauge(sim::Simulator& sim,
                                            const std::string& client,
                                            const std::string& role_element,
                                            sim::NodeId host);

std::unique_ptr<Gauge> make_utilization_gauge(sim::Simulator& sim,
                                              const std::string& group,
                                              sim::NodeId host, double alpha);

}  // namespace arcadia::monitor
