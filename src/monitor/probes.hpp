// Probes: the lowest monitoring layer (Figure 4), deployed into the target
// system. The paper used Remos wrappers for network observations and
// AIDE-instrumented Java methods for application events; here probes attach
// to the simulated runtime's instrumentation hooks and publish observations
// on the probe bus, whose one consumer is the gauges. LatencyProbe, on the
// client's response-received hook, is the AIDE analogue; every probe here
// feeds a gauge the standard deployment creates.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "events/bus.hpp"
#include "remos/remos.hpp"
#include "sim/app.hpp"
#include "sim/simulator.hpp"
#include "util/symbol.hpp"

namespace arcadia::monitor {

namespace detail {
/// Lazily interned per-index name symbols (client/group names are stable
/// for an app's lifetime). Probes publish every period; this keeps the
/// steady state free of string hashing — `name` is only read on the first
/// sighting of an index.
class NameCache {
 public:
  util::Symbol get(std::size_t idx, const std::string& name) {
    if (idx >= syms_.size()) syms_.resize(idx + 1);
    if (syms_[idx].empty()) syms_[idx] = util::Symbol::intern(name);
    return syms_[idx];
  }

 private:
  std::vector<util::Symbol> syms_;
};
}  // namespace detail

/// Base: deployable/undeployable observation source.
class Probe {
 public:
  explicit Probe(std::string id) : id_(std::move(id)) {}
  virtual ~Probe() = default;
  const std::string& id() const { return id_; }
  virtual void start() = 0;
  virtual void stop() = 0;
  bool running() const { return running_; }

 protected:
  bool running_ = false;

 private:
  std::string id_;
};

/// Publishes probe.latency for every completed response. Implemented by
/// instrumenting the client's response-received path (the AIDE analogue);
/// chains any previously-installed hook.
///
/// Also runs a stall detector: when a client's oldest unanswered request
/// is older than `stall_threshold`, its age is published as a latency
/// observation each period. Without this, a fully starved client (no
/// responses completing at all) would be invisible to the latency gauge.
class LatencyProbe : public Probe {
 public:
  LatencyProbe(sim::Simulator& sim, sim::GridApp& app, events::EventBus& bus,
               SimTime stall_check_period = SimTime::seconds(5),
               SimTime stall_threshold = SimTime::seconds(10));
  ~LatencyProbe() override;
  void start() override;
  void stop() override;

 private:
  void publish_latency(sim::ClientIdx client, double seconds);
  sim::Simulator& sim_;
  sim::GridApp& app_;
  events::EventBus& bus_;
  SimTime stall_check_period_;
  SimTime stall_threshold_;
  std::function<void(const sim::Request&)> chained_;
  std::unique_ptr<sim::PeriodicTask> stall_task_;
  detail::NameCache client_syms_;
  bool installed_ = false;
};

/// Samples every group's queue length each period (the paper measures
/// "server load by measuring the size of the queue of waiting client
/// requests").
class QueueLengthProbe : public Probe {
 public:
  QueueLengthProbe(sim::Simulator& sim, sim::GridApp& app,
                   events::EventBus& bus, SimTime period);
  void start() override;
  void stop() override;

 private:
  sim::Simulator& sim_;
  sim::GridApp& app_;
  events::EventBus& bus_;
  SimTime period_;
  std::unique_ptr<sim::PeriodicTask> task_;
  detail::NameCache group_syms_;
};

/// Samples the busy fraction of each group's active servers.
class UtilizationProbe : public Probe {
 public:
  UtilizationProbe(sim::Simulator& sim, sim::GridApp& app,
                   events::EventBus& bus, SimTime period);
  void start() override;
  void stop() override;

 private:
  sim::Simulator& sim_;
  sim::GridApp& app_;
  events::EventBus& bus_;
  SimTime period_;
  std::unique_ptr<sim::PeriodicTask> task_;
  detail::NameCache group_syms_;
};

/// Periodically queries Remos for the available bandwidth from each
/// client's current server group to the client (the direction responses
/// travel) and publishes probe.bandwidth.
class BandwidthProbe : public Probe {
 public:
  BandwidthProbe(sim::Simulator& sim, sim::GridApp& app,
                 remos::RemosService& remos, events::EventBus& bus,
                 SimTime period);
  void start() override;
  void stop() override;

 private:
  sim::Simulator& sim_;
  sim::GridApp& app_;
  remos::RemosService& remos_;
  events::EventBus& bus_;
  SimTime period_;
  std::unique_ptr<sim::PeriodicTask> task_;
  detail::NameCache client_syms_;
  detail::NameCache group_syms_;
};

/// Convenience bundle: deploy the full probe set the paper's experiment
/// needs (latency, queue length, utilization, bandwidth).
struct ProbeSet {
  std::vector<std::unique_ptr<Probe>> probes;
  void start_all() {
    for (auto& p : probes) p->start();
  }
  void stop_all() {
    for (auto& p : probes) p->stop();
  }
};

ProbeSet make_standard_probes(sim::Simulator& sim, sim::GridApp& app,
                              remos::RemosService& remos,
                              events::EventBus& probe_bus,
                              SimTime sample_period);

}  // namespace arcadia::monitor
