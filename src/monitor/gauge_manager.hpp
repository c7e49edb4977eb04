// Gauge lifecycle per the paper's gauge protocol: creation, reporting,
// deletion — and the cost of doing so over a wide-area bus. Section 5.3:
// "The time that it takes to effect a repair averages 30 seconds. Most of
// this time is spent in communicating to create and delete gauges.
// Improving this time by caching gauges or relocating them (rather than
// destroying and creating new ones) should see our repair speed improve
// dramatically." The `caching` flag switches between those two worlds and
// is the axis of bench_paper's Section 5.3 repair-time ablation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "events/bus.hpp"
#include "monitor/gauge.hpp"
#include "sim/simulator.hpp"
#include "util/annotations.hpp"
#include "util/symbol.hpp"

namespace arcadia::fault {
class FaultPlane;
}

namespace arcadia::monitor {

struct GaugeManagerConfig {
  SimTime report_period = SimTime::seconds(5);
  /// Communication cost to create a gauge from scratch.
  SimTime create_cost = SimTime::seconds(12);
  /// Communication cost to delete a gauge.
  SimTime destroy_cost = SimTime::seconds(3);
  /// Cost to relocate/retarget a cached gauge (caching mode).
  SimTime relocate_cost = SimTime::seconds(1.5);
  /// Cached-gauge mode: redeployments relocate instead of destroy+create.
  bool caching = false;
  /// Gauge-liveness watchdog scan period; zero disables the watchdog.
  SimTime watchdog_period = SimTime::zero();
  /// Silence threshold: a live gauge that has not reported for this long is
  /// marked suspect ("suspect" lifecycle event); the next report that gets
  /// through clears it ("cleared").
  SimTime stale_after = SimTime::seconds(15);
};

struct GaugeManagerStats {
  std::uint64_t created = 0;
  std::uint64_t destroyed = 0;
  std::uint64_t relocated = 0;
  std::uint64_t reports = 0;
  std::uint64_t reports_suppressed = 0;  ///< channel down: dropped at source
  std::uint64_t suspects_marked = 0;     ///< watchdog staleness trips
  std::uint64_t suspects_cleared = 0;    ///< reports that cleared a suspect
  double redeploy_time_total_s = 0.0;
  std::uint64_t redeploys = 0;
  std::uint64_t redeploy_batches = 0;  ///< redeploy_elements() calls
};

/// Owns gauges; wires them to the probe bus; reports their readings on the
/// gauge bus; models the (dominant) communication costs of lifecycle
/// operations. Gauges are keyed by their interned id (util::SymbolMap, the
/// PR 2 container convention): the periodic report path — the busiest
/// consumer — resolves a gauge with an integer probe instead of a string
/// tree walk, and a report itself carries only symbols and a double, so
/// steady-state reporting allocates nothing.
class GaugeManager {
 public:
  GaugeManager(sim::Simulator& sim, events::EventBus& probe_bus,
               events::EventBus& gauge_bus, GaugeManagerConfig config);
  ~GaugeManager();

  GaugeManager(const GaugeManager&) = delete;
  GaugeManager& operator=(const GaugeManager&) = delete;

  /// Deploy a gauge: after the creation cost it subscribes to the probe
  /// bus and starts periodic reports. `on_live` fires when it is reporting.
  std::string deploy(std::unique_ptr<Gauge> gauge,
                     std::function<void()> on_live = {});

  /// Tear a gauge down (costs destroy_cost before `on_done`).
  void destroy(const std::string& gauge_id, std::function<void()> on_done = {});
  void destroy(util::Symbol gauge_id, std::function<void()> on_done = {});

  /// Re-deploy every gauge attached to `element` — the step a repair incurs
  /// after reconfiguring an element. Costs are sequential over the
  /// element's gauges (they share the element's command channel), cold mode
  /// destroy+create per gauge, caching mode one relocation per gauge.
  /// `on_done` fires when all of the element's gauges report again.
  void redeploy_element(const std::string& element,
                        std::function<void()> on_done = {});

  /// Batched re-deploy: one reconfigure covering several elements at once
  /// (the repair planner's gauge step). Elements use independent command
  /// channels, so their per-element sequential chains run concurrently and
  /// the batch costs the slowest element rather than the sum — the win
  /// Section 5.3 predicted for smarter gauge lifecycle handling. `on_done`
  /// fires when every element's gauges report again.
  void redeploy_elements(const std::vector<std::string>& elements,
                         std::function<void()> on_done = {});

  bool is_live(const std::string& gauge_id) const;
  bool is_live(util::Symbol gauge_id) const;
  bool is_suspect(const std::string& gauge_id) const;
  bool is_suspect(util::Symbol gauge_id) const;
  /// Gauges currently marked suspect by the watchdog.
  std::size_t suspect_count() const;

  /// Wire the fault plane: reports consult it for channel-disconnect
  /// windows (suppressed at source). Null disables injection.
  void set_fault_plane(fault::FaultPlane* plane) { plane_ = plane; }

  /// Fleet fault seam: every gauge channel of this manager goes dark for
  /// `duration` (a tenant crash). Needs a fault plane; the watchdog then
  /// marks the starved gauges suspect until the restart's reports clear
  /// them.
  void crash(SimTime duration);
  std::vector<std::string> gauges_for(const std::string& element) const;
  /// Distinct element names that have at least one gauge.
  std::vector<std::string> all_elements() const;
  /// Specs of every managed gauge, in deterministic (id-sorted) order —
  /// the element/property mappings arcverify checks constraints against.
  std::vector<GaugeSpec> specs() const;
  std::size_t gauge_count() const { return gauges_.size(); }
  const GaugeManagerStats& stats() const { return stats_; }
  const GaugeManagerConfig& config() const { return config_; }

  /// The modeled wall-clock cost of redeploying one element's gauges, given
  /// the current mode — used by planning/benches, not by execution.
  SimTime redeploy_cost(const std::string& element) const;

  /// One gauge channel's durable monitoring state (durability snapshots).
  struct ChannelState {
    std::string id;
    bool live = false;
    bool suspect = false;
    SimTime last_report;
  };
  /// Every channel's liveness/watchdog state, in deterministic (id-sorted)
  /// order — what the durability plane captures in a snapshot.
  std::vector<ChannelState> snapshot_state() const;

 private:
  struct Managed {
    std::unique_ptr<Gauge> gauge;
    events::SubscriptionId probe_sub = 0;
    std::unique_ptr<sim::PeriodicTask> reporter;
    bool live = false;
    bool suspect = false;
    SimTime last_report;  ///< watchdog heartbeat (deployment counts)
  };

  void go_live(util::Symbol id, std::function<void()> on_live);
  void bring_online(Managed& m);
  void take_offline(Managed& m);
  void publish_lifecycle(util::Symbol id, util::Symbol element,
                         util::Symbol phase);
  void report(Managed& m);
  void scan_liveness();
  std::vector<util::Symbol> gauge_ids_for(util::Symbol element) const;

  sim::Simulator& sim_;
  events::EventBus& probe_bus_;
  events::EventBus& gauge_bus_;
  GaugeManagerConfig config_;
  /// Interned gauge id -> managed gauge; iteration is name-sorted, matching
  /// the std::map<std::string, ...> order this container replaced.
  util::SymbolMap<Managed> gauges_;
  GaugeManagerStats stats_;
  fault::FaultPlane* plane_ = nullptr;
  std::unique_ptr<sim::PeriodicTask> watchdog_;
  /// Concurrency capability: not a mutex — every mutating call (deploy,
  /// destroy, redeploy*) must come from the simulation thread; the fleet's
  /// parallel sweep only ever *reads* through const accessors. Debug builds
  /// assert the discipline.
  util::SerialDomain serial_;
};

}  // namespace arcadia::monitor
