// Gauge lifecycle per the paper's gauge protocol: creation, reporting,
// deletion — and the cost of doing so over a wide-area bus. Section 5.3:
// "The time that it takes to effect a repair averages 30 seconds. Most of
// this time is spent in communicating to create and delete gauges.
// Improving this time by caching gauges or relocating them (rather than
// destroying and creating new ones) should see our repair speed improve
// dramatically." The `caching` flag switches between those two worlds and
// is the axis of bench_paper's Section 5.3 repair-time ablation.
//
// Reporting: every live gauge reports each `report_period`, unless its
// consumer's read schedule is known (set_read_schedule). Then it publishes
// only the ticks a read will see — the newest report to land by each read
// (next_demanded_tick) — and skips the rest, which the consumer would have
// overwritten unread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

/// When the consumer of gauge reports reads them: at `first + j·period`,
/// j >= 0. A fleet's FleetManager reads its coalescing slots only at its
/// sweeps when its coalesce window spans a sweep period; this is that grid.
struct ReadSchedule {
  SimTime first;
  SimTime period;
};

/// The demand rule, stated once. A gauge ticks on `origin + k·period`
/// (k >= 1, origin = the moment it went live), and every report lands
/// exactly `delay` after its tick. Tick t is demanded iff some read S_j has
/// S_j - delay - period < t <= S_j - delay: its report is the newest to
/// land by S_j (a landing exactly at S_j counts). Returns the first
/// demanded tick at or after `from`. Each read demands exactly one tick,
/// so with reads sparser than ticks most ticks are never demanded.
SimTime next_demanded_tick(SimTime origin, SimTime period, SimTime from,
                           const ReadSchedule& reads, SimTime delay);

struct GaugeManagerStats {
  std::uint64_t reports = 0;
  std::uint64_t reports_suppressed = 0;  ///< channel down: dropped at source
  std::uint64_t suspects_marked = 0;     ///< watchdog staleness trips
  std::uint64_t suspects_cleared = 0;    ///< reports that cleared a suspect
  std::uint64_t redeploys = 0;
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

  /// Report on demand: each gauge publishes only the ticks whose reports
  /// `reads` consumes, given that every report lands exactly
  /// `delivery_delay` after it is sent (next_demanded_tick). Sound only
  /// when `reads` is the one consumer of reports and keeps just the newest
  /// per gauge, the delay is a constant, and nothing else watches report
  /// arrivals (no fault plane, no watchdog): then the consumer sees the
  /// values it would have seen with every tick reported. Without a call,
  /// every tick reports. Throws once any gauge is live.
  void set_read_schedule(ReadSchedule reads, SimTime delivery_delay);

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
    sim::EventHandle reporter;  ///< the pending report tick
    SimTime online_at;          ///< origin of the gauge's tick grid
    SimTime last_read;          ///< the last tick that read (or online_at)
    bool live = false;
    bool suspect = false;
    SimTime last_report;  ///< watchdog heartbeat (deployment counts)
  };

  void go_live(util::Symbol id, std::function<void()> on_live);
  void bring_online(util::Symbol id, Managed& m);
  /// Schedule the gauge's next report: the tick at `from`, or with a read
  /// schedule the first demanded tick at or after it.
  void arm_report(util::Symbol id, Managed& m, SimTime from);
  void on_tick(util::Symbol id);
  /// With a read schedule: hand the gauge the ticks it skipped after its
  /// last read and before `until` (Gauge::skipped_reads).
  void catch_up(Managed& m, SimTime until);
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
  /// Set by set_read_schedule: report only demanded ticks.
  std::optional<ReadSchedule> reads_;
  SimTime delivery_delay_;
  std::unique_ptr<sim::PeriodicTask> watchdog_;
  /// Concurrency capability: not a mutex — every mutating call (deploy,
  /// destroy, redeploy*) must come from the simulation thread; the fleet's
  /// parallel sweep only ever *reads* through const accessors. Debug builds
  /// assert the discipline.
  util::SerialDomain serial_;
};

}  // namespace arcadia::monitor
