#include "core/fleet.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace arcadia::core {

Fleet::Fleet(sim::Simulator& sim, FleetOptions options)
    : sim_(sim), options_(std::move(options)) {
  sim::ScenarioConfig base = options_.use_scenario_defaults
                                 ? sim::scenario_defaults(options_.scenario)
                                 : options_.config;
  const int tenants =
      options_.tenants > 0 ? options_.tenants : base.fleet.tenants;
  if (tenants < 1) throw Error("Fleet: tenant count must be >= 1");
  base.fleet.tenants = tenants;

  // The fleet's journal is shared; tenants must not each own a plane.
  if (options_.framework.durability.enabled()) {
    throw Error(
        "Fleet: set FleetOptions::durability, not framework.durability — "
        "a fleet journals every tenant into one shared plane");
  }

  if (options_.durability.enabled()) {
    plane_ = std::make_unique<durability::DurabilityPlane>(options_.durability);
  }

  // Per-tenant sub-simulators in conservative windows. Tenants couple only
  // at control-simulator events (sweeps, snapshots), which the window bound
  // tracks exactly.
  sim::SimCoordinatorOptions copt;
  copt.threads = static_cast<unsigned>(options_.sim_threads);
  coordinator_ = std::make_unique<sim::SimCoordinator>(sim_, copt);
  coordinator_->set_barrier_hook([this](SimTime) { drain_staging(); });

  if (options_.coordinated) {
    // The framework's check cadence drives the fleet sweep, so a
    // naive/coordinated A-B flip keeps the same schedule.
    manager_ = std::make_unique<FleetManager>(
        sim_, options_.framework.check_period,
        options_.framework.first_check, options_.manager);
  }

  const std::size_t reserve_hint = sim::estimate_event_reserve(base);
  tenants_.reserve(static_cast<std::size_t>(tenants));
  for (int k = 0; k < tenants; ++k) {
    sim::ScenarioConfig cfg = base;
    cfg.fleet.tenant_index = k;
    auto tenant = std::make_unique<FleetTenant>(coordinator_->add_shard());
    tenant->name = "tenant" + std::to_string(k + 1);
    sim::Simulator& tenant_sim = tenant->shard.sim();
    tenant_sim.reserve(reserve_hint);
    // Each tenant gets its own fault plane, seed-decorrelated exactly like
    // the testbed builder decorrelates workload seeds — tenants must not
    // crash or lose reports in lockstep. The plane lives on the shard's
    // clock, so its draw sequences are a pure function of the shard's
    // (serial) event stream — independent of the worker-thread count by
    // construction.
    FrameworkConfig tenant_fw = options_.framework;
    adopt_scenario_fault(tenant_fw, cfg);
    if (tenant_fw.fault.enabled) {
      tenant_fw.fault.seed +=
          0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k);
    }
    {
      // Build inside the tenant's lane: the framework's serial domains
      // (buses, gauge manager, plan executor) bind to their first caller,
      // and that must be the lane that will run the tenant's windows.
      util::SerialLane in_lane(tenant->lane());
      tenant->testbed = sim::build_scenario(tenant_sim, options_.scenario,
                                            cfg);
      tenant->framework = std::make_unique<Framework>(
          tenant_sim, tenant->testbed, tenant_fw);
    }
    if (plane_) {
      // Workers may not write the single-writer plane: stage per shard,
      // drain in (time, shard, seq) order at barriers (drain_staging).
      staging_.push_back(std::make_unique<durability::StagingSink>());
      tenant->framework->attach_journal_sink(staging_.back().get(),
                                             static_cast<std::uint32_t>(k));
    }
    if (manager_) {
      const FleetManager::ShardId id =
          tenant->framework->attach_fleet_manager(*manager_, tenant->name);
      manager_->bind_shard_executor(id, &tenant_sim, tenant->lane());
    }
    tenants_.push_back(std::move(tenant));
  }
}

Fleet::~Fleet() {
  // The fleet manager holds subscriptions into tenant gauge buses; drop it
  // before the tenants it points into. Each tenant is destroyed inside its
  // own lane (teardown touches the same serial domains the windows did and
  // may journal). The shared durability plane and the staging sinks outlive
  // the tenants (declaration order), so teardown journaling lands — and the
  // final drain below flushes it to the plane.
  snapshot_task_.reset();
  manager_.reset();
  for (auto& tenant : tenants_) {
    util::SerialLane in_lane(tenant->lane());
    tenant.reset();
  }
  tenants_.clear();
  drain_staging();
}

std::vector<durability::ShardSnapshot> Fleet::capture_snapshot() const {
  std::vector<durability::ShardSnapshot> shards;
  shards.reserve(tenants_.size());
  for (std::size_t k = 0; k < tenants_.size(); ++k) {
    durability::ShardSnapshot shard;
    {
      // Captures read gauge-channel state and fault RNG positions — shard
      // state, so enter the lane (snapshots run at barriers: clocks agree).
      util::SerialLane in_lane(tenants_[k]->lane());
      shard = tenants_[k]->framework->capture_shard_snapshot();
    }
    shard.name = tenants_[k]->name;
    if (manager_) {
      shard.health = static_cast<std::uint8_t>(manager_->shard_health(k));
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

void Fleet::start() {
  if (started_) throw Error("Fleet::start called twice");
  started_ = true;
  for (auto& tenant : tenants_) {
    util::SerialLane in_lane(tenant->lane());
    tenant->framework->start();
    tenant->testbed.start();
  }
  if (manager_) {
    manager_->start();
    // Sweep-aligned coalescing: the sweep is each report's only reader, so
    // tenants whose reports land after a fixed delay publish only what it
    // reads.
    if (const auto reads = manager_->read_schedule()) {
      for (auto& tenant : tenants_) {
        util::SerialLane in_lane(tenant->lane());
        tenant->framework->demand_reports(*reads);
      }
    }
  }
  // One snapshot stream for the whole fleet: snapshot-0 anchors replay,
  // then periodic captures of every shard together (a torn multi-shard
  // snapshot is impossible — the capture is a single atomic file). The
  // staged journal is drained first so the mark lands after every record
  // it supersedes.
  if (plane_) {
    drain_staging();
    plane_->take_snapshot(sim_.now(), capture_snapshot());
    const SimTime period = options_.durability.snapshot_period;
    if (period > SimTime::zero()) {
      snapshot_task_ = std::make_unique<sim::PeriodicTask>(
          sim_, sim_.now() + period, period, [this] {
            plane_->take_snapshot(sim_.now(), capture_snapshot());
            return true;
          });
    }
  }
  ARC_INFO << "fleet: " << tenants_.size() << " tenants started ("
           << (manager_ ? "coordinated" : "per-tenant loops") << ", "
           << coordinator_->effective_threads() << " sim threads)";
}

std::uint64_t Fleet::run_until(SimTime horizon) {
  const std::uint64_t ran = coordinator_->run_until(horizon);
  drain_staging();
  return ran;
}

void Fleet::drain_staging() {
  if (!plane_) return;
  struct Ref {
    SimTime at;
    std::uint32_t shard;
    std::size_t index;
  };
  std::vector<Ref> refs;
  std::size_t total = 0;
  for (const auto& sink : staging_) total += sink->size();
  if (total == 0) return;
  refs.reserve(total);
  for (std::uint32_t k = 0; k < staging_.size(); ++k) {
    for (std::size_t i = 0; i < staging_[k]->size(); ++i) {
      refs.push_back(Ref{staging_[k]->at(i).at, k, i});
    }
  }
  // (time, shard, emission order): a total order over all staged records
  // that no worker interleaving can perturb. Within one sink timestamps are
  // already non-decreasing (simulation time is monotonic per shard), so
  // this is a k-way merge expressed as one sort.
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.index < b.index;
  });
  for (const Ref& r : refs) staging_[r.shard]->replay(r.index, *plane_);
  for (auto& sink : staging_) sink->clear();
}

}  // namespace arcadia::core
