// The scenario catalog: the built-in library as one constant table. A new
// scenario is one more entry in builtin_scenarios() below; its description
// is what `quickstart --list` prints.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario_registry.hpp"
#include "util/error.hpp"

namespace arcadia::sim {
namespace {

/// The parameterized grid-NxM factory (grid shape from `config.grid`).
Testbed build_grid_testbed(Simulator& sim, const ScenarioConfig& config) {
  const GridScaleConfig& grid = config.grid;
  if (grid.groups < 1 || grid.servers_per_group < 1 || grid.clients < 1 ||
      grid.clients_per_pod < 1 || grid.spares < 0) {
    throw Error("build_grid_testbed: invalid grid shape");
  }

  Testbed tb;
  tb.sim = &sim;
  tb.topo = std::make_unique<Topology>();
  Topology& topo = *tb.topo;
  const Bandwidth cap = config.link_capacity;

  // --- topology: a ring of routers — one per server group, one per client
  // pod, one for the queue/manager machines — with groups and pods
  // interleaved so group<->pod paths spread over the ring.
  const int pods =
      (grid.clients + grid.clients_per_pod - 1) / grid.clients_per_pod;
  std::vector<NodeId> group_routers(grid.groups);
  std::vector<NodeId> pod_routers(pods);
  NodeId manager_router = topo.add_node("R_mgr", NodeKind::Router);
  for (int g = 0; g < grid.groups; ++g) {
    group_routers[g] = topo.add_node("R_grp" + std::to_string(g + 1),
                                     NodeKind::Router);
  }
  for (int p = 0; p < pods; ++p) {
    pod_routers[p] =
        topo.add_node("R_pod" + std::to_string(p + 1), NodeKind::Router);
  }
  std::vector<NodeId> ring;
  ring.push_back(manager_router);
  for (int i = 0; i < std::max(grid.groups, pods); ++i) {
    if (i < grid.groups) ring.push_back(group_routers[i]);
    if (i < pods) ring.push_back(pod_routers[i]);
  }
  for (std::size_t i = 0; i < ring.size(); ++i) {
    topo.add_link(ring[i], ring[(i + 1) % ring.size()], cap);
  }

  NodeId m_queue = topo.add_node("m_queue", NodeKind::Host);
  NodeId m_mgr = topo.add_node("m_mgr", NodeKind::Host);
  topo.add_link(m_queue, manager_router, cap);
  topo.add_link(m_mgr, manager_router, cap);

  std::vector<std::vector<NodeId>> server_hosts(grid.groups);
  for (int g = 0; g < grid.groups; ++g) {
    for (int s = 0; s < grid.servers_per_group; ++s) {
      NodeId host = topo.add_node("m_srv" + std::to_string(g + 1) + "_" +
                                      std::to_string(s + 1),
                                  NodeKind::Host);
      topo.add_link(host, group_routers[g], cap);
      server_hosts[g].push_back(host);
    }
  }
  std::vector<NodeId> spare_hosts(grid.spares);
  for (int k = 0; k < grid.spares; ++k) {
    spare_hosts[k] =
        topo.add_node("m_spare" + std::to_string(k + 1), NodeKind::Host);
    topo.add_link(spare_hosts[k], group_routers[k % grid.groups], cap);
  }
  std::vector<NodeId> client_hosts(grid.clients);
  for (int c = 0; c < grid.clients; ++c) {
    client_hosts[c] =
        topo.add_node("m_user" + std::to_string(c + 1), NodeKind::Host);
    topo.add_link(client_hosts[c], pod_routers[c / grid.clients_per_pod], cap);
  }
  topo.compute_routes();

  tb.net = std::make_unique<FlowNetwork>(sim, topo);

  AppConfig app_cfg;
  app_cfg.service_base = config.service_base;
  app_cfg.service_per_kb = config.service_per_kb;
  app_cfg.service_sigma = config.service_sigma;
  app_cfg.seed = config.seed ^ 0xA5A5A5A5ULL;
  tb.app = std::make_unique<GridApp>(sim, *tb.net, app_cfg);
  GridApp& app = *tb.app;

  app.set_queue_node(m_queue);
  tb.manager_node = m_mgr;

  for (int g = 0; g < grid.groups; ++g) {
    GroupIdx group = app.add_group("Grp" + std::to_string(g + 1));
    tb.groups.push_back(group);
    for (int s = 0; s < grid.servers_per_group; ++s) {
      app.add_server("Srv" + std::to_string(g + 1) + "_" + std::to_string(s + 1),
                     server_hosts[g][s], group, true);
    }
  }
  // Keep the Figure 6 aliases meaningful where they can be.
  tb.sg1 = tb.groups.front();
  tb.sg2 = tb.groups.size() > 1 ? tb.groups[1] : kNoGroup;
  for (int k = 0; k < grid.spares; ++k) {
    tb.spares.push_back(app.add_server("Spare" + std::to_string(k + 1),
                                       spare_hosts[k], kNoGroup, false));
  }
  if (!tb.spares.empty()) tb.spare_s4 = tb.spares.front();
  if (tb.spares.size() > 1) tb.spare_s7 = tb.spares[1];

  for (int c = 0; c < grid.clients; ++c) {
    ClientIdx client =
        app.add_client("User" + std::to_string(c + 1), client_hosts[c]);
    app.assign_client(client, tb.groups[c % grid.groups]);
    tb.clients.push_back(client);
  }

  install_paper_workload(sim, tb, config);
  return tb;
}

/// Figure 6 testbed + flash-crowd workload (no competition traffic).
Testbed build_flash_crowd_testbed(Simulator& sim, const ScenarioConfig& config) {
  Testbed tb = build_testbed_without_workload(sim, config);

  // Instead of the Figure 7 workload: steady normal traffic with a sudden
  // rate spike over [flash.start, flash.end).
  StepFunction rate(config.normal_rate_hz);
  rate.step(config.flash.start,
            config.normal_rate_hz * config.flash.rate_multiplier);
  rate.step(config.flash.end, config.normal_rate_hz);

  install_uniform_workload(
      sim, tb, config, rate,
      StepFunction(config.normal_response_mean.as_bytes()),
      StepFunction(config.normal_response_sigma));
  return tb;
}

/// Figure 6 testbed + rotating SG1 outages on top of the normal workload.
Testbed build_server_churn_testbed(Simulator& sim,
                                   const ScenarioConfig& config) {
  Testbed tb = build_testbed(sim, config);

  // Rotating outages over Server Group 1's replicas; the monitoring stack
  // sees only their effects (load/utilization), exactly like a real
  // environment-induced change.
  tb.faults = std::make_unique<FaultDriver>(sim, *tb.app);
  const std::vector<ServerIdx>& victims = tb.sg1_servers;
  for (int k = 0; k < config.churn.outages; ++k) {
    FaultSchedule f;
    f.server = victims[static_cast<std::size_t>(k) % victims.size()];
    f.down_at = config.churn.first_outage + config.churn.period * k;
    f.up_at = f.down_at + config.churn.outage;
    tb.faults->add(f);
  }
  return tb;
}

/// One fleet tenant: the grid testbed of `config.grid`, with the Figure 7
/// schedule shifted by `config.fleet.tenant_index * config.fleet.phase_shift`
/// and the RNG seed decorrelated per tenant.
Testbed build_fleet_tenant_testbed(Simulator& sim,
                                   const ScenarioConfig& config) {
  const FleetConfig& fleet = config.fleet;
  if (fleet.tenants < 1 || fleet.tenant_index < 0 ||
      fleet.tenant_index >= fleet.tenants) {
    throw Error("build_fleet_tenant_testbed: invalid tenant index");
  }
  ScenarioConfig tenant = config;
  // Decorrelate the arrival/service processes across tenants; the golden-
  // ratio multiplier spreads consecutive indices over the seed space.
  tenant.seed = config.seed + 0x9E3779B97F4A7C15ULL *
                                  static_cast<std::uint64_t>(fleet.tenant_index);
  // Fault draws decorrelate the same way: tenant k's fault plane must not
  // mirror tenant 0's, or every tenant would crash/lose reports in lockstep.
  tenant.fault.seed =
      config.fault.seed +
      0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(fleet.tenant_index);
  // Phase-shift the Figure 7 schedule so tenants stress at staggered times
  // (the fleet's aggregate load stays bounded, like real multi-tenant grids).
  const SimTime shift = fleet.phase_shift * fleet.tenant_index;
  tenant.quiescent_end += shift;
  tenant.stress_start += shift;
  tenant.stress_end += shift;
  Testbed tb = build_grid_testbed(sim, tenant);
  if (fleet.active_duration > SimTime::zero()) {
    // Duty-cycled tenant: traffic only inside the staggered active window.
    const SimTime start = config.quiescent_end + shift;
    StepFunction rate(0.0);
    rate.step(start, tenant.normal_rate_hz);
    rate.step(start + fleet.active_duration, 0.0);
    install_uniform_workload(
        sim, tb, tenant, rate,
        StepFunction(tenant.normal_response_mean.as_bytes()),
        StepFunction(tenant.normal_response_sigma));
  }
  return tb;
}

std::vector<ScenarioSpec> builtin_scenarios() {
  std::vector<ScenarioSpec> specs;
  {
    ScenarioSpec spec;
    spec.name = "paper-fig6";
    spec.description =
        "The paper's Figure 6 testbed under the Figure 7 schedule "
        "(bandwidth competition, then a 20 KB @ 2/s stress phase)";
    spec.build = build_testbed;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "paper-fig6-bidir";
    spec.description =
        "Figure 6/7 with bidirectional competition: monitoring traffic "
        "shares the congestion (the Section 5.3 monitoring-lag variant)";
    spec.defaults.comp_bidirectional = true;
    spec.build = build_testbed;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "grid-4x16";
    spec.description =
        "Scaled grid: 4 server groups x 16 clients over an interleaved "
        "router ring; load-driven adaptation, no competition traffic";
    spec.build = build_grid_testbed;  // shape from ScenarioConfig::grid
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fleet-4x16";
    spec.description =
        "One tenant shard of a 4-tenant fleet: a grid-4x16 clone whose "
        "workload is phase-shifted per fleet.tenant_index; assemble the "
        "whole fleet with core::Fleet";
    spec.defaults.fleet.tenants = 4;
    spec.defaults.fleet.phase_shift = SimTime::seconds(60);
    // grid shape: the GridScaleConfig defaults ARE grid-4x16.
    spec.defaults.horizon = SimTime::seconds(600);
    spec.build = build_fleet_tenant_testbed;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fleet-64x256";
    spec.description =
        "One tenant shard of a 64-tenant fleet, 256 clients each (the "
        "sharded-kernel scale target, DESIGN.md §9): 8 server groups x 3 "
        "replicas + 4 spares per tenant, stress phases staggered by 4 s; "
        "drive with core::Fleet and Fleet::run_until";
    spec.defaults.fleet.tenants = 64;
    spec.defaults.fleet.phase_shift = SimTime::seconds(4);
    spec.defaults.grid.groups = 8;
    spec.defaults.grid.servers_per_group = 3;
    spec.defaults.grid.clients = 256;
    spec.defaults.grid.clients_per_pod = 16;
    spec.defaults.grid.spares = 4;
    spec.defaults.horizon = SimTime::seconds(300);
    spec.build = build_fleet_tenant_testbed;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "flash-crowd";
    spec.description =
        "Figure 6 testbed under a sudden 6x request-rate spike at 300 s "
        "instead of competition traffic";
    spec.defaults.horizon = SimTime::seconds(900);
    spec.defaults.comp_sg1_phase1_mbps = 0.0;
    spec.defaults.comp_sg1_stress_mbps = 0.0;
    spec.defaults.comp_sg1_final_mbps = 0.0;
    spec.defaults.comp_sg2_phase1_mbps = 0.0;
    spec.defaults.comp_sg2_stress_mbps = 0.0;
    spec.defaults.comp_sg2_final_mbps = 0.0;
    // Neutralize the Figure 7 stress phase; the flash window is the event.
    spec.defaults.stress_start = SimTime::seconds(1e9);
    spec.defaults.stress_end = SimTime::seconds(1e9);
    spec.build = build_flash_crowd_testbed;
    specs.push_back(std::move(spec));
  }
  {
    // Same builder as server-churn, with the outages packed tightly enough
    // that the next fault lands while the previous repair's plan is still
    // enacting (repairs take ~30 s with cold gauges). Run it with
    // FrameworkConfig::repair.preemption to let the strictly worse follow-on
    // violation abort the in-flight plan.
    ScenarioSpec spec;
    spec.name = "churn-mid-repair";
    spec.description =
        "server-churn with outages packed so each new fault lands while "
        "the previous repair's plan is still enacting; pair with "
        "FrameworkConfig::repair.preemption (factor ~1.2 for same-kind "
        "latency violations)";
    spec.defaults.horizon = SimTime::seconds(900);
    spec.defaults.normal_rate_hz = 1.5;
    spec.defaults.stress_start = SimTime::seconds(1e9);
    spec.defaults.stress_end = SimTime::seconds(1e9);
    spec.defaults.comp_sg1_phase1_mbps = 0.0;
    spec.defaults.comp_sg1_stress_mbps = 0.0;
    spec.defaults.comp_sg1_final_mbps = 0.0;
    spec.defaults.comp_sg2_phase1_mbps = 0.0;
    spec.defaults.comp_sg2_stress_mbps = 0.0;
    spec.defaults.comp_sg2_final_mbps = 0.0;
    spec.defaults.churn.first_outage = SimTime::seconds(240);
    spec.defaults.churn.period = SimTime::seconds(45);
    spec.defaults.churn.outage = SimTime::seconds(120);
    spec.defaults.churn.outages = 2;
    spec.build = build_server_churn_testbed;
    specs.push_back(std::move(spec));
  }
  {
    // The fault-plane reference scenario: the scaled grid under a lossy
    // monitoring substrate. One in ten reports vanishes on the bus, a few
    // are duplicated or delayed, channels drop out for tens of seconds at
    // a time, and one in ten runtime ops fails transiently. The adaptation
    // loop must still converge to zero violations at quiescence — retries
    // absorb the op faults, the watchdog holds verdicts over dark
    // channels, and duplicate/late reports coalesce away.
    ScenarioSpec spec;
    spec.name = "lossy-grid";
    spec.description =
        "grid-4x16 over a lossy monitoring substrate: 10% report loss, "
        "2% duplication, 5% delayed 1-5 s, channel disconnect windows, "
        "and 10% transient runtime-op failures (retried with backoff)";
    spec.defaults.horizon = SimTime::seconds(900);
    // Stress runs from the struct default (600 s) to the shortened
    // horizon; without this the inherited stress_end (1200 s) dangles
    // past the run (arcverify: scenario-config).
    spec.defaults.stress_end = SimTime::seconds(900);
    spec.defaults.fault.enabled = true;
    spec.defaults.fault.monitoring.report_loss = 0.10;
    spec.defaults.fault.monitoring.report_dup = 0.02;
    spec.defaults.fault.monitoring.report_delay = 0.05;
    spec.defaults.fault.monitoring.channel_disconnect = 0.002;
    spec.defaults.fault.repair.op_transient = 0.10;
    spec.build = build_grid_testbed;
    specs.push_back(std::move(spec));
  }
  {
    // The repair-seam stress scenario: server-churn's guaranteed repair
    // traffic, but every runtime step rolls against transient failures,
    // stalls (absorbed by per-op timeouts), and a mid-run permanent-fault
    // window during which repairs abort cleanly through compensation.
    ScenarioSpec spec;
    spec.name = "flaky-ops";
    spec.description =
        "server-churn with a flaky runtime: 20% transient op failures, "
        "10% op stalls (20-40 s, caught by op timeouts), and a permanent-"
        "failure window at 400-500 s exercising the abort path";
    spec.defaults.horizon = SimTime::seconds(1200);
    spec.defaults.normal_rate_hz = 1.5;
    spec.defaults.stress_start = SimTime::seconds(1e9);
    spec.defaults.stress_end = SimTime::seconds(1e9);
    spec.defaults.comp_sg1_phase1_mbps = 0.0;
    spec.defaults.comp_sg1_stress_mbps = 0.0;
    spec.defaults.comp_sg1_final_mbps = 0.0;
    spec.defaults.comp_sg2_phase1_mbps = 0.0;
    spec.defaults.comp_sg2_stress_mbps = 0.0;
    spec.defaults.comp_sg2_final_mbps = 0.0;
    spec.defaults.fault.enabled = true;
    spec.defaults.fault.repair.op_transient = 0.20;
    spec.defaults.fault.repair.op_stall = 0.10;
    spec.defaults.fault.repair.op_permanent = 0.5;
    spec.defaults.fault.repair.permanent_from = SimTime::seconds(400);
    spec.defaults.fault.repair.permanent_until = SimTime::seconds(500);
    spec.build = build_server_churn_testbed;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "server-churn";
    spec.description =
        "Figure 6 testbed with rotating 120 s outages over SG1's servers; "
        "the load they shed must be absorbed by repairs";
    spec.defaults.horizon = SimTime::seconds(1200);
    // Enough steady load that losing one of three replicas overloads the
    // remaining two (1.5 Hz x 6 clients vs ~4 req/s per server).
    spec.defaults.normal_rate_hz = 1.5;
    spec.defaults.stress_start = SimTime::seconds(1e9);
    spec.defaults.stress_end = SimTime::seconds(1e9);
    spec.defaults.comp_sg1_phase1_mbps = 0.0;
    spec.defaults.comp_sg1_stress_mbps = 0.0;
    spec.defaults.comp_sg1_final_mbps = 0.0;
    spec.defaults.comp_sg2_phase1_mbps = 0.0;
    spec.defaults.comp_sg2_stress_mbps = 0.0;
    spec.defaults.comp_sg2_final_mbps = 0.0;
    spec.build = build_server_churn_testbed;
    specs.push_back(std::move(spec));
  }
  std::sort(specs.begin(), specs.end(),
            [](const ScenarioSpec& a, const ScenarioSpec& b) {
              return a.name < b.name;
            });
  return specs;
}

}  // namespace

const std::vector<ScenarioSpec>& scenario_catalog() {
  static const std::vector<ScenarioSpec> catalog = builtin_scenarios();
  return catalog;
}

}  // namespace arcadia::sim
