// The paper's experimental set-up: the Figure 6 testbed (five routers,
// eleven application machines, 10 Mbps links) and the Figure 7 schedule
// (quiescent warm-up, bandwidth competition against C3/C4 <-> SG1, a
// stress phase with 20 KB requests twice a second from every client, and a
// recovery phase with better bandwidth to SG2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/profile.hpp"
#include "sim/app.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace arcadia::sim {

/// The scenario's latency bound. The paper's other task-layer thresholds
/// (server load, bandwidth floor, utilization) have one home,
/// task::PerformanceProfile, which the framework reads.
struct Thresholds {
  SimTime max_latency = SimTime::seconds(2.0);  ///< 2 s latency bound
};

/// Scaled grid-NxM topology knobs (used by the "grid-NxM" scenarios).
struct GridScaleConfig {
  int groups = 4;             ///< server groups, one router + queue share each
  int servers_per_group = 2;  ///< initially active replicas per group
  int clients = 16;           ///< clients, spread over client-pod routers
  int clients_per_pod = 4;    ///< clients sharing one access router
  int spares = 2;             ///< powered-off recruitable servers
};

/// Flash-crowd schedule knobs (used by the "flash-crowd" scenario): a
/// sudden request-rate spike on top of the normal workload.
struct FlashCrowdConfig {
  SimTime start = SimTime::seconds(300);
  SimTime end = SimTime::seconds(600);
  double rate_multiplier = 6.0;  ///< normal_rate_hz * this during the crowd
};

/// Fleet-mode knobs (used by the "fleet-NxM" scenarios): `tenants`
/// independent copies of a tenant testbed, each with its own seed and a workload schedule phase-shifted by `tenant_index *
/// phase_shift` so tenants do not hit their stress windows in lockstep.
/// The scenario factory builds ONE tenant (the `tenant_index`-th);
/// core::Fleet loops the index to assemble the whole fleet.
struct FleetConfig {
  int tenants = 4;
  int tenant_index = 0;
  SimTime phase_shift = SimTime::seconds(60);
  /// Duty-cycled tenants: each tenant sends traffic only during
  /// [quiescent_end + tenant_index * phase_shift, + active_duration) and is
  /// quiet otherwise — the production-fleet regime where most tenants are
  /// idle at any instant. Zero keeps the always-on Figure 7 schedule.
  SimTime active_duration = SimTime::zero();
};

/// Server-churn schedule knobs (used by the "server-churn" scenario):
/// periodic outages rotating over a group's servers.
struct ChurnConfig {
  SimTime first_outage = SimTime::seconds(240);
  SimTime period = SimTime::seconds(300);  ///< between outage starts
  SimTime outage = SimTime::seconds(120);  ///< down-time per outage
  int outages = 3;                         ///< total outages scheduled
};

/// All knobs for one experiment run. Defaults reproduce the paper's set-up;
/// see DESIGN.md ("Calibration") for the rationale. Scenario factories in
/// the scenario catalog interpret the sub-configs they care about (`grid`,
/// `flash`, `churn`) and ignore the rest.
struct ScenarioConfig {
  std::uint64_t seed = 42;
  SimTime horizon = SimTime::seconds(1800);

  // -- schedule breakpoints (Figure 7)
  SimTime quiescent_end = SimTime::seconds(120);
  SimTime stress_start = SimTime::seconds(600);
  SimTime stress_end = SimTime::seconds(1200);

  // -- workload
  double normal_rate_hz = 1.0;  ///< per client; 6 clients ~ 6 req/s total
  double stress_rate_hz = 2.0;  ///< "twice every second"
  DataSize request_size = DataSize::bytes(512);  ///< "0.5K on average"
  DataSize normal_response_mean = DataSize::kilobytes(10);
  DataSize stress_response_size = DataSize::kilobytes(20);  ///< fixed 20 KB
  double normal_response_sigma = 0.5;

  // -- service model (size-dependent; see DESIGN.md)
  SimTime service_base = SimTime::millis(50);
  SimTime service_per_kb = SimTime::millis(20);
  double service_sigma = 0.2;

  // -- network
  Bandwidth link_capacity = Bandwidth::mbps(10.0);

  // -- competition rates (Mbps) per phase, applied to the trunk the
  //    responses traverse. `phase1` = 120..600 s, `stress` = 600..1200 s,
  //    `final` = 1200..1800 s.
  double comp_sg1_phase1_mbps = 9.95;
  double comp_sg1_stress_mbps = 5.0;
  double comp_sg1_final_mbps = 3.0;
  double comp_sg2_phase1_mbps = 3.0;
  double comp_sg2_stress_mbps = 2.0;
  double comp_sg2_final_mbps = 0.5;

  /// Run the competition generators in both link directions (the testbed's
  /// cross traffic loaded the return path too). With this on, monitoring
  /// messages from the starved clients share the congestion — the
  /// Section 5.3 "monitoring lag" effect.
  bool comp_bidirectional = false;

  Thresholds thresholds;

  /// Fault injection (fault/profile.hpp): disabled by default, so every
  /// pre-existing scenario is bit-identical to pre-fault builds. The
  /// "lossy-grid" / "flaky-ops" scenarios ship calibrated profiles; the
  /// experiment runner hands an enabled profile to the framework, which
  /// constructs the FaultPlane and wraps the monitoring buses and the
  /// translator.
  fault::FaultProfile fault;

  // -- scenario-specific sub-configs (see the scenario catalog)
  GridScaleConfig grid;
  FlashCrowdConfig flash;
  ChurnConfig churn;
  FleetConfig fleet;
};

/// The built testbed: topology, network, application, drivers, and the
/// well-known element indices the rest of the framework wires against.
struct Testbed {
  Simulator* sim = nullptr;
  /// Catalog name of the scenario that built this testbed ("" for ad-hoc
  /// construction).
  std::string scenario;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<FlowNetwork> net;
  std::unique_ptr<GridApp> app;
  std::unique_ptr<WorkloadDriver> workload;
  std::unique_ptr<CompetitionDriver> competition;
  /// Scheduled server outages (null unless the scenario churns servers).
  std::unique_ptr<FaultDriver> faults;

  std::vector<ClientIdx> clients;
  /// Every server group, in creation order; `spares` are the powered-off
  /// recruitable servers. Scenario-agnostic consumers iterate these.
  std::vector<GroupIdx> groups;
  std::vector<ServerIdx> spares;

  // -- Figure 6 well-known indices (kNoGroup/-1 outside the paper testbed)
  GroupIdx sg1 = kNoGroup;
  GroupIdx sg2 = kNoGroup;
  std::vector<ServerIdx> sg1_servers;  // S1,S2,S3
  std::vector<ServerIdx> sg2_servers;  // S5,S6
  ServerIdx spare_s4 = -1;
  ServerIdx spare_s7 = -1;

  /// The machine hosting the repair infrastructure (paper: the machine
  /// running Server 4); monitoring messages travel to it.
  NodeId manager_node = kNoNode;

  FlowId comp_sg1 = kNoFlow;
  FlowId comp_sg2 = kNoFlow;
  /// Reverse-direction competition (kNoFlow unless comp_bidirectional).
  FlowId comp_sg1_rev = kNoFlow;
  FlowId comp_sg2_rev = kNoFlow;

  /// Arm whatever drivers the scenario installed; call before
  /// Simulator::run_until.
  void start() {
    if (competition) competition->start();
    if (workload) workload->start();
    if (faults) faults->start();
  }
};

/// Upper estimate of the events concurrently pending in a simulator running
/// one testbed built from `config`: per-client request machinery (arrival
/// timer, transfer completions, service completion), per-element monitoring
/// timers (probes, gauge reports, watchdog), competition/fault drivers, and
/// control-loop slack. Scenario assembly passes it to Simulator::reserve()
/// so big fleets (fleet-64x256) never pay slot-pool or heap reallocation
/// storms mid-run — the steady state stays zero-alloc (bench_micro pins
/// this with its counting operator-new hook).
std::size_t estimate_event_reserve(const ScenarioConfig& config);

/// Build the Figure 6 testbed and Figure 7 drivers over `sim` (the
/// "paper-fig6" scenario; kept as a plain function for ad-hoc rigs).
Testbed build_testbed(Simulator& sim, const ScenarioConfig& config);

/// The Figure 6 testbed with competition but no workload driver installed —
/// for scenarios that substitute their own request schedule.
Testbed build_testbed_without_workload(Simulator& sim,
                                       const ScenarioConfig& config);

/// Install the Figure 7 per-client workload (normal -> stress -> normal
/// stepping rates and response sizes) on a built testbed's clients.
void install_paper_workload(Simulator& sim, Testbed& testbed,
                            const ScenarioConfig& config);

/// Install the same schedules on every client of a built testbed (the
/// seeding matches install_paper_workload, so scenarios sharing a config
/// see identical arrival processes where their schedules agree).
void install_uniform_workload(Simulator& sim, Testbed& testbed,
                              const ScenarioConfig& config,
                              const StepFunction& rate_hz,
                              const StepFunction& response_mean_bytes,
                              const StepFunction& response_sigma);

}  // namespace arcadia::sim
