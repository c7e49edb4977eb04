// CI fault-matrix smoke driver: runs one fault profile end to end and
// checks the robustness invariants the fault plane exists to guarantee —
// faults were really injected, the loop absorbed them (retries, verdict
// holds, health transitions), and the run converged. On failure it prints
// and records the fault seed (failing_fault_seed.txt) so the exact cell
// can be replayed: the same (workload seed, fault seed) pair reproduces
// the run bit for bit.
//
// Usage: fault_smoke <lossy-grid|flaky-ops|crashy-fleet> [fault-seed]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/report.hpp"
#include "sim/scenario_registry.hpp"
#include "util/annotations.hpp"

using namespace arcadia;

namespace {

int fail(const std::string& profile, std::uint64_t seed,
         const std::string& why) {
  std::cerr << "FAULT SMOKE FAILED [" << profile << "]: " << why << "\n"
            << "failing fault seed: 0x" << std::hex << seed << std::dec
            << "\n";
  std::ofstream out("failing_fault_seed.txt");
  out << profile << " 0x" << std::hex << seed << std::dec << "  # " << why
      << "\n";
  return 1;
}

/// lossy-grid / flaky-ops: one adaptive experiment over the registered
/// scenario, horizon compressed to CI budget but still covering the
/// stress/churn windows that force repairs.
int run_scenario_profile(const std::string& profile, std::uint64_t seed) {
  core::ExperimentOptions opt = core::options_for(profile);
  opt.scenario.fault.seed = seed;
  if (profile == "lossy-grid") {
    opt.scenario.horizon = SimTime::seconds(500);
    opt.scenario.stress_start = SimTime::seconds(150);
    opt.scenario.stress_end = SimTime::seconds(330);
  } else {
    // Outside the churn's outage windows (240-360, 540-660, 840-960): an
    // outage in progress at the horizon leaves runtime actives legitimately
    // below the model, which is the environment's doing, not the loop's.
    opt.scenario.horizon = SimTime::seconds(800);
  }
  const core::ExperimentResult r = core::run_experiment(opt);

  core::write_fault_stats_csv(std::cout, r);
  const auto& fs = r.fault_stats;
  const std::uint64_t injected = fs.reports_dropped + fs.reports_delayed +
                                 fs.reports_duplicated + fs.ops_transient +
                                 fs.ops_permanent + fs.ops_stalled;
  if (injected == 0) {
    return fail(profile, seed, "no faults injected — the plane is dead");
  }
  if (r.repairs.empty()) {
    return fail(profile, seed, "no repairs fired — nothing was stressed");
  }
  if (!r.consistency_issues.empty()) {
    std::string why = "model/runtime diverged:";
    for (const std::string& issue : r.consistency_issues) why += " " + issue;
    return fail(profile, seed, why);
  }
  if (r.repair_stats.committed == 0) {
    return fail(profile, seed, "no repair ever committed under faults");
  }
  std::cout << "OK " << profile << ": " << injected << " faults injected, "
            << r.repair_stats.committed << " repairs committed ("
            << r.repair_stats.ops_retried << " op retries, "
            << r.verdict_holds << " verdict holds)\n";
  return 0;
}

/// crashy-fleet: a 3-tenant fleet where every tenant crashes mid-run; the
/// health state machine must walk the dark shards to quarantined and back
/// to healthy once their gauges report again.
int run_crashy_fleet(std::uint64_t seed) {
  sim::Simulator sim;
  core::FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 3;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  opt.config.grid.groups = 2;
  opt.config.grid.clients = 8;
  opt.config.grid.spares = 1;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.config.fault.enabled = true;
  opt.config.fault.seed = seed;
  opt.config.fault.fleet.tenant_crash = 1.0;
  opt.config.fault.fleet.crash_min = SimTime::seconds(100);
  opt.config.fault.fleet.crash_max = SimTime::seconds(140);
  opt.config.fault.fleet.crash_duration = SimTime::seconds(90);
  auto fleet = std::make_unique<core::Fleet>(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(400));
  const std::uint64_t events =
      sim.executed() + fleet->coordinator()->stats().shard_events;

  std::uint64_t crashes = 0;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    if (const fault::FaultPlane* plane = tenant.framework->fault_plane()) {
      crashes += plane->stats().tenant_crashes;
    }
  }
  core::FleetManager* mgr = fleet->manager();
  if (crashes == 0) {
    return fail("crashy-fleet", seed, "no tenant crash was injected");
  }
  if (!mgr || mgr->stats().shards_quarantined == 0) {
    return fail("crashy-fleet", seed,
                "no shard was quarantined despite every tenant crashing");
  }
  for (std::size_t s = 0; s < mgr->shard_count(); ++s) {
    if (mgr->shard_health(s) != core::ShardHealth::Healthy) {
      return fail("crashy-fleet", seed,
                  "shard " + std::to_string(s) +
                      " did not recover to healthy by the horizon");
    }
  }
  std::cout << "OK crashy-fleet: " << crashes << " tenant crashes, "
            << mgr->stats().shards_quarantined
            << " quarantine transitions, all shards healthy again ("
            << events << " events)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: fault_smoke <lossy-grid|flaky-ops|crashy-fleet> "
                 "[fault-seed]\n";
    return 2;
  }
  const std::string profile = argv[1];
  std::uint64_t seed = 0xFA117C0DEULL;
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 0);

  try {
    if (profile == "crashy-fleet") return run_crashy_fleet(seed);
    if (profile == "lossy-grid" || profile == "flaky-ops") {
      return run_scenario_profile(profile, seed);
    }
    std::cerr << "unknown fault profile: " << profile << "\n";
    return 2;
  } catch (const std::exception& e) {
    return fail(profile, seed, std::string("exception: ") + e.what());
  }
}
