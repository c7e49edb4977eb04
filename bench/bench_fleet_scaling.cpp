// Fleet scaling for the sharded simulation kernel: the same coordinated
// fleet (per-tenant sub-simulators advanced in conservative time windows)
// at 1 / 2 / 4 / 8 worker threads, against the 1-thread run.
//
// Two scenario sizes: fleet-4x16 with 8 tenants (the CI gate size) and
// fleet-64x256 (the scale target: 64 tenants x 256 clients, DESIGN.md §9)
// on a compressed horizon. For every scenario the bench also fingerprints
// each sharded run — repairs, models, event counts — and fails if any
// thread count perturbs a single bit (the determinism contract).
//
// Emits BENCH_fleet.json (next to the binary, or argv[1]). Speedup gates
// are hardware-aware: wall-clock targets are only enforced when the host
// actually has the cores (hw_concurrency >= 4); a 1-core container still
// runs everything and enforces determinism, but records gates_enforced =
// false instead of failing on physics. On CI's 4-vCPU Release runners the
// gates are real: the best speedup over 1 thread at 4+ threads (up to the
// host's cores) must reach 1.3x on fleet-4x16 and 2.0x on fleet-64x256.
// fleet-4x16 runs 720 sim-s so that its 1-thread cell lasts over a second
// (1.3-1.8 s on a shared 4-core host, against 0.2 s at 120 sim-s) and the
// gate times the kernel rather than start-up. Eight runs on that host read
// 1.06-2.55x (median 2.0x) on fleet-4x16; fleet-64x256 read 2.64-4.04x
// (median 3.4x) in four earlier runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "acme/adl.hpp"
#include "core/fleet.hpp"
#include "repair/engine.hpp"
#include "repair/scripts.hpp"
#include "sim/scenario_registry.hpp"
#include "util/annotations.hpp"

#include "bench_output.hpp"

namespace {

using namespace arcadia;
using Clock = std::chrono::steady_clock;

struct ScenarioSpec {
  std::string name;
  int tenants;
  double horizon_s;
  int reps;
  double min_speedup;  ///< best 4+-thread speedup vs 1 thread (hw >= 4)
};

struct Cell {
  std::size_t sim_threads = 1;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t repairs = 0;
  std::uint64_t fingerprint = 0;
};

core::FleetOptions make_options(const ScenarioSpec& spec,
                                std::size_t sim_threads) {
  core::FleetOptions opt;
  opt.scenario = spec.name;
  opt.tenants = spec.tenants;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults(spec.name);
  // Always-on Figure 7 schedule, compressed so the stress phases (and the
  // repairs they force) land inside the bench horizon. Every shard carries
  // load the whole run — the regime the parallel kernel exists for.
  opt.config.quiescent_end = SimTime::seconds(10);
  opt.config.stress_start = SimTime::seconds(spec.horizon_s * 0.3);
  opt.config.stress_end = SimTime::seconds(spec.horizon_s * 0.8);
  opt.config.fleet.phase_shift = SimTime::seconds(2);
  opt.config.fleet.active_duration = SimTime::zero();  // always on
  // Monitoring-heavy control plane: chatty gauges and a 1 s sweep, same as
  // the historical control-plane bench, so the two bench generations stay
  // comparable.
  opt.framework.monitoring_qos = true;
  opt.framework.gauge_costs.report_period = SimTime::millis(250);
  opt.framework.check_period = SimTime::seconds(1);
  opt.manager.coalesce_window = SimTime::seconds(1);
  opt.manager.sweep_threads = 1;  // isolate the KERNEL's scaling
  opt.coordinated = true;
  opt.sim_threads = sim_threads;
  return opt;
}

/// FNV-1a over every tenant's repair sequence and printed model: two runs
/// fingerprint equal iff they made the same repairs at the same sim-times
/// and left the same architecture behind.
std::uint64_t fingerprint_fleet(core::Fleet& fleet) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix_bytes = [&h](const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t t = 0; t < fleet.tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet.tenant(t);
    util::SerialLane in_lane(tenant.lane());
    for (const repair::RepairRecord& r : tenant.framework->engine().records()) {
      mix_bytes(r.strategy.data(), r.strategy.size());
      mix_bytes(r.element.data(), r.element.size());
      const double started = r.started.as_seconds();
      mix_bytes(&started, sizeof(started));
    }
    const std::string model = acme::print_system(tenant.framework->system());
    mix_bytes(model.data(), model.size());
  }
  return h;
}

Cell run_once(const ScenarioSpec& spec, std::size_t sim_threads) {
  sim::Simulator sim;
  auto fleet = std::make_unique<core::Fleet>(
      sim, make_options(spec, sim_threads));
  fleet->start();
  const auto t0 = Clock::now();
  fleet->run_until(SimTime::seconds(spec.horizon_s));
  const auto t1 = Clock::now();

  Cell c;
  c.sim_threads = sim_threads;
  c.wall_s = std::chrono::duration<double>(t1 - t0).count();
  c.events = sim.executed() + fleet->coordinator()->stats().shard_events;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    c.repairs += tenant.framework->engine().records().size();
  }
  c.fingerprint = fingerprint_fleet(*fleet);
  return c;
}

Cell run_best(const ScenarioSpec& spec, std::size_t sim_threads) {
  // The simulation is deterministic — every rep produces identical events,
  // repairs, and fingerprints — so only the wall clock varies; report the
  // minimum.
  Cell best;
  for (int rep = 0; rep < spec.reps; ++rep) {
    Cell c = run_once(spec, sim_threads);
    if (rep == 0 || c.wall_s < best.wall_s) best = c;
  }
  return best;
}

struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<Cell> cells;  // 1 / 2 / 4 / 8 threads; cells[0] is the baseline
  bool deterministic = true;

  const Cell& baseline() const { return cells.front(); }
  double speedup(const Cell& c) const { return baseline().wall_s / c.wall_s; }
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      arcadia::bench::output_path(argc, argv, "BENCH_fleet.json");
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::vector<ScenarioSpec> specs = {
      {"fleet-4x16", 8, 720.0, 3, 1.3},
      {"fleet-64x256", 64, 45.0, 2, 2.0},
  };

  std::vector<ScenarioResult> results;
  for (const ScenarioSpec& spec : specs) {
    ScenarioResult res;
    res.spec = spec;
    for (std::size_t threads : thread_counts) {
      std::cout << "bench_fleet_scaling: " << spec.name << " x"
                << spec.tenants << " tenants, sharded " << threads
                << " thread" << (threads == 1 ? "" : "s") << "...\n";
      res.cells.push_back(run_best(spec, threads));
    }
    for (const Cell& c : res.cells) {
      if (c.fingerprint != res.cells.front().fingerprint ||
          c.events != res.cells.front().events) {
        res.deterministic = false;
      }
    }
    results.push_back(std::move(res));
  }

  // Wall-clock gates only bind where the host has the cores to honor them;
  // determinism binds everywhere.
  const bool gates_enforced = hw >= 4;

  std::ofstream json(out_path);
  json << "{\n  \"hw_concurrency\": " << hw << ",\n"
       << "  \"gates_enforced\": " << (gates_enforced ? "true" : "false")
       << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& res = results[i];
    json << "    {\n"
         << "      \"name\": \"" << res.spec.name << "\",\n"
         << "      \"tenants\": " << res.spec.tenants << ",\n"
         << "      \"horizon_sim_s\": " << res.spec.horizon_s << ",\n"
         << "      \"baseline_sim_threads\": " << res.baseline().sim_threads
         << ",\n"
         << "      \"baseline_wall_s\": " << res.baseline().wall_s << ",\n"
         << "      \"baseline_events\": " << res.baseline().events << ",\n"
         << "      \"baseline_repairs\": " << res.baseline().repairs << ",\n"
         << "      \"min_speedup\": " << res.spec.min_speedup << ",\n"
         << "      \"deterministic\": "
         << (res.deterministic ? "true" : "false") << ",\n"
         << "      \"cells\": [\n";
    for (std::size_t k = 0; k < res.cells.size(); ++k) {
      const Cell& c = res.cells[k];
      json << "        {\"sim_threads\": " << c.sim_threads
           << ", \"wall_s\": " << c.wall_s
           << ", \"speedup_vs_1thread\": " << res.speedup(c)
           << ", \"events\": " << c.events << ", \"repairs\": " << c.repairs
           << "}" << (k + 1 < res.cells.size() ? "," : "") << "\n";
    }
    json << "      ]\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();

  bool pass = true;
  for (const ScenarioResult& res : results) {
    std::cout << res.spec.name << ": " << res.baseline().events
              << " events, " << res.baseline().repairs << " repairs\n";
    for (const Cell& c : res.cells) {
      std::cout << "  " << c.sim_threads << " thread"
                << (c.sim_threads == 1 ? " " : "s") << ": " << c.wall_s
                << " s  (" << res.speedup(c) << "x vs 1 thread)\n";
    }
    if (!res.deterministic) {
      std::cout << "FAIL: " << res.spec.name
                << " fingerprints differ across sim-thread counts — the "
                   "sharded kernel's determinism contract is broken\n";
      pass = false;
    }
    if (gates_enforced) {
      double best_4plus = 0.0;
      for (const Cell& c : res.cells) {
        if (c.sim_threads >= 4 && c.sim_threads <= hw) {
          best_4plus = std::max(best_4plus, res.speedup(c));
        }
      }
      if (best_4plus < res.spec.min_speedup) {
        std::cout << "FAIL: " << res.spec.name
                  << " best 4+-thread speedup vs 1 thread " << best_4plus
                  << "x < " << res.spec.min_speedup << "x\n";
        pass = false;
      }
    }
  }
  if (!gates_enforced) {
    std::cout << "NOTE: hw_concurrency = " << hw
              << " < 4 — wall-clock speedup gates skipped (determinism "
                 "still enforced); run on a 4+-core host for the real "
                 "gates\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
