// Race stress: hammer every shared-state substrate from multiple host
// threads so the TSan lane (ARCADIA_SANITIZE=thread) has real contention to
// chew on. The assertions here are deliberately weak — the point is the
// interleaving, not the arithmetic; TSan (and the thread-safety
// annotations) supply the real oracle. Iteration counts are modest: the
// suite must stay fast under TSan's ~5-15x slowdown on a single core.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "acme/adl.hpp"
#include "acme/script.hpp"
#include "core/fleet.hpp"
#include "events/bus.hpp"
#include "monitor/topics.hpp"
#include "repair/scripts.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/shard_sim.hpp"
#include "util/annotations.hpp"
#include "util/log.hpp"
#include "util/symbol.hpp"
#include "util/thread_pool.hpp"
#include "zero_delay_bus.hpp"

namespace arcadia {
namespace {

/// The hand-built FleetManager rigs drive their sweeps by hand: the
/// periodic sweep's first run lies far past every horizon.
constexpr SimTime kCheckPeriod = SimTime::seconds(5);
constexpr SimTime kManualSweeps = SimTime::seconds(1e6);

// ---- Symbol interning: concurrent intern of overlapping name sets --------

TEST(RaceStressTest, ConcurrentInterningIsConsistent) {
  constexpr int kThreads = 4;
  constexpr int kNames = 64;
  std::vector<std::vector<util::Symbol>> per_thread(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&per_thread, t] {
      per_thread[t].reserve(kNames);
      for (int i = 0; i < kNames; ++i) {
        // Every thread interns the same names in a different order, so the
        // first-wins insertion races constantly.
        const int idx = (i * 7 + t * 13) % kNames;
        per_thread[t].push_back(util::Symbol::intern(
            "race.sym." + std::to_string(idx)));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // All threads must agree: same text -> same id, and the id must resolve
  // back to the text that was interned.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kNames; ++i) {
      const int idx = (i * 7 + t * 13) % kNames;
      const util::Symbol sym = per_thread[t][i];
      EXPECT_EQ(sym.str(), "race.sym." + std::to_string(idx));
      EXPECT_EQ(sym, util::Symbol::intern("race.sym." + std::to_string(idx)));
    }
  }
}

// ---- Logger: log vs set_level vs set_sink --------------------------------

TEST(RaceStressTest, LoggerLevelAndSinkChurn) {
  Logger& log = Logger::instance();
  std::atomic<std::uint64_t> sunk{0};
  log.set_sink([&sunk](LogLevel, const std::string&) {
    sunk.fetch_add(1, std::memory_order_relaxed);
  });
  log.set_level(LogLevel::Info);

  std::atomic<bool> stop{false};
  std::thread flipper([&log, &stop] {
    // set_level is the documented lock-free knob (atomic); set_sink swaps
    // the callable under the logger mutex. Both race the writers below.
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      log.set_level(i % 2 ? LogLevel::Info : LogLevel::Warn);
      std::this_thread::yield();
      ++i;
    }
  });

  constexpr int kThreads = 3;
  constexpr int kLines = 300;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        ARC_WARN << "race stress t" << t << " line " << i;
      }
    });
  }
  for (std::thread& th : writers) th.join();
  stop.store(true);
  flipper.join();

  // Warn passes both level settings, so every line must have reached a sink.
  EXPECT_EQ(sunk.load(), static_cast<std::uint64_t>(kThreads) * kLines);

  // Restore defaults for the rest of the process.
  log.set_sink(nullptr);
  log.set_level(LogLevel::Warn);
}

// ---- ThreadPool: submit storm from many threads + parallel_for ------------

TEST(RaceStressTest, ThreadPoolSubmitStorm) {
  ThreadPool pool(3);
  constexpr int kProducers = 3;
  constexpr int kTasks = 100;
  std::atomic<std::uint64_t> ran{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &ran] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasks);
      for (int i = 0; i < kTasks; ++i) {
        futures.push_back(pool.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (std::future<void>& f : futures) f.get();
    });
  }
  for (std::thread& th : producers) th.join();
  EXPECT_EQ(ran.load(), static_cast<std::uint64_t>(kProducers) * kTasks);

  // parallel_for on the same (now idle) pool still works after the storm.
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---- Fleet: parallel detection sweep vs batched gauge application ---------

events::Notification gauge_report(const std::string& element,
                                  const std::string& property, double value) {
  events::Notification n(monitor::topics::kGaugeReport);
  n.set(monitor::topics::kAttrElement, events::Value(element));
  n.set(monitor::topics::kAttrProperty, events::Value(property));
  n.set(monitor::topics::kAttrValue, events::Value(value));
  return n;
}

/// Minimal shard (mirrors tests/test_fleet.cpp): one-component model,
/// zero-delay gauge bus, model-only repair engine, architecture manager.
struct ShardRig {
  explicit ShardRig(sim::Simulator& sim, const std::string& component)
      : system("ShardSys"), bus(sim) {
    auto& comp = system.add_component(component, "ClientT");
    comp.set_property("averageLatency", model::PropertyValue(0.5));
    static acme::Script script = acme::parse_script(repair::extended_script());
    engine = std::make_unique<repair::RepairEngine>(
        sim, system, script, nullptr, nullptr, nullptr,
        repair::RepairEngineConfig{});
    manager =
        std::make_unique<core::ArchitectureManager>(sim, system, *engine);
    manager->checker().add_constraint("lat:" + component, component,
                                      "averageLatency <= 2.0", "");
  }

  model::System system;
  test::ZeroDelayBus bus;
  std::unique_ptr<repair::RepairEngine> engine;
  std::unique_ptr<core::ArchitectureManager> manager;
};

TEST(RaceStressTest, FleetParallelSweepUnderReportLoad) {
  sim::Simulator sim;
  constexpr int kShards = 6;
  std::vector<std::unique_ptr<ShardRig>> rigs;
  for (int s = 0; s < kShards; ++s) {
    rigs.push_back(
        std::make_unique<ShardRig>(sim, "Client" + std::to_string(s)));
  }

  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::millis(500);
  cfg.sweep_threads = 4;  // force the pool even on a 1-core host
  core::FleetManager fleet(sim, kCheckPeriod, kManualSweeps, cfg);
  for (int s = 0; s < kShards; ++s) {
    fleet.add_shard("tenant" + std::to_string(s), *rigs[s]->manager,
                    rigs[s]->bus);
  }
  fleet.start();

  // Alternate breach / recover across all shards, sweeping between waves.
  // Detection runs on pool threads against shard models the sim thread just
  // mutated via flushed batches — exactly the handoff the fleet's
  // "parallel detect, ordered dispatch" contract must keep race-free.
  constexpr int kWaves = 10;
  for (int w = 0; w < kWaves; ++w) {
    const double value = (w % 2 == 0) ? 5.0 : 0.5;  // breach : recover
    for (int s = 0; s < kShards; ++s) {
      rigs[s]->bus.publish(gauge_report("Client" + std::to_string(s),
                                        "averageLatency", value));
    }
    sim.run_until(sim.now());  // deliver the wave's reports
    fleet.run_sweep();
  }
  fleet.stop();

  const core::FleetStats& stats = fleet.stats();
  EXPECT_EQ(stats.sweep_rounds, static_cast<std::uint64_t>(kWaves));
  // Vacuity guard: a four-thread pool, and every shard detected every
  // round — so each round handed the pool six shards.
  EXPECT_EQ(fleet.sweep_threads(), 4u);
  std::uint64_t violations = 0;
  for (int s = 0; s < kShards; ++s) {
    const core::FleetShardStats& ss = fleet.shard_stats(s);
    EXPECT_EQ(ss.reports_enqueued, static_cast<std::uint64_t>(kWaves));
    EXPECT_EQ(ss.sweeps, static_cast<std::uint64_t>(kWaves));
    violations += ss.violations;
  }
  // Half the waves breach on every shard.
  EXPECT_GE(violations, static_cast<std::uint64_t>(kShards) * (kWaves / 2));
}

// ---- sharded simulation kernel: 4 shards x 4 worker threads ---------------

struct ShardStressFingerprint {
  std::vector<std::uint64_t> work;    // per-shard tick counters
  std::vector<std::uint64_t> sweeps;  // control-side sums, per sweep
  std::uint64_t shard_events = 0;
  std::uint64_t rounds = 0;

  bool operator==(const ShardStressFingerprint&) const = default;
};

/// Synthetic load on the raw coordinator: every shard runs a 1 ms tick
/// chain, and a 50 ms control-side sweep reads all shard counters at the
/// barrier epochs it creates — the pool join at each barrier is the
/// happens-before edge that makes that read legal.
ShardStressFingerprint run_shard_stress(unsigned threads) {
  constexpr std::uint32_t kSimShards = 4;
  const SimTime horizon = SimTime::seconds(2);

  sim::Simulator control;
  sim::SimCoordinatorOptions copt;
  copt.threads = threads;
  sim::SimCoordinator coord(control, copt);

  std::vector<std::uint64_t> work(kSimShards, 0);
  std::vector<std::uint64_t> sweeps;
  for (std::uint32_t s = 0; s < kSimShards; ++s) coord.add_shard();

  // The chains reschedule through references to these locals, which
  // outlive the run; events still queued at the horizon own nothing.
  std::function<void(std::uint32_t)> tick = [&](std::uint32_t s) {
    ++work[s];
    sim::Simulator& sim = coord.shard(s).sim();
    if (sim.now() + SimTime::millis(1) < horizon) {
      sim.schedule_in(SimTime::millis(1), [&tick, s] { tick(s); });
    }
  };
  for (std::uint32_t s = 0; s < kSimShards; ++s) {
    coord.shard(s).sim().schedule_at(SimTime::millis(1) * (s + 1),
                                     [&tick, s] { tick(s); });
  }

  std::function<void()> sweep = [&] {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < kSimShards; ++s) sum += work[s];
    sweeps.push_back(sum);
    if (control.now() + SimTime::millis(50) < horizon) {
      control.schedule_in(SimTime::millis(50), [&sweep] { sweep(); });
    }
  };
  control.schedule_at(SimTime::millis(50), [&sweep] { sweep(); });

  coord.run_until(horizon);

  ShardStressFingerprint fp;
  fp.work = work;
  fp.sweeps = sweeps;
  fp.shard_events = coord.stats().shard_events;
  fp.rounds = coord.stats().rounds;
  return fp;
}

TEST(RaceStressTest, FourShardsFourThreadsMatchSerialRun) {
  const ShardStressFingerprint serial = run_shard_stress(1);
  const ShardStressFingerprint parallel = run_shard_stress(4);
  EXPECT_EQ(serial, parallel);
  // Vacuity guards: every shard ticked, and the control sweeps actually
  // chopped the run into many windows.
  for (std::size_t s = 0; s < serial.work.size(); ++s) {
    EXPECT_GT(serial.work[s], 100u) << "shard " << s;
  }
  EXPECT_GT(serial.rounds, 10u);
  EXPECT_FALSE(serial.sweeps.empty());
}

TEST(RaceStressTest, ShardedFleetUnderGaugeLoadAndFaults) {
  // The full stack on 4 worker threads: per-tenant gauges, batched fleet
  // sweeps, fault draws, repairs. Runs green under TSan or the windows'
  // thread discipline is broken.
  sim::Simulator sim;
  core::FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 4;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  opt.config.grid.groups = 2;
  opt.config.grid.clients = 8;
  opt.config.grid.spares = 1;
  opt.config.quiescent_end = SimTime::seconds(40);
  opt.config.stress_start = SimTime::seconds(80);
  opt.config.stress_end = SimTime::seconds(220);
  opt.config.normal_rate_hz = 2.0;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.config.fault.enabled = true;
  opt.config.fault.monitoring.report_loss = 0.10;
  opt.config.fault.repair.op_transient = 0.10;
  opt.manager.sweep_threads = 4;
  opt.manager.coalesce_window = SimTime::millis(500);
  opt.sim_threads = 4;
  auto fleet = std::make_unique<core::Fleet>(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(320));

  ASSERT_NE(fleet->coordinator(), nullptr);
  const sim::SimCoordinatorStats stats = fleet->coordinator()->stats();
  EXPECT_GT(stats.shard_events, 0u);
  EXPECT_GT(stats.rounds, 0u);
  std::uint64_t repairs = 0;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    repairs += tenant.framework->engine().records().size();
  }
  EXPECT_GT(repairs, 0u);
}

/// One tenant's outcome under the sharded kernel: repair decisions, the
/// final model and how many reports its gauges published.
struct TenantPrint {
  std::vector<std::tuple<std::string, std::string, std::int64_t>> repairs;
  std::string model;
  std::uint64_t reports = 0;
  bool operator==(const TenantPrint&) const = default;
};

struct DemandFleetPrint {
  std::uint64_t events = 0;
  std::vector<TenantPrint> tenants;
  std::uint64_t enqueued = 0;
  std::uint64_t coalesced = 0;
  bool operator==(const DemandFleetPrint&) const = default;
};

/// 4 tenants with sweep-aligned coalescing (a 1 s window = the 1 s sweep)
/// and QoS monitoring, so every gauge reports on demand: the reporters'
/// re-arm path runs inside parallel shard windows.
DemandFleetPrint run_demand_fleet(std::size_t sim_threads) {
  sim::Simulator sim;
  core::FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 4;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  opt.config.grid.groups = 2;
  opt.config.grid.clients = 8;
  opt.config.grid.spares = 1;
  opt.config.quiescent_end = SimTime::seconds(40);
  opt.config.stress_start = SimTime::seconds(80);
  opt.config.stress_end = SimTime::seconds(220);
  opt.config.normal_rate_hz = 2.0;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.framework.monitoring_qos = true;
  opt.framework.gauge_costs.report_period = SimTime::millis(250);
  opt.framework.check_period = SimTime::seconds(1);
  opt.manager.coalesce_window = SimTime::seconds(1);
  opt.manager.sweep_threads = 4;
  opt.sim_threads = sim_threads;
  auto fleet = std::make_unique<core::Fleet>(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(320));

  DemandFleetPrint fp;
  fp.events = sim.executed() + fleet->coordinator()->stats().shard_events;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    TenantPrint print;
    for (const repair::RepairRecord& r : tenant.framework->engine().records()) {
      print.repairs.emplace_back(r.strategy, r.element,
                                 r.started.as_micros());
    }
    print.model = acme::print_system(tenant.framework->system());
    print.reports = tenant.framework->gauges().stats().reports;
    fp.tenants.push_back(std::move(print));
    fp.enqueued += fleet->manager()->shard_stats(t).reports_enqueued;
    fp.coalesced += fleet->manager()->shard_stats(t).reports_coalesced;
  }
  return fp;
}

TEST(RaceStressTest, DemandAlignedFleetFourThreadsMatchOneThread) {
  const DemandFleetPrint one = run_demand_fleet(1);
  const DemandFleetPrint four = run_demand_fleet(4);
  EXPECT_EQ(one, four);
  // Vacuity guards: the gauges reported on demand (every 250 ms tick
  // reporting would coalesce about three reports in four) and the fleet
  // adapted.
  EXPECT_GT(one.enqueued, 0u);
  EXPECT_LT(one.coalesced * 100, one.enqueued);
  std::size_t repairs = 0;
  for (const TenantPrint& t : one.tenants) repairs += t.repairs.size();
  EXPECT_GT(repairs, 0u);
}

}  // namespace
}  // namespace arcadia
