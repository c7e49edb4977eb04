// Microbenchmarks for the paths the paper's loop runs most: model property
// reads, transactions, Armani expression evaluation and constraint sweeps
// (gauge -> model -> checker), the event kernel, the max-min allocator and
// the warm pair lookups of Remos and the topology (the simulated testbed),
// and zero-delay and delayed bus delivery (probe -> gauge).
//
// Each path runs once. Its wall time per operation goes to the JSON as a
// record and is never gated: it depends on the host. Pass or fail rests on
// exact counts that hold on any host, read through a counting operator new
// and the library's own stats accessors:
//   - symbol- and string-keyed property reads allocate nothing;
//   - an incremental sweep after one property write re-evaluates exactly
//     one constraint, and a sweep after a global rebind re-evaluates all,
//     with no allocation per evaluation;
//   - a reserved Simulator schedules, cancels and fires events with no
//     allocation and no pool or heap growth at steady state;
//   - a Remos query and a topology path lookup of an already-warm pair
//     allocate nothing, and every such Remos query is a cache hit;
//   - a steady-state publish allocates nothing, with or without delivery
//     delay, and every publish reaches exactly the subscribers its filters
//     select: a keyed publish reaches only the one subscription keyed on
//     its client.
//
// Usage: bench_micro [out.json]   (default: BENCH_micro.json beside the
// binary). Exits 1 if any gate fails.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "acme/evaluator.hpp"
#include "acme/expr_parser.hpp"
#include "events/bus.hpp"
#include "model/system.hpp"
#include "model/transaction.hpp"
#include "model/types.hpp"
#include "monitor/topics.hpp"
#include "remos/remos.hpp"
#include "repair/constraint.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/symbol.hpp"

#include "bench_output.hpp"

// Counting allocation hook: every operator new in the binary bumps the
// counter, so a loop that leaves it unmoved touched no heap.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs our malloc-backed operator new with the replaced operator
// delete just fine at runtime; the diagnostic only sees the free() call.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace arcadia;
using Clock = std::chrono::steady_clock;

/// Defeats dead-code elimination without a fence per iteration.
volatile double g_sink = 0.0;

/// One timed path: wall time per operation (a record) and the exact counts
/// its gates read.
struct Path {
  std::string name;
  std::uint64_t ops = 0;
  double ns_per_op = 0.0;
  std::uint64_t allocations = 0;  ///< operator new calls inside the loop
  std::vector<std::pair<std::string, std::uint64_t>> counts;
};

/// Runs `body` once, timing it and counting the allocations it makes.
template <typename Fn>
Path measure(std::string name, std::uint64_t ops, Fn&& body) {
  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = Clock::now();
  body();
  const auto t1 = Clock::now();
  Path p;
  p.name = std::move(name);
  p.ops = ops;
  p.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(ops);
  p.allocations = g_alloc_count.load() - allocs_before;
  return p;
}

struct Gate {
  std::string id;
  std::uint64_t measured;
  std::uint64_t expected;
  bool pass() const { return measured == expected; }
};

class Report {
 public:
  void add(const Path& p) {
    std::cout << "  " << p.name << ": " << p.ns_per_op << " ns/op over "
              << p.ops << " ops, " << p.allocations << " allocations";
    for (const auto& [key, value] : p.counts) {
      std::cout << ", " << key << " " << value;
    }
    std::cout << "\n";
    paths_.push_back(p);
  }
  void gate(std::string id, std::uint64_t measured, std::uint64_t expected) {
    Gate g{std::move(id), measured, expected};
    std::cout << (g.pass() ? "  PASS " : "  FAIL ") << g.id << ": "
              << measured << " (expected " << expected << ")\n";
    gates_.push_back(std::move(g));
  }
  int failed() const {
    int n = 0;
    for (const Gate& g : gates_) n += !g.pass();
    return n;
  }

  void write_json(const std::string& path) const {
    std::ofstream json(path);
    json << "{\n  \"paths\": {\n";
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      const Path& p = paths_[i];
      json << "    \"" << p.name << "\": {\"ops\": " << p.ops
           << ", \"ns_per_op\": " << p.ns_per_op
           << ", \"allocations\": " << p.allocations;
      for (const auto& [key, value] : p.counts) {
        json << ", \"" << key << "\": " << value;
      }
      json << "}" << (i + 1 < paths_.size() ? "," : "") << "\n";
    }
    json << "  },\n  \"gates\": [\n";
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const Gate& g = gates_[i];
      json << "    {\"id\": \"" << g.id << "\", \"measured\": " << g.measured
           << ", \"expected\": " << g.expected
           << ", \"pass\": " << (g.pass() ? "true" : "false") << "}"
           << (i + 1 < gates_.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"gates_failed\": " << failed() << "\n}\n";
  }

 private:
  std::vector<Path> paths_;
  std::vector<Gate> gates_;
};

// ---- model: property reads, transactions, expressions ---------------------

void bench_model_lookup(Report& report) {
  constexpr int kComponents = 64;
  constexpr int kProps = 6;
  constexpr std::uint64_t kReads = 100'000;

  model::System sys("bench");
  std::vector<std::string> comp_names;
  std::vector<std::string> prop_names;
  for (int p = 0; p < kProps; ++p) {
    prop_names.push_back("property" + std::to_string(p));
  }
  for (int c = 0; c < kComponents; ++c) {
    comp_names.push_back("Component" + std::to_string(c));
    auto& comp = sys.add_component(comp_names.back(), model::cs::kClientT);
    for (int p = 0; p < kProps; ++p) {
      comp.set_property(prop_names[p], model::PropertyValue(1.0 + p));
    }
  }
  std::vector<util::Symbol> comp_syms;
  std::vector<util::Symbol> prop_syms;
  for (const auto& n : comp_names) comp_syms.push_back(util::Symbol::intern(n));
  for (const auto& n : prop_names) prop_syms.push_back(util::Symbol::intern(n));

  double acc = 0.0;
  Path symbol = measure("model_lookup_symbol", kReads, [&] {
    for (std::uint64_t i = 0; i < kReads; ++i) {
      acc += sys.component(comp_syms[i % kComponents])
                 .property(prop_syms[i % kProps])
                 .as_double();
    }
  });
  Path string = measure("model_lookup_string", kReads, [&] {
    for (std::uint64_t i = 0; i < kReads; ++i) {
      acc += sys.component(comp_names[i % kComponents])
                 .property(prop_names[i % kProps])
                 .as_double();
    }
  });
  g_sink = acc;
  report.add(symbol);
  report.add(string);
  report.gate("model_lookup_symbol.allocations", symbol.allocations, 0);
  report.gate("model_lookup_string.allocations", string.allocations, 0);
}

void bench_transaction_cycle(Report& report) {
  constexpr std::uint64_t kCycles = 10'000;
  model::System system("bench");
  model::Component& grp =
      system.add_component("G", model::cs::kServerGroupT);
  grp.set_property(model::cs::kPropReplication, model::PropertyValue(0));
  grp.representation();
  report.add(measure("transaction_cycle", kCycles, [&] {
    for (std::uint64_t i = 0; i < kCycles; ++i) {
      model::Transaction txn(system);
      txn.add_component({"G"}, "S", model::cs::kServerT);
      txn.set_property({}, model::ElementKind::Component, "G", "",
                       model::cs::kPropReplication, model::PropertyValue(1));
      txn.rollback();
    }
  }));
}

void bench_expression_eval(Report& report) {
  constexpr std::uint64_t kEvals = 20'000;
  model::System system("bench");
  for (int i = 0; i < 12; ++i) {
    auto& c = system.add_component(
        "C" + std::to_string(i),
        i % 2 ? model::cs::kClientT : model::cs::kServerGroupT);
    c.set_property("load", model::PropertyValue(static_cast<double>(i)));
  }
  const auto expr = acme::parse_expression(
      "size(select g : ServerGroupT in self.Components | g.load > 4.0) > 0");
  acme::Evaluator evaluator;
  acme::EvalContext ctx(system);
  std::uint64_t satisfied = 0;
  Path p = measure("expression_eval", kEvals, [&] {
    for (std::uint64_t i = 0; i < kEvals; ++i) {
      satisfied += evaluator.evaluate_bool(*expr, ctx);
    }
  });
  p.counts = {{"satisfied", satisfied}};
  report.add(p);
}

// ---- repair: the constraint sweep -----------------------------------------

void bench_constraint_sweep(Report& report) {
  constexpr int kClients = 64;
  constexpr std::uint64_t kSweeps = 2'000;

  model::System sys("sweep");
  for (int c = 0; c < kClients; ++c) {
    auto& client = sys.add_component("User" + std::to_string(c),
                                     model::cs::kClientT);
    client.set_property("averageLatency", model::PropertyValue(0.5));
    client.set_property("maxLatency", model::PropertyValue(2.0));
  }
  repair::ConstraintChecker checker(sys);
  for (int c = 0; c < kClients; ++c) {
    checker.add_constraint("lat:User" + std::to_string(c),
                           "User" + std::to_string(c),
                           "averageLatency <= maxLatency", "fix");
  }
  std::vector<model::Component*> clients = sys.components();
  const util::Symbol lat = util::Symbol::intern("averageLatency");

  // Gauge-report-like steady state: one element's property refreshed
  // between sweeps, every constraint satisfied.
  auto write = [&](std::uint64_t s) {
    clients[s % kClients]->set_property(lat, model::PropertyValue(0.5));
  };
  std::uint64_t violations = 0;
  auto evaluations = [&checker] { return checker.check_stats().evaluations; };

  // Rebinding a global invalidates every memo: the full-sweep cost the
  // incremental checker avoids. The global stays bound afterwards, as the
  // task layer's thresholds are in a real run.
  std::uint64_t before = evaluations();
  Path full = measure("constraint_sweep_full", kSweeps, [&] {
    for (std::uint64_t s = 0; s < kSweeps; ++s) {
      write(s);
      checker.bind_global("force_full", acme::EvalValue(0.0));
      violations += checker.check().size();
    }
  });
  const std::uint64_t full_evaluations = evaluations() - before;
  full.counts = {{"evaluations", full_evaluations}};
  report.add(full);

  before = evaluations();
  Path incremental = measure("constraint_sweep_incremental", kSweeps, [&] {
    for (std::uint64_t s = 0; s < kSweeps; ++s) {
      write(s);
      violations += checker.check().size();
    }
  });
  const std::uint64_t incremental_evaluations = evaluations() - before;
  incremental.counts = {{"evaluations", incremental_evaluations}};
  report.add(incremental);
  g_sink = static_cast<double>(violations);

  report.gate("constraint_sweep_full.evaluations", full_evaluations,
              kSweeps * kClients);
  report.gate("constraint_sweep_incremental.evaluations",
              incremental_evaluations, kSweeps);
  // An evaluation runs in a child of the checker's globals scope and
  // allocates nothing. The full sweep's 9 are one-time: the first
  // bind_global's map insert and the first check()'s memo vector growth.
  report.gate("constraint_sweep_full.allocations", full.allocations, 9);
  report.gate("constraint_sweep_incremental.allocations",
              incremental.allocations, 0);
}

// ---- sim: event kernel and max-min allocator ------------------------------

void bench_simulator(Report& report) {
  constexpr int kPerRound = 128;  // a third of them cancelled
  constexpr int kWarmupRounds = 16;
  constexpr int kRounds = 400;

  // Simulator::reserve pre-sizes the slot pool and the event heap the way
  // scenario builds do (sim::estimate_event_reserve); once warm, the
  // schedule -> cancel/fire -> recycle cycle must never touch the heap or
  // grow either arena.
  sim::Simulator sim;
  sim.reserve(256);
  std::vector<sim::EventHandle> handles;
  handles.reserve(kPerRound);
  std::uint64_t counter = 0;
  double when = 0.0;
  auto round = [&] {
    handles.clear();
    for (int i = 0; i < kPerRound; ++i) {
      handles.push_back(
          sim.schedule_in(SimTime::millis(1 + (i % 7)), [&counter, &when, i] {
            ++counter;
            when += i;
          }));
    }
    for (int i = 0; i < kPerRound; i += 3) handles[i].cancel();
    sim.run_until(sim.now() + SimTime::seconds(1));
  };
  for (int r = 0; r < kWarmupRounds; ++r) round();
  const std::uint64_t fired_before = sim.executed();
  Path p = measure("simulator_schedule_cancel",
                   std::uint64_t(kRounds) * kPerRound, [&] {
                     for (int r = 0; r < kRounds; ++r) round();
                   });
  g_sink = static_cast<double>(counter) + when;
  const std::uint64_t growths = sim.pool_growths() + sim.queue_growths();
  p.counts = {{"fired", sim.executed() - fired_before},
              {"arena_growths", growths}};
  report.add(p);
  report.gate("simulator_schedule_cancel.allocations", p.allocations, 0);
  report.gate("simulator_schedule_cancel.arena_growths", growths, 0);
}

/// Starts `flows` transfers and cancels them, `kCycles` times; every start
/// and cancel is one max-min reallocation.
void run_reallocations(Report& report, std::string name,
                       const sim::Topology& topo,
                       const std::vector<sim::NodeId>& hosts, int flows,
                       std::size_t stride, std::size_t hop) {
  constexpr int kCycles = 200;
  sim::Simulator sim;
  sim::FlowNetwork net(sim, topo);
  std::vector<sim::FlowId> ids;
  ids.reserve(flows);
  const std::size_t n = hosts.size();
  Path p = measure(std::move(name), std::uint64_t(kCycles) * flows, [&] {
    for (int c = 0; c < kCycles; ++c) {
      ids.clear();
      for (int i = 0; i < flows; ++i) {
        const std::size_t src = static_cast<std::size_t>(i) * stride % n;
        ids.push_back(net.start_transfer(hosts[src], hosts[(src + hop) % n],
                                         DataSize::megabytes(100), [] {}));
      }
      for (sim::FlowId id : ids) net.cancel_transfer(id);
    }
  });
  p.counts = {{"reallocations", net.stats().reallocations},
              {"waterfill_rounds", net.stats().waterfill_rounds}};
  report.add(p);
}

void bench_maxmin(Report& report) {
  {  // dense: 8 hosts on two routers, every channel carries flows
    sim::Topology topo;
    const auto r1 = topo.add_node("r1", sim::NodeKind::Router);
    const auto r2 = topo.add_node("r2", sim::NodeKind::Router);
    std::vector<sim::NodeId> hosts;
    for (int i = 0; i < 8; ++i) {
      hosts.push_back(
          topo.add_node("h" + std::to_string(i), sim::NodeKind::Host));
      topo.add_link(hosts.back(), i % 2 ? r1 : r2, Bandwidth::mbps(10));
    }
    topo.add_link(r1, r2, Bandwidth::mbps(10));
    topo.compute_routes();
    run_reallocations(report, "maxmin_dense", topo, hosts, 64, 1, 1);
  }
  {  // sparse: a grid-scenario-shaped ring of 16 routers with 18 hosts
     // each (608 channels), of which the flows cross only a few dozen;
     // the cost should follow the flows, not the topology
    constexpr int kRouters = 16;
    constexpr int kHostsPerRouter = 18;
    sim::Topology topo;
    std::vector<sim::NodeId> ring;
    std::vector<sim::NodeId> hosts;
    for (int r = 0; r < kRouters; ++r) {
      ring.push_back(
          topo.add_node("r" + std::to_string(r), sim::NodeKind::Router));
    }
    for (int r = 0; r < kRouters; ++r) {
      topo.add_link(ring[r], ring[(r + 1) % kRouters], Bandwidth::mbps(100));
      for (int h = 0; h < kHostsPerRouter; ++h) {
        hosts.push_back(topo.add_node(
            "h" + std::to_string(r) + "_" + std::to_string(h),
            sim::NodeKind::Host));
        topo.add_link(hosts.back(), ring[r], Bandwidth::mbps(10));
      }
    }
    topo.compute_routes();
    run_reallocations(report, "maxmin_sparse", topo, hosts, 16, 37, 101);
  }
}

/// Warm-pair lookups on the request and probe paths: Topology::path, called
/// per transfer, and RemosService::get_flow, called per client per
/// bandwidth-probe tick. A fleet-tenant-shaped star: 4 group hosts and 64
/// clients on one router, every group -> client pair warmed first.
void bench_pair_lookups(Report& report) {
  constexpr int kGroups = 4;
  constexpr int kClients = 64;
  constexpr std::uint64_t kLookups = 100'000;
  sim::Topology topo;
  const auto router = topo.add_node("r", sim::NodeKind::Router);
  std::vector<sim::NodeId> groups;
  std::vector<sim::NodeId> clients;
  for (int g = 0; g < kGroups; ++g) {
    groups.push_back(
        topo.add_node("g" + std::to_string(g), sim::NodeKind::Host));
    topo.add_link(groups.back(), router, Bandwidth::mbps(100));
  }
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        topo.add_node("c" + std::to_string(c), sim::NodeKind::Host));
    topo.add_link(clients.back(), router, Bandwidth::mbps(10));
  }
  topo.compute_routes();
  sim::Simulator sim;
  sim::FlowNetwork net(sim, topo);
  remos::RemosService remos(sim, net);
  for (sim::NodeId g : groups) {
    for (sim::NodeId c : clients) {
      topo.path(g, c);
      remos.get_flow(g, c);
    }
  }
  auto src = [&](std::uint64_t i) { return groups[i % kGroups]; };
  auto dst = [&](std::uint64_t i) { return clients[i / kGroups % kClients]; };

  double acc = 0.0;
  Path path = measure("topology_path_hit", kLookups, [&] {
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      acc += static_cast<double>(topo.path(src(i), dst(i)).size());
    }
  });
  const std::uint64_t hits_before = remos.stats().cache_hits;
  Path flow = measure("remos_warm_get_flow", kLookups, [&] {
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      acc += remos.get_flow(src(i), dst(i)).as_bps();
    }
  });
  g_sink = acc;
  const std::uint64_t hits = remos.stats().cache_hits - hits_before;
  path.counts = {{"materialized_paths", topo.materialized_paths()}};
  flow.counts = {{"cache_hits", hits}};
  report.add(path);
  report.add(flow);
  report.gate("topology_path_hit.allocations", path.allocations, 0);
  report.gate("remos_warm_get_flow.allocations", flow.allocations, 0);
  report.gate("remos_warm_get_flow.cache_hits", hits, kLookups);
}

// ---- events: keyed publish and delayed sim-bus delivery -------------------

void bench_keyed_publish(Report& report) {
  constexpr int kWarmupRounds = 4;
  constexpr int kRounds = 200;
  constexpr int kPerRound = 500;
  constexpr int kClients = 16;
  // Fleet-shaped subscription table: 4 probe topics, one subscription keyed
  // on `client` per client on each, so every publish matches exactly one.
  const util::Symbol topics[4] = {
      util::Symbol::intern("probe.latency"), util::Symbol::intern("probe.queue"),
      util::Symbol::intern("probe.bandwidth"),
      util::Symbol::intern("probe.utilization")};
  std::vector<util::Symbol> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(util::Symbol::intern("User" + std::to_string(i)));
  }
  const util::Symbol client_sym = util::Symbol::intern("client");
  const util::Symbol value_sym = util::Symbol::intern("value");

  // Zero delivery delay: each round's deliveries run at the publish time
  // when the round drains, so the payload pool reaches its steady size.
  sim::Simulator sim;
  events::SimEventBus bus(sim, events::fixed_delay(SimTime::zero()));
  std::uint64_t delivered = 0;
  for (util::Symbol topic : topics) {
    for (util::Symbol client : clients) {
      bus.subscribe(events::Filter::keyed(topic, client_sym, client),
                    [&delivered, value_sym](const events::Notification& n) {
                      delivered += n.get_if(value_sym) != nullptr;
                    });
    }
  }
  auto round = [&] {
    for (std::uint64_t i = 0; i < kPerRound; ++i) {
      events::Notification n(topics[i % 4]);
      n.set(client_sym, clients[i % kClients])
          .set(value_sym, static_cast<double>(i));
      bus.publish(std::move(n));
    }
    sim.run_until(sim.now());
  };
  for (int r = 0; r < kWarmupRounds; ++r) round();
  delivered = 0;
  constexpr std::uint64_t kPublishes = std::uint64_t(kRounds) * kPerRound;
  Path p = measure("sim_bus_keyed_publish", kPublishes, [&] {
    for (int r = 0; r < kRounds; ++r) round();
  });
  p.counts = {{"deliveries", delivered}};
  report.add(p);
  report.gate("sim_bus_keyed_publish.allocations", p.allocations, 0);
  // The key index hands each publish only the subscription keyed on its
  // client, and the bus delivers to every subscription it is handed: one
  // delivery per publish, not one per client.
  report.gate("sim_bus_keyed_publish.deliveries", delivered, kPublishes);
}

void bench_sim_bus(Report& report) {
  constexpr int kWarmupRounds = 2;
  constexpr int kRounds = 50;
  constexpr int kPerRound = 500;
  constexpr int kFanout = 8;  // subscribers matched per publish
  const util::Symbol element_sym = monitor::topics::kAttrElementSym;
  const util::Symbol property_sym = monitor::topics::kAttrPropertySym;
  const util::Symbol value_sym = monitor::topics::kAttrValueSym;
  const util::Symbol user_sym = util::Symbol::intern("User3");
  const util::Symbol latency_sym = util::Symbol::intern("averageLatency");

  // Gauge reports delivered 10 ms after publish, all subscribers of one
  // publish sharing one pooled payload; each round drains before the next.
  sim::Simulator sim;
  events::SimEventBus bus(sim, events::fixed_delay(SimTime::millis(10)));
  std::uint64_t delivered = 0;
  for (int s = 0; s < kFanout; ++s) {
    bus.subscribe(events::Filter::topic(monitor::topics::kGaugeReportSym),
                  [&delivered, value_sym](const events::Notification& n) {
                    delivered += n.get_if(value_sym) != nullptr;
                  });
  }
  auto round = [&] {
    for (int i = 0; i < kPerRound; ++i) {
      events::Notification n(monitor::topics::kGaugeReportSym);
      n.set(element_sym, user_sym)
          .set(property_sym, latency_sym)
          .set(value_sym, static_cast<double>(i));
      bus.publish(std::move(n));
    }
    sim.run_until(sim.now() + SimTime::seconds(1));
  };
  for (int r = 0; r < kWarmupRounds; ++r) round();
  delivered = 0;
  constexpr std::uint64_t kDeliveries =
      std::uint64_t(kRounds) * kPerRound * kFanout;
  Path p = measure("sim_bus_delivery", kDeliveries, [&] {
    for (int r = 0; r < kRounds; ++r) round();
  });
  p.counts = {{"deliveries", delivered}};
  report.add(p);
  report.gate("sim_bus_delivery.allocations", p.allocations, 0);
  report.gate("sim_bus_delivery.deliveries", delivered, kDeliveries);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      arcadia::bench::output_path(argc, argv, "BENCH_micro.json");

  Report report;
  std::cout << "bench_micro: model\n";
  bench_model_lookup(report);
  bench_transaction_cycle(report);
  bench_expression_eval(report);
  std::cout << "bench_micro: constraint sweep\n";
  bench_constraint_sweep(report);
  std::cout << "bench_micro: simulator, max-min allocator, pair lookups\n";
  bench_simulator(report);
  bench_maxmin(report);
  bench_pair_lookups(report);
  std::cout << "bench_micro: event bus\n";
  bench_keyed_publish(report);
  bench_sim_bus(report);

  report.write_json(out_path);
  std::cout << "\nwrote " << out_path << "\n";
  if (const int failed = report.failed()) {
    std::cout << "FAIL: " << failed << " gate(s) off their exact count\n";
    return 1;
  }
  return 0;
}
