// Micro benchmarks for the substrates: DES kernel scheduling, max-min
// reallocation, content-based bus matching, model operations, and Armani
// expression evaluation.
#include <benchmark/benchmark.h>

#include "acme/expr_parser.hpp"
#include "acme/evaluator.hpp"
#include "events/bus.hpp"
#include "model/transaction.hpp"
#include "model/types.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace arcadia;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(SimTime::micros(i), [&fired] { ++fired; });
    }
    sim.run_until(SimTime::seconds(10));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

void BM_MaxMinReallocate(benchmark::State& state) {
  sim::Simulator sim;
  sim::Topology topo;
  auto r1 = topo.add_node("r1", sim::NodeKind::Router);
  auto r2 = topo.add_node("r2", sim::NodeKind::Router);
  std::vector<sim::NodeId> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(topo.add_node("h" + std::to_string(i), sim::NodeKind::Host));
    topo.add_link(hosts.back(), i % 2 ? r1 : r2, Bandwidth::mbps(10));
  }
  topo.add_link(r1, r2, Bandwidth::mbps(10));
  topo.compute_routes();
  sim::FlowNetwork net(sim, topo);
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<sim::FlowId> ids;
    for (int i = 0; i < flows; ++i) {
      ids.push_back(net.start_transfer(hosts[i % 8], hosts[(i + 1) % 8],
                                       DataSize::megabytes(100), [] {}));
    }
    for (sim::FlowId id : ids) net.cancel_transfer(id);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinReallocate)->Arg(4)->Arg(16)->Arg(64);

// The sparse case: a grid-scenario-shaped topology (a ring of 16 routers,
// 18 hosts on each: 304 nodes, 608 channels) where only the few dozen
// channels under 4-16 concurrent flows are active. Reallocation cost should
// follow the flows, not the topology.
void BM_MaxMinReallocateSparse(benchmark::State& state) {
  sim::Simulator sim;
  sim::Topology topo;
  const int routers = 16;
  const int hosts_per_router = 18;
  std::vector<sim::NodeId> ring;
  std::vector<sim::NodeId> hosts;
  for (int r = 0; r < routers; ++r) {
    ring.push_back(topo.add_node("r" + std::to_string(r), sim::NodeKind::Router));
  }
  for (int r = 0; r < routers; ++r) {
    topo.add_link(ring[r], ring[(r + 1) % routers], Bandwidth::mbps(100));
    for (int h = 0; h < hosts_per_router; ++h) {
      hosts.push_back(topo.add_node("h" + std::to_string(r) + "_" +
                                        std::to_string(h),
                                    sim::NodeKind::Host));
      topo.add_link(hosts.back(), ring[r], Bandwidth::mbps(10));
    }
  }
  topo.compute_routes();
  sim::FlowNetwork net(sim, topo);
  const int flows = static_cast<int>(state.range(0));
  const std::size_t n = hosts.size();
  for (auto _ : state) {
    std::vector<sim::FlowId> ids;
    for (int i = 0; i < flows; ++i) {
      const std::size_t src = static_cast<std::size_t>(i) * 37 % n;
      ids.push_back(net.start_transfer(hosts[src], hosts[(src + 101) % n],
                                       DataSize::megabytes(100), [] {}));
    }
    for (sim::FlowId id : ids) net.cancel_transfer(id);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinReallocateSparse)->Arg(4)->Arg(16);

void BM_BusPublishMatch(benchmark::State& state) {
  events::LocalEventBus bus;
  const int subs = static_cast<int>(state.range(0));
  int hits = 0;
  for (int i = 0; i < subs; ++i) {
    bus.subscribe(events::Filter::topic("probe.latency")
                      .where("client", events::Op::Eq,
                             "User" + std::to_string(i % 6 + 1)),
                  [&hits](const events::Notification&) { ++hits; });
  }
  events::Notification n("probe.latency");
  n.set("client", "User3").set("value", 1.25);
  for (auto _ : state) {
    bus.publish(n);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * subs);
}
BENCHMARK(BM_BusPublishMatch)->Arg(12)->Arg(120);

void BM_ModelTransactionCycle(benchmark::State& state) {
  model::System system("bench");
  model::Component& grp = system.add_component("G", model::cs::kServerGroupT);
  grp.set_property(model::cs::kPropReplication, model::PropertyValue(0));
  grp.representation();
  for (auto _ : state) {
    model::Transaction txn(system);
    txn.add_component({"G"}, "S", model::cs::kServerT);
    txn.set_property({}, model::ElementKind::Component, "G", "",
                     model::cs::kPropReplication, model::PropertyValue(1));
    txn.rollback();
  }
}
BENCHMARK(BM_ModelTransactionCycle);

void BM_ExprEvaluate(benchmark::State& state) {
  model::System system("bench");
  for (int i = 0; i < 12; ++i) {
    auto& c = system.add_component("C" + std::to_string(i),
                                   i % 2 ? model::cs::kClientT
                                         : model::cs::kServerGroupT);
    c.set_property("load", model::PropertyValue(static_cast<double>(i)));
  }
  auto expr = acme::parse_expression(
      "size(select g : ServerGroupT in self.Components | g.load > 4.0) > 0");
  acme::Evaluator evaluator;
  acme::EvalContext ctx(system);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_bool(*expr, ctx));
  }
}
BENCHMARK(BM_ExprEvaluate);

}  // namespace

BENCHMARK_MAIN();
