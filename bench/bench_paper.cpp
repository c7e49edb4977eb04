// The paper's Section 5 evaluation, run once and checked: Figure 7's
// schedule, Figures 8-13 (control vs repair), Table 1, the sizing analysis
// and Section 5.3. Each distinct experiment runs once in one
// ExperimentSuite; each claim is a named check {id, figure, measured, band,
// paper_text, pass} whose band comes from the paper's sentence, not from a
// measurement. Where the reproduction's number differs from the paper's, the
// check asserts the stated shape and `paper_text` keeps the paper's number.
// A `paper_text` starting "(reproduction)" names a property of this
// reproduction that the paper does not state.
// Figure 11 also gates the staged repair pipeline: the optimized plan must
// beat the paper's sequential plan shape (the JSON's `fig11` object).
//
// Usage: bench_paper [out.json]   (default: BENCH_paper.json beside the
// binary). Exits non-zero if any check fails.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "acme/script.hpp"
#include "bench_output.hpp"
#include "core/report.hpp"
#include "core/suite.hpp"
#include "events/bus.hpp"
#include "remos/remos.hpp"
#include "runtime/environment.hpp"
#include "sim/scenario_registry.hpp"
#include "task/task.hpp"
#include "util/step_function.hpp"

namespace {

using namespace arcadia;
using Result = core::ExperimentResult;
using Options = core::ExperimentOptions;

constexpr const char* kPaperScenario = "paper-fig6";
/// Cross traffic loads the return path too, as on the testbed.
constexpr const char* kLagScenario = "paper-fig6-bidir";
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- named checks ---------------------------------------------------------

/// Accepted range of a measured value; bounds are inclusive unless `open`.
/// A NaN measurement (the measured event never happened) never passes.
struct Band {
  double lo = -kInf;
  double hi = kInf;
  bool open = false;
  std::string unit;

  bool holds(double v) const {
    return open ? (v > lo && v < hi) : (v >= lo && v <= hi);
  }
  std::string text() const {
    std::ostringstream out;
    out << (open ? "(" : "[") << lo << ", " << hi << (open ? ")" : "]");
    if (!unit.empty()) out << " " << unit;
    return out.str();
  }
};

Band in(double lo, double hi, std::string unit = "") {
  return {lo, hi, false, std::move(unit)};
}
Band eq(double v, std::string unit = "") { return in(v, v, std::move(unit)); }
Band ge(double v, std::string unit = "") { return in(v, kInf, unit); }
Band le(double v, std::string unit = "") { return in(-kInf, v, unit); }
Band gt(double v, std::string unit = "") { return {v, kInf, true, unit}; }
Band lt(double v, std::string unit = "") { return {-kInf, v, true, unit}; }

struct Check {
  std::string id;
  std::string figure;
  double measured;
  Band band;
  std::string paper_text;
  bool pass;
};

class Claims {
 public:
  /// Start a figure's section: prints its header and tags later checks.
  void section(std::string figure, const std::string& what) {
    figure_ = std::move(figure);
    std::cout << "\n=== " << figure_ << ": " << what << " ===\n";
  }
  void check(std::string id, double measured, Band band,
             std::string paper_text) {
    const bool pass = band.holds(measured);
    std::cout << (pass ? "  PASS " : "  FAIL ") << id << ": " << measured
              << " (band " << band.text() << "; paper: " << paper_text
              << ")\n";
    checks_.push_back({std::move(id), figure_, measured, std::move(band),
                       std::move(paper_text), pass});
  }
  const std::vector<Check>& all() const { return checks_; }
  int failed() const {
    return static_cast<int>(
        std::count_if(checks_.begin(), checks_.end(),
                      [](const Check& c) { return !c.pass; }));
  }

 private:
  std::string figure_;
  std::vector<Check> checks_;
};

double seconds_or_nan(SimTime t) {
  return t.is_infinite() ? kNaN : t.as_seconds();
}

/// `num / den`, NaN when the denominator is not positive.
double ratio(double num, double den) { return den > 0.0 ? num / den : kNaN; }

// ---- per-run summaries ----------------------------------------------------

/// Over committed, finished repairs.
struct RepairSummary {
  int committed = 0;
  double mean_repair_s = 0.0;
  double max_repair_s = 0.0;
  double mean_gauge_s = 0.0;
  double gauge_share = 0.0;
  double query_share = 0.0;
  double max_query_s = 0.0;
  double fraction_above = 0.0;
};

RepairSummary summarize(const Result& r) {
  RepairSummary s;
  double total = 0.0;
  double gauge = 0.0;
  double query = 0.0;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || !rec.finished) continue;
    ++s.committed;
    const double d = rec.duration().as_seconds();
    total += d;
    gauge += rec.gauge_cost.as_seconds();
    query += rec.query_cost.as_seconds();
    s.max_repair_s = std::max(s.max_repair_s, d);
    s.max_query_s = std::max(s.max_query_s, rec.query_cost.as_seconds());
  }
  if (s.committed > 0) {
    s.mean_repair_s = total / s.committed;
    s.mean_gauge_s = gauge / s.committed;
  }
  if (total > 0.0) {
    s.gauge_share = gauge / total;
    s.query_share = query / total;
  }
  s.fraction_above = r.mean_fraction_above();
  return s;
}

/// Client move-backs: a committed move to a group the client had left.
int move_backs(const Result& r) {
  int count = 0;
  std::map<std::string, std::vector<std::string>> history;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || rec.moves == 0) continue;
    for (const auto& op : rec.ops) {
      const auto pos = op.find("boundTo = ");
      if (pos == std::string::npos) continue;
      const std::string group = op.substr(pos + 10);
      auto& seen = history[rec.element];
      if (std::find(seen.begin(), seen.end(), group) != seen.end()) ++count;
      seen.push_back(group);
    }
  }
  return count;
}

double repair_attempts(const Result& r) {
  return static_cast<double>(r.repair_stats.committed +
                             r.repair_stats.aborted);
}

// ---- the experiments ------------------------------------------------------

/// The adaptive paper run, with `tweak` applied.
Options paper(const std::function<void(Options&)>& tweak = {}) {
  Options opt = core::options_for(kPaperScenario);
  opt.adaptation = true;
  if (tweak) tweak(opt);
  return opt;
}

void sequential(Options& o) { o.framework.repair.use_plan = false; }

/// Both groups stay marginal even with the spares recruited: the regime
/// where the paper saw clients "moving back and forth between server
/// groups".
void heavy_stress(Options& o) { o.scenario.stress_rate_hz = 2.6; }

sim::ScenarioConfig lag_scenario() {
  sim::ScenarioConfig cfg = sim::scenario_defaults(kLagScenario);
  cfg.comp_sg1_phase1_mbps = 9.9999;  // starve the monitoring direction too
  return cfg;
}

Options detection_lag_run(bool qos) {
  Options opt = core::options_for(kLagScenario);
  opt.adaptation = true;
  opt.scenario = lag_scenario();
  opt.scenario.horizon = SimTime::seconds(600);
  opt.framework.monitoring_qos = qos;
  return opt;
}

/// Every distinct configuration, once. The sequential run is both the
/// Figure 11 baseline and the Section 5.3 baseline row.
core::ExperimentSuite paper_suite() {
  core::ExperimentSuite suite;
  suite.add("control", paper([](Options& o) { o.adaptation = false; }));
  suite.add("adaptive", paper());
  suite.add("sequential", paper(sequential));
  suite.add("sequential, gauge caching", paper([](Options& o) {
              sequential(o);
              o.framework.gauge_costs.caching = true;
            }));
  suite.add("sequential, no remos prequery", paper([](Options& o) {
              sequential(o);
              o.framework.remos_prequery = false;
            }));
  suite.add("lag, shared monitoring", detection_lag_run(false));
  suite.add("lag, QoS monitoring", detection_lag_run(true));
  suite.add("worst-client-first", paper([](Options& o) {
              o.framework.repair.policy_name = "worst-first";
            }));
  suite.add("damping off",
            paper([](Options& o) { o.framework.repair.damping = false; }));
  suite.add("figure-5 strict script", paper([](Options& o) {
              o.framework.script_source = acme::figure5_script();
            }));
  suite.add("latency bound 4 s", paper([](Options& o) {
              o.framework.profile.max_latency = SimTime::seconds(4);
              o.scenario.thresholds.max_latency = SimTime::seconds(4);
            }));
  suite.add("heavy stress, damped", paper(heavy_stress));
  suite.add("heavy stress, damping off", paper([](Options& o) {
              heavy_stress(o);
              o.framework.repair.damping = false;
            }));
  return suite;
}

// ---- Figure 7 -------------------------------------------------------------

void figure7(Claims& claims) {
  const sim::ScenarioConfig cfg = sim::scenario_defaults(kPaperScenario);
  claims.section("Fig 7", "bandwidth and server load generation");
  auto schedule = [&](double before, double competition, double stress,
                      double recovery) {
    StepFunction f(before);
    f.step(cfg.quiescent_end, competition);
    f.step(cfg.stress_start, stress);
    f.step(cfg.stress_end, recovery);
    return f;
  };
  const StepFunction comp_sg1 =
      schedule(0.0, cfg.comp_sg1_phase1_mbps, cfg.comp_sg1_stress_mbps,
               cfg.comp_sg1_final_mbps);
  const StepFunction comp_sg2 =
      schedule(0.0, cfg.comp_sg2_phase1_mbps, cfg.comp_sg2_stress_mbps,
               cfg.comp_sg2_final_mbps);
  const double rate_hz = cfg.normal_rate_hz;
  const StepFunction rate =
      schedule(rate_hz, rate_hz, cfg.stress_rate_hz, rate_hz);
  const double kb = cfg.normal_response_mean.as_kilobytes();
  const StepFunction size_kb =
      schedule(kb, kb, cfg.stress_response_size.as_kilobytes(), kb);

  std::cout << "time_s  comp_C34_SG1_Mbps  comp_C34_SG2_Mbps  "
               "req_rate_per_client_hz  resp_size_KB\n";
  for (double t = 0; t <= cfg.horizon.as_seconds(); t += 60) {
    const SimTime st = SimTime::seconds(t);
    std::cout << t << "  " << comp_sg1.value_at(st) << "  "
              << comp_sg2.value_at(st) << "  " << rate.value_at(st) << "  "
              << size_kb.value_at(st) << "\n";
  }

  const char* competition = "8 min bandwidth competition against C3&4<->SG1";
  const char* stress = "10 min 20KB@2/s stress";
  const char* recovery = "10 min recovery with better bandwidth to SG2";
  auto minutes = [](SimTime from, SimTime to) {
    return (to - from).as_seconds() / 60.0;
  };
  claims.check("fig7.quiescent_min",
               minutes(SimTime::zero(), cfg.quiescent_end), eq(2, "min"),
               "2 min quiescent");
  claims.check("fig7.competition_min",
               minutes(cfg.quiescent_end, cfg.stress_start), eq(8, "min"),
               competition);
  claims.check("fig7.stress_min", minutes(cfg.stress_start, cfg.stress_end),
               eq(10, "min"), stress);
  claims.check("fig7.recovery_min", minutes(cfg.stress_end, cfg.horizon),
               eq(10, "min"), recovery);
  claims.check("fig7.competition_sg1_over_sg2",
               ratio(cfg.comp_sg1_phase1_mbps, cfg.comp_sg2_phase1_mbps),
               gt(1, "x"), competition);
  claims.check("fig7.sg1_competition_gbit",
               comp_sg1.integrate(SimTime::zero(), cfg.horizon) / 1e3,
               gt(0, "Gbit"), competition);
  claims.check("fig7.stress_rate_hz", cfg.stress_rate_hz, eq(2, "req/s"),
               stress);
  claims.check("fig7.stress_response_kb",
               cfg.stress_response_size.as_kilobytes(), eq(20, "KB"), stress);
  claims.check("fig7.recovery_sg1_over_sg2",
               ratio(cfg.comp_sg1_final_mbps, cfg.comp_sg2_final_mbps),
               gt(1, "x"), recovery);
  claims.check("fig7.offered_requests",
               rate.integrate(SimTime::zero(), cfg.horizon) * 6.0,
               eq(14400, "requests"),
               "six clients at 1 req/s, 2 req/s during the stress");
}

// ---- Figures 8-10: the control run ----------------------------------------

void figure8(Claims& claims, const Result& control) {
  claims.section("Fig 8", "average latency for control (s)");
  core::print_latency_figure(std::cout, control, SimTime::seconds(60));
  for (std::size_t i = 0; i < control.clients.size(); ++i) {
    const core::ClientSeries& c = control.clients[i];
    const SimTime cross = control.client_first_crossing(i);
    const std::string id = "fig8." + c.name;
    const bool throttled = c.name == "User3" || c.name == "User4";
    claims.check(id + ".first_above_2s", seconds_or_nan(cross),
                 throttled ? in(120, 180, "s") : in(600, 1200, "s"),
                 throttled ? "C3/C4 cross 2 s once the bandwidth competition "
                             "starts (~140 s)"
                           : "every client explodes during the 600-1200 s "
                             "stress");
    claims.check(id + ".min_after_crossing",
                 cross.is_infinite()
                     ? kNaN
                     : c.window_latency.min_over(cross, control.horizon),
                 ge(2, "s"),
                 "once the latency rises to above two seconds ... it never "
                 "falls below this required threshold");
  }
}

void figure9(Claims& claims, const Result& control) {
  claims.section("Fig 9", "server load for control (queue length)");
  core::print_load_figure(std::cout, control, SimTime::seconds(60));
  const TimeSeries& sg1 = control.group("ServerGrp1")->queue_length;
  const double at_end = sg1.value_at(SimTime::seconds(1798));
  const char* draining = "the queue has barely begun draining by 1800 s";
  claims.check("fig9.max_queue", control.max_queue_length(),
               in(100, 1e4, "requests"),
               "the queue grows into the hundreds/thousands (~10^3)");
  claims.check("fig9.sg1_first_above_limit",
               seconds_or_nan(sg1.first_crossing(6.0)), le(1200, "s"),
               "the control run overloads SG1 past the limit of 6");
  claims.check("fig9.sg1_drain_by_end",
               ratio(at_end, sg1.value_at(SimTime::seconds(1200))),
               lt(1, "x of the 1200 s queue"), draining);
  claims.check("fig9.sg1_queue_at_end", at_end, gt(6, "requests"), draining);
}

void figure10(Claims& claims, const Result& control) {
  claims.section("Fig 10", "available bandwidth in control (Mbps)");
  core::print_bandwidth_figure(std::cout, control, SimTime::seconds(60));
  const TimeSeries& c3 = control.client("User3")->bandwidth_mbps;
  const TimeSeries& c1 = control.client("User1")->bandwidth_mbps;
  const SimTime quiet_from = SimTime::seconds(10);
  const SimTime quiet_to = SimTime::seconds(115);
  const SimTime comp_from = SimTime::seconds(130);
  const SimTime comp_to = SimTime::seconds(590);
  const double c3_floor = c3.min_over(comp_from, comp_to);
  claims.check("fig10.c3_floor_mbps", c3_floor, in(1e-5, 1e-3, "Mbps"),
               "C3/C4 bottom out around 0.0001 Mbps on the log axis");
  claims.check("fig10.c3_drop",
               ratio(c3.mean_over(quiet_from, quiet_to), c3_floor),
               ge(100, "x"), "the C3/C4 paths collapse by orders of magnitude");
  claims.check("fig10.c1_unthrottled",
               ratio(c1.mean_over(comp_from, comp_to),
                     c1.mean_over(quiet_from, quiet_to)),
               in(0.9, 1.1, "x of quiescent"), "C1's path is not throttled");
  claims.check("fig10.threshold_kbps",
               paper().framework.profile.min_bandwidth.as_kbps(),
               eq(10, "Kbps"),
               "the dashed line at 10 Kbps is the bandwidth-repair threshold");
}

// ---- Figures 11-13: the adaptive run --------------------------------------

void figure11(Claims& claims, const Result& control, const Result& adaptive,
              const RepairSummary& plan, const RepairSummary& seq) {
  claims.section("Fig 11", "average latency under repair (s)");
  core::print_latency_figure(std::cout, adaptive, SimTime::seconds(60));
  std::cout << "\n";
  core::print_repairs(std::cout, adaptive);
  std::cout << "\nmean repair: sequential plan shape " << seq.mean_repair_s
            << " s, optimized plan " << plan.mean_repair_s << " s ("
            << adaptive.repair_stats.plan_steps_executed
            << " steps executed, " << adaptive.repair_stats.plan_steps_merged
            << " merged by the optimizer)\n";
  claims.check("fig11.fraction_above_2s", adaptive.mean_fraction_above(),
               lt(0.5),
               "latency experienced by clients was less than two seconds "
               "for most of the time");
  claims.check("fig11.fraction_vs_control",
               ratio(adaptive.mean_fraction_above(),
                     control.mean_fraction_above()),
               le(0.5, "x of control"),
               "a dramatic improvement in the average latencies");
  claims.check("fig11.plan_committed", plan.committed, gt(0, "repairs"),
               "gate: the optimized plan commits repairs");
  claims.check("fig11.repair_speedup",
               ratio(seq.mean_repair_s, plan.mean_repair_s), gt(1, "x"),
               "gate: the optimized plan beats the paper's sequential shape");
}

void figure12(Claims& claims, const Result& control, const Result& adaptive) {
  claims.section("Fig 12", "available bandwidth under repair (Mbps)");
  core::print_bandwidth_figure(std::cout, adaptive, SimTime::seconds(60));
  // The window control collapsed in, after C3's move to SG2.
  const SimTime from = SimTime::seconds(300);
  const SimTime to = SimTime::seconds(590);
  const double repaired =
      adaptive.client("User3")->bandwidth_mbps.mean_over(from, to);
  const double collapsed =
      control.client("User3")->bandwidth_mbps.mean_over(from, to);
  claims.check("fig12.c3_mean_mbps", repaired, gt(0.01, "Mbps"),
               "after a repair C3's measured path is the healthy one");
  claims.check("fig12.c3_vs_control", ratio(repaired, collapsed),
               gt(1, "x of control"),
               "our framework has a positive effect on the available "
               "bandwidth");
}

void figure13(Claims& claims, const Result& adaptive) {
  claims.section("Fig 13", "server load under repair (queue length)");
  core::print_load_figure(std::cout, adaptive, SimTime::seconds(60));
  double outside = 0.0;
  double inside = 0.0;
  for (const auto& g : adaptive.groups) {
    const TimeSeries& q = g.queue_length;
    outside = std::max({outside,
                        q.max_over(SimTime::zero(), SimTime::seconds(595)),
                        q.max_over(SimTime::seconds(1300), adaptive.horizon)});
    inside = std::max(
        inside, q.max_over(SimTime::seconds(600), SimTime::seconds(1300)));
  }
  std::vector<double> activations;
  double first_release = kNaN;
  std::cout << "\nserver activations:\n";
  for (const auto& ev : adaptive.server_events) {
    std::cout << "  " << ev.time.as_seconds() << " s: " << ev.server << " "
              << (ev.active ? "activated" : "deactivated") << "\n";
    if (ev.active) {
      activations.push_back(ev.time.as_seconds());
    } else if (std::isnan(first_release)) {
      first_release = ev.time.as_seconds();
    }
  }
  activations.resize(std::max<std::size_t>(activations.size(), 2), kNaN);
  claims.check("fig13.max_queue_outside_stress", outside, le(6, "requests"),
               "the only time that the server load rises above the "
               "constrained value is when we stress the servers");
  claims.check("fig13.max_queue_in_stress", inside, gt(6, "requests"),
               "the server load exceeds the limit of 6 under stress");
  claims.check("fig13.first_spare_s", activations[0], in(600, 1200, "s"),
               "spares recruited during the stress, the first at ~700 s");
  claims.check("fig13.second_spare_s", activations[1], in(600, 1200, "s"),
               "spares recruited during the stress, the second at ~800 s");
  claims.check("fig13.servers_added", adaptive.repair_stats.servers_added,
               eq(2, "servers"), "the framework recruits the two spares");
  claims.check("fig13.clients_moved", adaptive.repair_stats.moves,
               ge(1, "moves"), "then falls back to moving clients");
  claims.check("fig13.first_release_s", first_release, ge(1200, "s"),
               "(reproduction) servers are released after recovery, once "
               "the stress ends");
}

// ---- Table 1 --------------------------------------------------------------

/// Each operator against the simulated runtime, with its modeled cost (the
/// RMI round trip or Remos collection delay the paper's implementation
/// paid).
void table1(Claims& claims) {
  claims.section("Table 1", "environment manager operators and queries (s)");
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, kPaperScenario);
  remos::RemosService remos(sim, *tb.net);
  rt::SimEnvironmentManager env(*tb.app, *tb.topo, remos);
  auto cost = [&] { return env.last_op_cost().as_seconds(); };
  const char* rmi = "runtime operators are RMI round trips";
  const char* minutes =
      "the first Remos query takes minutes unless pre-queried (Sec 5.3)";

  env.createReqQueue("ServerGrp3");
  claims.check("table1.createReqQueue_s", cost(), lt(60, "s"), rmi);
  const bool found = env.findServer("User1", Bandwidth::kbps(10)).has_value();
  claims.check("table1.findServer_found", found, eq(1),
               "findServer(cli_ip, bw_thresh) returns a spare server");
  claims.check("table1.findServer_cold_s", cost(), ge(60, "s"), minutes);
  env.findServer("User1", Bandwidth::kbps(10));
  claims.check("table1.findServer_warm_s", cost(), lt(60, "s"), minutes);
  env.moveClient("User3", "ServerGrp2");
  claims.check("table1.moveClient_s", cost(), lt(60, "s"), rmi);
  env.connectServer("Server4", "ServerGrp1");
  const double connect = cost();
  claims.check("table1.connectServer_s", connect, lt(60, "s"), rmi);
  env.activateServer("Server4");
  claims.check("table1.activateServer_s", cost(), lt(60, "s"), rmi);
  claims.check("table1.activateServer_extra_s", cost() - connect,
               gt(0, "s"), "activateServer adds a process start to its RMI");
  env.deactivateServer("Server4");
  claims.check("table1.deactivateServer_s", cost(), lt(60, "s"), rmi);
  const Bandwidth cold = env.remos_get_flow("m_s6", "m_c56");
  claims.check("table1.remos_get_flow_cold_s", cost(), ge(60, "s"), minutes);
  const Bandwidth warm = env.remos_get_flow("m_s6", "m_c56");
  claims.check("table1.remos_get_flow_cached_s", cost(), lt(60, "s"),
               minutes);
  claims.check("table1.remos_cached_drift_mbps",
               std::abs(warm.as_mbps() - cold.as_mbps()), eq(0, "Mbps"),
               "(reproduction) the cached prediction equals the first");
  claims.check("table1.ops_counted", env.stats().ops, eq(5, "ops"),
               "(reproduction) the five runtime operators");
  claims.check("table1.queries_counted", env.stats().queries,
               eq(4, "queries"),
               "(reproduction) two findServer, two remos_get_flow");
}

// ---- Section 5: sizing ----------------------------------------------------

/// Simulated mean queue wait for `servers` servers at the paper's normal
/// load (six clients at 1 req/s, 10 KB mean responses), flat workload.
double simulated_wait(int servers, std::uint64_t seed) {
  sim::Simulator sim;
  sim::ScenarioConfig cfg = sim::scenario_defaults(kPaperScenario);
  cfg.seed = seed;
  cfg.horizon = SimTime::seconds(600);
  cfg.quiescent_end = SimTime::seconds(1);
  cfg.stress_start = cfg.horizon;
  cfg.stress_end = cfg.horizon;
  cfg.comp_sg1_phase1_mbps = 0.0;
  cfg.comp_sg2_phase1_mbps = 0.0;
  sim::Testbed tb = sim::build_scenario(sim, kPaperScenario, cfg);
  auto active = tb.app->active_servers(tb.sg1);
  for (std::size_t i = static_cast<std::size_t>(servers); i < active.size();
       ++i) {
    tb.app->deactivate_server(active[i]);
  }
  if (servers == 4) {
    tb.app->connect_server(tb.spare_s4, tb.sg1);
    tb.app->activate_server(tb.spare_s4);
  }
  double wait_sum = 0.0;
  std::uint64_t count = 0;
  tb.app->on_response = [&](const sim::Request& r) {
    wait_sum += r.queue_wait().as_seconds();
    ++count;
  };
  tb.start();
  sim.run_until(cfg.horizon);
  return count ? wait_sum / static_cast<double>(count) : kNaN;
}

void sizing(Claims& claims) {
  claims.section("Sec 5 sizing", "design-time sizing analysis (M/M/c)");
  // 6 req/s aggregate; 0.05 s base + 0.02 s/KB service at 10 KB responses.
  const double lambda = 6.0;
  const double mu = 1.0 / (0.05 + 0.02 * 10);
  task::SizingInput input;
  input.arrival_rate_hz = lambda;
  input.service_time_s = 0.4;  // the 20 KB design point
  input.target_wait_s = 0.5;
  std::cout << std::left << std::setw(9) << "servers" << std::setw(10) << "rho"
            << std::setw(12) << "ErlangC" << std::setw(16) << "Wq predicted"
            << "Wq simulated (3 seeds)\n";
  for (int c = 1; c <= 5; ++c) {
    const double a = lambda / mu;
    const double pc = task::erlang_c(c, a);
    const double wq = pc / (c * mu - lambda);
    std::cout << std::left << std::setw(9) << c << std::setw(10) << a / c
              << std::setw(12) << pc << std::setw(16);
    if (a / c >= 1.0) {
      std::cout << "unstable\n";
      continue;
    }
    std::cout << wq;
    if (c != 3 && c != 4) {
      std::cout << "\n";
      continue;
    }
    double simulated = 0.0;
    for (std::uint64_t seed = 100; seed < 103; ++seed) {
      simulated += simulated_wait(c, seed) / 3.0;
    }
    std::cout << simulated << "\n";
    claims.check("sizing.simulated_vs_mmc_" + std::to_string(c),
                 ratio(simulated, wq), in(0.5, 2, "x"),
                 "(reproduction) the queuing analysis holds on the simulated "
                 "testbed");
    if (c == 3) {
      claims.check("sizing.simulated_wait_3_s", simulated,
                   lt(input.target_wait_s, "s"),
                   "3 servers would be sufficient");
    }
  }
  claims.check("sizing.servers", task::size_server_group(input).servers,
               eq(3, "servers"),
               "3 replicated servers in one server group would be sufficient "
               "to serve our six clients");
  claims.check("sizing.bandwidth_floor_kbps",
               task::min_bandwidth_for(DataSize::kilobytes(20),
                                       SimTime::seconds(16.384))
                   .as_kbps(),
               eq(10, "Kbps"),
               "the bandwidth between the clients and servers should not be "
               "less than 10Kbps");
}

// ---- Section 5.3 ----------------------------------------------------------

void repair_time(Claims& claims, const RepairSummary& seq,
                 const RepairSummary& caching,
                 const RepairSummary& no_prequery) {
  claims.section("Sec 5.3 repair time", "breakdown, sequential plan shape");
  std::cout << std::left << std::setw(26) << "configuration" << std::setw(10)
            << "repairs" << std::setw(12) << "mean (s)" << std::setw(11)
            << "max (s)" << std::setw(14) << "gauge share" << std::setw(14)
            << "query share" << "frac >2s\n";
  const std::pair<const char*, const RepairSummary*> rows[] = {
      {"baseline (paper)", &seq},
      {"gauge caching", &caching},
      {"no remos prequery", &no_prequery}};
  for (const auto& [name, s] : rows) {
    std::cout << std::left << std::setw(26) << name << std::setw(10)
              << s->committed << std::setw(12) << s->mean_repair_s
              << std::setw(11) << s->max_repair_s << std::setw(14)
              << s->gauge_share << std::setw(14) << s->query_share
              << s->fraction_above << "\n";
  }
  claims.check("s53.mean_repair_s", seq.mean_repair_s, in(25, 35, "s"),
               "the time that it takes to effect a repair averages 30 seconds");
  claims.check("s53.gauge_share", seq.gauge_share, gt(0.5),
               "most of this time is spent in communicating to create and "
               "delete gauges");
  claims.check("s53.caching_speedup",
               ratio(seq.mean_repair_s, caching.mean_repair_s), ge(2, "x"),
               "caching gauges ... should see our repair speed improve "
               "dramatically");
  claims.check("s53.prequery_max_query_s", seq.max_query_s, lt(60, "s"),
               "pre-querying Remos avoids the first query's minutes");
  claims.check("s53.no_prequery_max_query_s", no_prequery.max_query_s,
               ge(60, "s"),
               "the first Remos query takes minutes unless pre-queried");
}

/// Seconds from competition onset to the first committed repair.
double detection_lag(const Result& r) {
  for (const auto& rec : r.repairs) {
    if (rec.committed) {
      return (rec.started - lag_scenario().quiescent_end).as_seconds();
    }
  }
  return kNaN;
}

void monitoring_lag(Claims& claims, const Result& shared_run,
                    const Result& qos_run) {
  claims.section("Sec 5.3 monitoring lag", "monitoring on the shared network");
  // Delivery delay of a 512-byte gauge report to the manager machine, mid
  // bandwidth phase, from C3 (congested trunk) and C1 (clean path).
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, kLagScenario, lag_scenario());
  tb.start();
  sim.run_until(SimTime::seconds(200));
  events::Notification report("gauge.report");
  report.wire_size = DataSize::bytes(512);
  auto shared = events::network_delay(*tb.net, SimTime::millis(50), false);
  auto qos = events::network_delay(*tb.net, SimTime::millis(50), true);
  auto slowdown = [&](std::size_t client, const char* name) {
    report.source_node = tb.app->client_node(tb.clients[client]);
    const double s = shared(report, tb.manager_node).as_seconds();
    const double q = qos(report, tb.manager_node).as_seconds();
    std::cout << name << " machine -> manager: " << s << " s shared, " << q
              << " s QoS\n";
    return ratio(s, q);
  };
  const double congested = slowdown(2, "C3");
  const double clean = slowdown(0, "C1");
  const double shared_lag = detection_lag(shared_run);
  const double qos_lag = detection_lag(qos_run);
  std::cout << "detection lag (competition onset -> first committed repair): "
            << shared_lag << " s shared, " << qos_lag << " s QoS\n";
  claims.check("lag.congested_report_slowdown", congested,
               gt(1, "x of QoS"),
               "when the available bandwidth is low, communication over our "
               "monitoring system is correspondingly slow");
  claims.check("lag.clean_report_slowdown", clean, lt(2, "x of QoS"),
               "monitoring is slow only where the bandwidth is low");
  claims.check("lag.detection_shared_s", shared_lag, gt(0, "s"),
               "a lag between a bandwidth change and its repair");
  claims.check("lag.qos_speedup", ratio(shared_lag, qos_lag), gt(1, "x"),
               "QoS techniques to prioritize monitoring traffic");
}

void ablations(Claims& claims,
               const std::function<const Result&(const std::string&)>& run) {
  claims.section("Sec 5.3/7 ablations", "repair-policy ablations (1800 s)");
  std::cout << std::left << std::setw(30) << "configuration" << std::setw(11)
            << "frac>2s" << std::setw(11) << "committed" << std::setw(10)
            << "aborted" << std::setw(8) << "moves" << std::setw(9)
            << "+servers" << "move-backs\n";
  for (const char* label :
       {"adaptive", "worst-client-first", "damping off",
        "figure-5 strict script", "latency bound 4 s",
        "heavy stress, damped", "heavy stress, damping off"}) {
    const Result& r = run(label);
    std::cout << std::left << std::setw(30) << label << std::setw(11)
              << r.mean_fraction_above() << std::setw(11)
              << r.repair_stats.committed << std::setw(10)
              << r.repair_stats.aborted << std::setw(8) << r.repair_stats.moves
              << std::setw(9) << r.repair_stats.servers_added << move_backs(r)
              << "\n";
  }
  const Result& base = run("adaptive");
  const Result& heavy = run("heavy stress, damped");
  const char* stale =
      "repairs take time to show effect; undamped, stale gauge readings "
      "trigger repeated repairs";
  claims.check("ablation.worst_first_fraction",
               ratio(run("worst-client-first").mean_fraction_above(),
                     base.mean_fraction_above()),
               le(1, "x of first-reported"),
               "fixing the worst client first is the smarter scheme");
  claims.check("ablation.damping_off_attempts",
               ratio(repair_attempts(run("damping off")),
                     repair_attempts(base)),
               gt(1, "x of damped"), stale);
  claims.check("ablation.strict_script_aborts",
               ratio(run("figure-5 strict script").repair_stats.aborted,
                     base.repair_stats.aborted),
               gt(1, "x of extended"),
               "Figure 5 has no load-shedding move: once both spares are "
               "active, load repairs abort");
  claims.check("ablation.latency_bound_4s_fraction",
               ratio(run("latency bound 4 s").mean_fraction_above(),
                     base.mean_fraction_above()),
               in(0.5, 2, "x of the 2 s bound"),
               "(reproduction) bandwidth and load repairs fire first, so "
               "doubling the latency bound changes little");
  claims.check("ablation.heavy_move_backs", move_backs(heavy),
               gt(0, "move-backs"),
               "clients moving back and forth between server groups");
  claims.check("ablation.heavy_damping_off_attempts",
               ratio(repair_attempts(run("heavy stress, damping off")),
                     repair_attempts(heavy)),
               gt(1, "x of damped"), stale);
}

// ---- output ---------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << v;
  return out.str();
}

void write_json(const std::string& path, const Claims& claims,
                const Result& adaptive, const RepairSummary& plan,
                const RepairSummary& seq) {
  std::ofstream json(path);
  json << "{\n  \"checks\": [\n";
  const auto& checks = claims.all();
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const Check& c = checks[i];
    json << "    {\"id\": " << quoted(c.id)
         << ", \"figure\": " << quoted(c.figure)
         << ", \"measured\": " << number(c.measured)
         << ", \"band\": " << quoted(c.band.text())
         << ", \"paper_text\": " << quoted(c.paper_text)
         << ", \"pass\": " << (c.pass ? "true" : "false") << "}"
         << (i + 1 < checks.size() ? ",\n" : "\n");
  }
  // The sequential plan shape keeps its historical "legacy" key prefix.
  const std::pair<const char*, double> fig11[] = {
      {"legacy_mean_repair_s", seq.mean_repair_s},
      {"legacy_mean_gauge_s", seq.mean_gauge_s},
      {"legacy_committed", seq.committed},
      {"legacy_fraction_above_2s", seq.fraction_above},
      {"plan_mean_repair_s", plan.mean_repair_s},
      {"plan_mean_gauge_s", plan.mean_gauge_s},
      {"plan_committed", plan.committed},
      {"plan_fraction_above_2s", plan.fraction_above},
      {"plan_steps_executed",
       static_cast<double>(adaptive.repair_stats.plan_steps_executed)},
      {"plan_steps_merged",
       static_cast<double>(adaptive.repair_stats.plan_steps_merged)},
      {"repair_speedup", ratio(seq.mean_repair_s, plan.mean_repair_s)},
  };
  json << "  ],\n  \"checks_failed\": " << claims.failed()
       << ",\n  \"fig11\": {\n";
  for (const auto& [key, value] : fig11) {
    json << "    " << quoted(key) << ": " << number(value)
         << (key == fig11[10].first ? "\n" : ",\n");
  }
  json << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      bench::output_path(argc, argv, "BENCH_paper.json");

  const std::vector<core::SuiteOutcome> outcomes = paper_suite().run();
  std::map<std::string, const Result*> results;
  for (const core::SuiteOutcome& o : outcomes) {
    if (!o.ok()) {
      std::cerr << "FAIL: experiment '" << o.label << "' threw: " << o.error
                << "\n";
      return 1;
    }
    results[o.label] = &o.result;
  }
  auto run = [&](const std::string& label) -> const Result& {
    return *results.at(label);
  };
  const Result& control = run("control");
  const Result& adaptive = run("adaptive");
  const RepairSummary plan = summarize(adaptive);
  const RepairSummary seq = summarize(run("sequential"));

  Claims claims;
  figure7(claims);
  figure8(claims, control);
  figure9(claims, control);
  figure10(claims, control);
  figure11(claims, control, adaptive, plan, seq);
  figure12(claims, control, adaptive);
  figure13(claims, adaptive);
  table1(claims);
  sizing(claims);
  repair_time(claims, seq, summarize(run("sequential, gauge caching")),
              summarize(run("sequential, no remos prequery")));
  monitoring_lag(claims, run("lag, shared monitoring"),
                 run("lag, QoS monitoring"));
  ablations(claims, run);

  write_json(out_path, claims, adaptive, plan, seq);
  const std::size_t total = claims.all().size();
  std::cout << "\n" << total - claims.failed() << "/" << total
            << " paper checks pass; wrote " << out_path << "\n";
  if (claims.failed() > 0) {
    std::cerr << "FAIL: " << claims.failed() << " paper check(s) failed\n";
    return 1;
  }
  return 0;
}
