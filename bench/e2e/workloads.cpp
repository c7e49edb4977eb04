#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "acme/adl.hpp"
#include "core/fleet.hpp"
#include "core/framework.hpp"
#include "core/recovery.hpp"
#include "durability/codec.hpp"
#include "durability/model_codec.hpp"
#include "fault/crash_plan.hpp"
#include "fault/fault_plane.hpp"
#include "model/types.hpp"
#include "repair/style_ops.hpp"
#include "runtime/translator.hpp"
#include "sim/scenario_registry.hpp"
#include "util/annotations.hpp"

namespace e2e {
namespace {

using namespace arcadia;

/// Per-layer values under construction. Keys are BENCHMARK.json per-layer
/// names, plus the internal `host.*` (host seconds, turned into shares of
/// the traced wall) and `phase.*` (sim-seconds of repair phases, turned
/// into shares of repair time) keys finish_layers() consumes.
using Counters = std::map<std::string, double>;

/// Every per-layer metric the rep reports. run.py adds the two that need
/// more than one process (sim.parallel_speedup, bench.trace_overhead).
const std::vector<std::string> kLayerMetrics = {
    "sim.events", "sim.windows", "sim.shard_imbalance", "sim.window_share",
    "sim.slice_ms_p50", "sim.slice_ms_tail",
    "sim.net.reallocations", "sim.net.waterfill_rounds",
    "sim.net.transfers_completed", "sim.app.requests_issued",
    "sim.app.requests_completed",
    "events.published", "events.delivered", "events.dropped_no_match",
    "events.probe_delivery_share", "events.gauge_delivery_share",
    "monitor.reports", "monitor.reports_suppressed", "monitor.redeploys",
    "core.fleet.reports_enqueued", "core.fleet.reports_coalesced",
    "core.fleet.reports_applied", "core.fleet.sweeps",
    "core.fleet.sweeps_skipped", "core.fleet.sweep_share",
    "core.arch.checks", "core.arch.check_share",
    "core.build_s", "core.start_s", "core.teardown_s",
    "repair.checker.evaluations", "repair.checker.cache_hits",
    "repair.checker.full_sweeps", "repair.committed", "repair.aborted",
    "repair.plan_steps_executed", "repair.plan_steps_merged",
    "repair.ops_retried", "repair.ops_timed_out",
    "repair.decision_share", "repair.query_share", "repair.op_share",
    "repair.gauge_share",
    "runtime.translator.runtime_ops", "runtime.translator.apply_share",
    "remos.queries", "remos.cache_hits",
    "durability.journal_bytes", "durability.journal_records",
    "durability.plane_share", "durability.restore_share",
    "durability.catchup_share",
    "fault.reports_dropped", "fault.reports_duplicated",
    "fault.reports_delayed", "fault.channel_disconnects",
    "fault.reports_suppressed", "fault.ops_transient", "fault.ops_permanent",
    "fault.ops_stalled", "fault.tenant_crashes",
    "fault.channels_disconnected",
    "bench.traced_wall_s", "bench.span_coverage",
};

// ---------------------------------------------------------------- helpers

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Mean of the middle 80% (the lowest and highest tenth dropped): robust to
/// the few units whose clients starve, while keeping enough of the rest to
/// be steadier across seeds than the median or the interquartile mean.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// The highest quantile with at least ten samples beyond it (clamped to
/// [p50, p99]), so the tail figure is never one lucky sample.
double tail_quantile(std::size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

/// The i-th of a solo workload's `count` scenario seeds: disjoint blocks,
/// so runs on neighbouring bench seeds share no scenario run.
std::uint64_t unit_seed(std::uint64_t seed, int count, int i) {
  return seed * static_cast<std::uint64_t>(count) +
         static_cast<std::uint64_t>(i);
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

void add_fault_counters(Counters& c, const fault::FaultPlaneStats& f) {
  c["fault.reports_dropped"] += f.reports_dropped;
  c["fault.reports_duplicated"] += f.reports_duplicated;
  c["fault.reports_delayed"] += f.reports_delayed;
  c["fault.channel_disconnects"] += f.channel_disconnects;
  c["fault.reports_suppressed"] += f.reports_suppressed;
  c["fault.ops_transient"] += f.ops_transient;
  c["fault.ops_permanent"] += f.ops_permanent;
  c["fault.ops_stalled"] += f.ops_stalled;
  c["fault.tenant_crashes"] += f.tenant_crashes;
  c["fault.channels_disconnected"] += f.channels_disconnected;
}

void add_bus_counters(Counters& c, const events::BusStats& b) {
  c["events.published"] += b.published;
  c["events.delivered"] += b.delivered;
  c["events.dropped_no_match"] += b.dropped_no_match;
}

void add_net_counters(Counters& c, const sim::Testbed& tb) {
  const sim::FlowNetworkStats& n = tb.net->stats();
  c["sim.net.reallocations"] += n.reallocations;
  c["sim.net.waterfill_rounds"] += n.waterfill_rounds;
  c["sim.net.transfers_completed"] += n.transfers_completed;
  c["sim.app.requests_issued"] += tb.app->total_issued();
  c["sim.app.requests_completed"] += tb.app->total_completed();
}

void add_repair_stats(Counters& c, const repair::RepairStats& r) {
  c["repair.committed"] += r.committed;
  c["repair.aborted"] += r.aborted;
  c["repair.plan_steps_executed"] += r.plan_steps_executed;
  c["repair.plan_steps_merged"] += r.plan_steps_merged;
  c["repair.ops_retried"] += r.ops_retried;
  c["repair.ops_timed_out"] += r.ops_timed_out;
}

void add_manager_stats(Counters& c, const core::ArchManagerStats& m) {
  c["core.arch.checks"] += m.checks;
  c["host.arch_check_s"] += m.check_wall_s;
}

void add_gauge_stats(Counters& c, const monitor::GaugeManagerStats& g) {
  c["monitor.reports"] += g.reports;
  c["monitor.reports_suppressed"] += g.reports_suppressed;
  c["monitor.redeploys"] += g.redeploys;
}

/// Every counter a live framework exposes through its public accessors.
void add_framework_counters(Counters& c, core::Framework& fw,
                            const sim::Testbed& tb) {
  add_net_counters(c, tb);
  add_bus_counters(c, fw.probe_bus().stats());
  add_bus_counters(c, fw.gauge_bus().stats());
  add_gauge_stats(c, fw.gauges().stats());
  add_manager_stats(c, fw.manager().stats());
  const repair::ConstraintChecker::CheckStats& ck =
      fw.manager().checker().check_stats();
  c["repair.checker.evaluations"] += ck.evaluations;
  c["repair.checker.cache_hits"] += ck.cache_hits;
  c["repair.checker.full_sweeps"] += ck.full_sweeps;
  add_repair_stats(c, fw.engine().stats());
  if (auto* t = dynamic_cast<rt::SimTranslator*>(&fw.translator())) {
    c["runtime.translator.runtime_ops"] += t->stats().runtime_ops;
  }
  c["remos.queries"] += fw.remos().stats().queries;
  c["remos.cache_hits"] += fw.remos().stats().cache_hits;
  if (fault::FaultPlane* fp = fw.fault_plane()) {
    add_fault_counters(c, fp->stats());
  }
}

/// Accumulates a rep's deterministic outputs, unit by unit (tenant or seed).
class QualityTally {
 public:
  Fnv hash;
  std::uint64_t events = 0;

  /// Committed repairs into the mean and the fingerprint; with `phases`,
  /// also the sim-time phase sums behind the repair.*_share metrics.
  void add_repairs(const std::vector<repair::RepairRecord>& records,
                   Counters* phases) {
    for (const repair::RepairRecord& r : records) {
      hash.str(r.strategy);
      hash.str(r.element);
      hash.pod(r.started.as_seconds());
      hash.pod(r.completed.as_seconds());
      hash.pod(r.committed);
      if (!r.committed || !r.finished) continue;
      ++repairs_;
      repair_sum_s_ += r.duration().as_seconds();
      if (phases) {
        (*phases)["phase.total"] += r.duration().as_seconds();
        (*phases)["phase.decision"] += r.decision_cost.as_seconds();
        (*phases)["phase.query"] += r.query_cost.as_seconds();
        (*phases)["phase.op"] += r.op_cost.as_seconds();
        (*phases)["phase.gauge"] += r.gauge_cost.as_seconds();
      }
    }
  }

  /// One unit's client figures, from the responses the app counted itself
  /// (ClientStats) and `slow` of them above the latency bound.
  void add_unit(const sim::GridApp& app, std::uint64_t slow) {
    std::uint64_t responses = 0;
    double latency_sum_s = 0.0;
    for (sim::ClientIdx c = 0;
         c < static_cast<sim::ClientIdx>(app.client_count()); ++c) {
      responses += app.client_stats(c).completed;
      latency_sum_s += app.client_stats(c).latency_sum_s;
    }
    hash.pod(responses);
    if (responses == 0) return;
    const double n = static_cast<double>(responses);
    unit_latency_s_.push_back(latency_sum_s / n);
    unit_slow_share_.push_back(static_cast<double>(slow) / n);
  }

  Quality finish() {
    hash.pod(events);
    Quality q;
    q.fingerprint = hash.value();
    q.events = events;
    q.repairs_committed = repairs_;
    q.repair_latency_mean_s =
        repairs_ ? repair_sum_s_ / static_cast<double>(repairs_) : 0.0;
    q.client_latency_s = trimmed_mean(unit_latency_s_);
    q.client_above_share = trimmed_mean(unit_slow_share_);
    return q;
  }

 private:
  std::uint64_t repairs_ = 0;
  double repair_sum_s_ = 0.0;
  std::vector<double> unit_latency_s_;
  std::vector<double> unit_slow_share_;
};

/// One sim-time span tree per committed adaptation: the repair, then its
/// decision, runtime-query, runtime-op and gauge phases laid end to end
/// (clamped to the repair's completion, since the plan executor may
/// overlap the last two).
void trace_repairs(TraceLog& log, int lane,
                   const std::vector<repair::RepairRecord>& records) {
  for (const repair::RepairRecord& r : records) {
    if (!r.committed || !r.finished) continue;
    const std::uint64_t trace_id = log.new_trace_id();
    const double start = r.started.as_seconds();
    const double done = r.completed.as_seconds();
    const std::uint64_t root =
        log.sim_span("repair " + r.strategy, "adaptation", lane, start, done,
                     trace_id, 0,
                     {{"element", r.element}, {"constraint", r.constraint_id}});
    const std::pair<const char*, SimTime> phases[] = {
        {"decision", r.decision_cost},
        {"queries", r.query_cost},
        {"ops", r.op_cost},
        {"gauges", r.gauge_cost}};
    double t = start;
    for (const auto& [name, cost] : phases) {
      const double end = std::min(t + cost.as_seconds(), done);
      log.sim_span(name, "adaptation", lane, t, end, trace_id, root);
      t = end;
    }
  }
}

/// Chain a counter of slow responses onto the app's response hook. The
/// probes installed at Framework::start chain onto whatever is there, so
/// installing before start (or wrapping after) observes every response.
struct alignas(64) SlowTally {
  std::uint64_t count = 0;
};
void count_slow_responses(sim::GridApp& app, SimTime threshold,
                          SlowTally& tally) {
  app.on_response = [prev = std::move(app.on_response), threshold,
                     &tally](const sim::Request& req) {
    if (req.latency() > threshold) ++tally.count;
    if (prev) prev(req);
  };
}

/// Turn the raw counters of a traced rep into the reported per-layer set:
/// host seconds become shares of the traced wall, repair phases become
/// shares of committed repair time, and every metric is present.
std::map<std::string, double> finish_layers(Counters c, double traced_wall,
                                            double covered, double total) {
  auto share = [&](const char* host_key, const char* metric) {
    c[metric] = traced_wall > 0.0 ? c[host_key] / traced_wall : 0.0;
    c.erase(host_key);
  };
  share("host.window_s", "sim.window_share");
  share("host.probe_handler_s", "events.probe_delivery_share");
  share("host.gauge_handler_s", "events.gauge_delivery_share");
  share("host.sweep_s", "core.fleet.sweep_share");
  share("host.arch_check_s", "core.arch.check_share");
  share("host.apply_s", "runtime.translator.apply_share");
  share("host.plane_s", "durability.plane_share");
  share("host.restore_s", "durability.restore_share");
  share("host.catchup_s", "durability.catchup_share");
  const double repair_total = c["phase.total"];
  for (const char* phase : {"decision", "query", "op", "gauge"}) {
    const std::string key = std::string("phase.") + phase;
    c[std::string("repair.") + phase + "_share"] =
        repair_total > 0.0 ? c[key] / repair_total : 0.0;
    c.erase(key);
  }
  c.erase("phase.total");
  c["bench.traced_wall_s"] = traced_wall;
  c["bench.span_coverage"] = total > 0.0 ? covered / total : 0.0;

  std::map<std::string, double> out;
  for (const std::string& name : kLayerMetrics) {
    auto it = c.find(name);
    out[name] = it == c.end() ? 0.0 : it->second;
    if (it != c.end()) c.erase(it);
  }
  if (!c.empty()) {
    throw std::logic_error("per-layer key not in the metric list: " +
                           c.begin()->first);
  }
  return out;
}

// ------------------------------------------------------------ fleet runs

struct FleetSpec {
  std::string scenario;
  int tenants = 0;
  double horizon_s = 0.0;
  double phase_shift_s = 2.0;
  bool journal = false;
  /// Per-client request rates outside and inside the stress window.
  double normal_rate_hz = 1.0;
  double stress_rate_hz = 2.0;
};

/// bench_fleet_scaling's knobs: the always-on Figure 7 schedule with stress
/// over 30-80% of the horizon, 250 ms gauge reports, a 1 s sweep and
/// coalesce window, coordinated mode, and a one-thread sweep so the
/// simulation kernel owns the process's threads.
core::FleetOptions fleet_options(const FleetSpec& spec, const RepOptions& o) {
  core::FleetOptions opt;
  opt.scenario = spec.scenario;
  opt.tenants = spec.tenants;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults(spec.scenario);
  opt.config.seed = o.seed;
  opt.config.quiescent_end = SimTime::seconds(10);
  opt.config.stress_start = SimTime::seconds(spec.horizon_s * 0.3);
  opt.config.stress_end = SimTime::seconds(spec.horizon_s * 0.8);
  opt.config.normal_rate_hz = spec.normal_rate_hz;
  opt.config.stress_rate_hz = spec.stress_rate_hz;
  opt.config.fleet.phase_shift = SimTime::seconds(spec.phase_shift_s);
  opt.config.fleet.active_duration = SimTime::zero();
  opt.framework.monitoring_qos = true;
  opt.framework.gauge_costs.report_period = SimTime::millis(250);
  opt.framework.check_period = SimTime::seconds(1);
  opt.manager.coalesce_window = SimTime::seconds(1);
  opt.manager.sweep_threads = 1;
  opt.coordinated = true;
  opt.sim_threads = o.sim_threads;
  if (spec.journal) {
    opt.durability.dir = o.scratch + "/fleet-journal";
    reset_dir(opt.durability.dir);
  }
  return opt;
}

std::uint64_t fleet_events(sim::Simulator& control, core::Fleet& fleet) {
  return control.executed() + fleet.coordinator()->stats().shard_events;
}

Counters fleet_counters(sim::Simulator& control, core::Fleet& fleet) {
  Counters c;
  for (std::size_t t = 0; t < fleet.tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet.tenant(t);
    util::SerialLane in_lane(tenant.lane());
    add_framework_counters(c, *tenant.framework, tenant.testbed);
  }
  core::FleetManager& manager = *fleet.manager();
  for (std::size_t s = 0; s < manager.shard_count(); ++s) {
    const core::FleetShardStats& st = manager.shard_stats(s);
    c["core.fleet.reports_enqueued"] += st.reports_enqueued;
    c["core.fleet.reports_coalesced"] += st.reports_coalesced;
    c["core.fleet.reports_applied"] += st.reports_applied;
    c["core.fleet.sweeps"] += st.sweeps;
    c["core.fleet.sweeps_skipped"] += st.sweeps_skipped;
  }
  c["host.sweep_s"] = manager.stats().sweep_wall_s;
  if (durability::DurabilityPlane* plane = fleet.durability_plane()) {
    c["durability.journal_bytes"] = plane->journal_bytes();
    c["durability.journal_records"] = plane->records_written();
    c["host.plane_s"] = plane->wall_s();
  }
  c["sim.windows"] = fleet.coordinator()->stats().rounds;
  c["sim.events"] = fleet_events(control, fleet);
  return c;
}

/// Counters sampled into the trace at every slice boundary, as per-slice
/// deltas.
const char* const kSliceCounters[] = {
    "sim.events", "sim.net.reallocations", "events.delivered",
    "core.fleet.reports_applied", "core.fleet.sweeps",
    "repair.checker.evaluations", "durability.journal_bytes"};

RepResult run_fleet(const RepOptions& o, const FleetSpec& spec) {
  TraceLog* log = o.trace;
  RepResult res;
  res.ops = 1;
  const core::FleetOptions opt = fleet_options(spec, o);
  const Clock::time_point rep_start = Clock::now();
  try {
    // Declared before the fleet: the tenants' response hooks point here.
    std::vector<SlowTally> slow(static_cast<std::size_t>(spec.tenants));
    sim::Simulator control;
    Span build(log, "fleet.build", "core");
    auto fleet = std::make_unique<core::Fleet>(control, opt);
    const double build_s = build.end();

    for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
      core::FleetTenant& tenant = fleet->tenant(t);
      util::SerialLane in_lane(tenant.lane());
      count_slow_responses(*tenant.testbed.app,
                           opt.config.thresholds.max_latency, slow[t]);
    }

    Span start(log, "fleet.start", "core");
    fleet->start();
    const double start_s = start.end();
    res.setup_s = build_s + start_s;

    double run_s = 0.0;
    std::vector<double> slice_ms;
    double window_s = 0.0;
    if (!log) {
      const Clock::time_point t0 = Clock::now();
      fleet->run_until(SimTime::seconds(spec.horizon_s));
      run_s = seconds_between(t0, Clock::now());
    } else {
      // 1 s slices line up with the sweep period, so every slice boundary
      // is a barrier the fleet would have crossed anyway.
      Counters last = fleet_counters(control, *fleet);
      for (double t = 1.0; t <= spec.horizon_s + 1e-9; t += 1.0) {
        Span slice(log, "fleet.slice", "sim");
        fleet->run_until(SimTime::seconds(std::min(t, spec.horizon_s)));
        const double s = slice.end();
        const Clock::time_point slice_end = Clock::now();
        Counters now = fleet_counters(control, *fleet);
        for (const char* name : kSliceCounters) {
          log->counter(name, slice_end, now[name] - last[name]);
        }
        run_s += s;
        slice_ms.push_back(s * 1e3);
        window_s += s - (now["host.sweep_s"] - last["host.sweep_s"]) -
                    (now["host.plane_s"] - last["host.plane_s"]);
        last = std::move(now);
      }
    }

    // Collect (untimed): quality, fingerprint, and the traced counters.
    QualityTally tally;
    tally.events = fleet_events(control, *fleet);
    Counters phases;
    for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
      core::FleetTenant& tenant = fleet->tenant(t);
      util::SerialLane in_lane(tenant.lane());
      const auto& records = tenant.framework->engine().records();
      tally.add_repairs(records, log ? &phases : nullptr);
      tally.hash.str(acme::print_system(tenant.framework->system()));
      tally.add_unit(*tenant.testbed.app, slow[t].count);
      if (log) trace_repairs(*log, static_cast<int>(t), records);
    }
    res.quality = tally.finish();

    Counters layers;
    if (log) {
      layers = fleet_counters(control, *fleet);
      layers.insert(phases.begin(), phases.end());
      sim::SimCoordinator& coord = *fleet->coordinator();
      double max_events = 0.0;
      double sum_events = 0.0;
      for (std::size_t s = 0; s < coord.shard_count(); ++s) {
        const double e = static_cast<double>(coord.shard(s).events());
        max_events = std::max(max_events, e);
        sum_events += e;
      }
      layers["sim.shard_imbalance"] =
          sum_events > 0.0
              ? max_events / (sum_events / static_cast<double>(coord.shard_count()))
              : 0.0;
      layers["host.window_s"] = window_s;
      layers["sim.slice_ms_p50"] = quantile(slice_ms, 0.5);
      layers["sim.slice_ms_tail"] =
          quantile(slice_ms, tail_quantile(slice_ms.size()));
      layers["core.build_s"] = build_s;
      layers["core.start_s"] = start_s;
    }

    Span teardown(log, "fleet.teardown", "core");
    fleet.reset();
    const double teardown_s = teardown.end();
    res.wall_s = run_s + teardown_s;

    if (log) {
      layers["core.teardown_s"] = teardown_s;
      const double total = seconds_between(rep_start, Clock::now());
      res.layers = finish_layers(std::move(layers), res.wall_s,
                                 res.setup_s + res.wall_s, total);
    }
  } catch (const std::exception& e) {
    ++res.ops_failed;
    res.errors.push_back(e.what());
  }
  return res;
}

// ------------------------------------------------------ paper-fig11 runs

/// Host seconds the traced paper-fig11 part decorators measure, and the
/// span their own spans hang under.
struct PaperProbe {
  TraceLog* log = nullptr;
  std::uint64_t run_span = 0;
  Counters host;
};

/// The default SimEventBus with every subscriber's handler timed.
class TimingBus final : public events::SimEventBus {
 public:
  TimingBus(sim::Simulator& sim, events::DelayModel delay, PaperProbe& probe,
            const char* handler_key)
      : events::SimEventBus(sim, std::move(delay)),
        handler_s_(probe.host[handler_key]) {}
  TimingBus(const TimingBus&) = delete;
  TimingBus& operator=(const TimingBus&) = delete;

  using events::EventBus::subscribe;
  events::SubscriptionId subscribe(events::Filter filter,
                                   events::Handler handler,
                                   sim::NodeId subscriber_node) override {
    auto inner = std::make_shared<events::Handler>(std::move(handler));
    double* total = &handler_s_;
    return events::SimEventBus::subscribe(
        std::move(filter),
        [inner, total](const events::Notification& n) {
          const Clock::time_point t0 = Clock::now();
          (*inner)(n);
          *total += seconds_between(t0, Clock::now());
        },
        subscriber_node);
  }

 private:
  double& handler_s_;
};

/// The default translator, with every apply() timed and traced. It stays a
/// SimTranslator, so add_framework_counters() still finds its stats.
class TimedTranslator final : public rt::SimTranslator {
 public:
  TimedTranslator(rt::SimEnvironmentManager& env,
                  repair::StyleConventions conventions, PaperProbe& probe)
      : rt::SimTranslator(env, std::move(conventions)), probe_(probe) {}

  SimTime apply(const std::vector<model::OpRecord>& records) override {
    Span span(probe_.log, "translator.apply", "runtime", probe_.run_span);
    const SimTime cost = rt::SimTranslator::apply(records);
    probe_.host["host.apply_s"] +=
        span.end({{"records", static_cast<double>(records.size())}});
    return cost;
  }

 private:
  PaperProbe& probe_;
};

/// The same wiring as the Framework defaults, through the decorators.
core::FrameworkParts traced_parts(PaperProbe& probe) {
  core::FrameworkParts parts;
  parts.probe_bus = [&probe](sim::Simulator& sim, sim::Testbed&,
                             const core::FrameworkConfig&)
      -> std::unique_ptr<events::SimEventBus> {
    return std::make_unique<TimingBus>(
        sim, events::fixed_delay(SimTime::millis(5)), probe,
        "host.probe_handler_s");
  };
  parts.gauge_bus = [&probe](sim::Simulator& sim, sim::Testbed& tb,
                             const core::FrameworkConfig& cfg)
      -> std::unique_ptr<events::SimEventBus> {
    return std::make_unique<TimingBus>(
        sim,
        events::network_delay(*tb.net, cfg.bus_base_delay,
                              cfg.monitoring_qos),
        probe, "host.gauge_handler_s");
  };
  parts.translator = [&probe](rt::SimEnvironmentManager& env,
                              const core::FrameworkConfig& cfg)
      -> std::unique_ptr<repair::Translator> {
    return std::make_unique<TimedTranslator>(env, cfg.conventions, probe);
  };
  return parts;
}

/// The first way the model and the runtime disagree at the end of a run,
/// or "" (the check core::run_experiment makes): every client's group and
/// every group's replica count must match. Only meaningful between plans.
std::string inconsistency(core::Framework& fw, const sim::GridApp& app) {
  const model::System& system = fw.system();
  const repair::StyleConventions& conv = fw.config().conventions;
  for (sim::ClientIdx c = 0;
       c < static_cast<sim::ClientIdx>(app.client_count()); ++c) {
    const sim::GroupIdx g = app.client_group(c);
    const std::string runtime = g == sim::kNoGroup ? "" : app.group_name(g);
    if (repair::group_of_client(system, app.client_name(c), conv) != runtime) {
      return "client " + app.client_name(c) + " is attached differently";
    }
  }
  for (sim::GroupIdx g = 0; g < static_cast<sim::GroupIdx>(app.group_count());
       ++g) {
    const std::string group = app.group_name(g);
    if (!system.has_component(group)) return "group " + group + " not in model";
    const std::int64_t replicas =
        system.component(group)
            .property_or(model::cs::kPropReplication, model::PropertyValue(0))
            .as_int();
    if (replicas != static_cast<std::int64_t>(app.active_servers(g).size())) {
      return "group " + group + " replica count differs";
    }
  }
  return "";
}

/// The paper's paper-fig6 adaptive run, built and driven here (not through
/// core::run_experiment, whose recorders are not the framework's work), so
/// set-up is timed on the stack that then runs.
RepResult run_paper(const RepOptions& o, int seeds) {
  TraceLog* log = o.trace;
  RepResult res;
  const Clock::time_point rep_start = Clock::now();
  PaperProbe probe;
  probe.log = log;
  double build_s = 0.0, start_s = 0.0, teardown_s = 0.0;
  std::vector<double> slice_ms;
  Counters layers;
  QualityTally tally;

  for (int i = 0; i < seeds; ++i) {
    ++res.ops;
    const std::uint64_t seed = unit_seed(o.seed, seeds, i);
    sim::ScenarioConfig config = sim::scenario_defaults("paper-fig6");
    config.seed = seed;
    try {
      SlowTally slow;
      sim::Simulator sim;
      Span build(log, "paper.build", "core");
      sim::Testbed tb = sim::build_scenario(sim, "paper-fig6", config);
      auto fw = log ? std::make_unique<core::Framework>(
                          sim, tb, core::FrameworkConfig{}, traced_parts(probe))
                    : std::make_unique<core::Framework>(
                          sim, tb, core::FrameworkConfig{});
      build_s += build.end();
      count_slow_responses(*tb.app, config.thresholds.max_latency, slow);
      Span start(log, "paper.start", "core");
      fw->start();
      tb.start();
      start_s += start.end();

      Span run(log, "paper.run", "sim");
      probe.run_span = run.id();
      sim.run_until(config.horizon);
      const double run_s = run.end({{"seed", static_cast<double>(seed)}});
      slice_ms.push_back(run_s * 1e3);

      const std::vector<repair::RepairRecord>& records = fw->engine().records();
      std::string problem =
          fw->engine().busy() ? "" : inconsistency(*fw, *tb.app);
      if (problem.empty() && fw->engine().stats().committed == 0) {
        problem = "no committed repair";
      }
      if (!problem.empty()) {
        ++res.ops_failed;
        res.errors.push_back("seed " + std::to_string(seed) + ": " + problem);
      }
      tally.add_repairs(records, log ? &layers : nullptr);
      tally.add_unit(*tb.app, slow.count);
      tally.events += sim.executed();
      if (log) {
        add_framework_counters(layers, *fw, tb);
        layers["sim.events"] += sim.executed();
        trace_repairs(*log, i, records);
      }

      Span teardown(log, "paper.teardown", "core");
      fw.reset();
      const double td = teardown.end();
      teardown_s += td;
      res.wall_s += run_s + td;
    } catch (const std::exception& e) {
      ++res.ops_failed;
      res.errors.push_back("seed " + std::to_string(seed) + ": " + e.what());
    }
  }
  res.setup_s = build_s + start_s;
  res.quality = tally.finish();

  if (log) {
    for (const auto& [key, seconds] : probe.host) layers[key] += seconds;
    layers["sim.slice_ms_p50"] = quantile(slice_ms, 0.5);
    layers["sim.slice_ms_tail"] =
        quantile(slice_ms, tail_quantile(slice_ms.size()));
    layers["core.build_s"] = build_s;
    layers["core.start_s"] = start_s;
    layers["core.teardown_s"] = teardown_s;
    res.layers = finish_layers(std::move(layers), res.wall_s,
                               res.setup_s + res.wall_s,
                               seconds_between(rep_start, Clock::now()));
  }
  return res;
}

// --------------------------------------------------- crash-recovery runs

constexpr double kCrashHorizonS = 500.0;

core::Manifest crash_manifest(std::uint64_t seed) {
  core::Manifest m;
  m.scenario = "lossy-grid";
  m.config = sim::scenario_defaults(m.scenario);
  m.config.seed = seed;
  m.config.fault.seed = seed;
  m.config.horizon = SimTime::seconds(kCrashHorizonS);
  m.config.stress_start = SimTime::seconds(150);
  m.config.stress_end = SimTime::seconds(330);
  m.config.stress_rate_hz = 1.1;
  // What run_with_recovery does: the scenario's fault profile rides into
  // the framework.
  m.framework.fault = m.config.fault;
  m.framework.durability.snapshot_period = SimTime::seconds(90);
  return m;
}

struct DurableOutcome {
  std::uint64_t model_digest = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t committed = 0;
};

DurableOutcome outcome_of(core::Framework& fw) {
  DurableOutcome out;
  const std::vector<std::uint8_t> model =
      durability::encode_system(fw.system());
  out.model_digest = durability::fnv1a(model);
  out.journal_bytes = fw.durability_plane()->journal_bytes();
  out.committed = fw.engine().stats().committed;
  return out;
}

RepResult run_crash(const RepOptions& o, int seeds) {
  TraceLog* log = o.trace;
  RepResult res;
  const Clock::time_point rep_start = Clock::now();
  const std::string clean_dir = o.scratch + "/clean.durable";
  const std::string crash_dir = o.scratch + "/crash.durable";
  const SimTime horizon = SimTime::seconds(kCrashHorizonS);
  double build_s = 0.0, start_s = 0.0, teardown_s = 0.0, wall_s = 0.0;
  std::vector<double> slice_ms;
  Counters layers;
  QualityTally tally;

  for (int i = 0; i < seeds; ++i) {
    ++res.ops;
    const std::uint64_t seed = unit_seed(o.seed, seeds, i);
    core::Manifest m = crash_manifest(seed);
    try {
      // Clean durable run: the reference the crashed copy must reproduce.
      reset_dir(clean_dir);
      m.framework.durability.dir = clean_dir;
      SlowTally slow;
      sim::Simulator sim;
      Span build(log, "clean.build", "core");
      sim::Testbed tb = sim::build_scenario(sim, m.scenario, m.config);
      auto fw = std::make_unique<core::Framework>(sim, tb, m.framework);
      const double b = build.end();
      count_slow_responses(*tb.app, m.config.thresholds.max_latency, slow);
      Span start(log, "clean.start", "core");
      fw->start();
      tb.start();
      const double st = start.end();
      build_s += b;
      start_s += st;

      Span run(log, "clean.run", "sim");
      if (!log) {
        sim.run_until(horizon);
      } else {
        for (double t = 10.0; t <= kCrashHorizonS + 1e-9; t += 10.0) {
          Span slice(log, "clean.slice", "sim", run.id());
          sim.run_until(SimTime::seconds(t));
          slice_ms.push_back(slice.end() * 1e3);
        }
      }
      const double run_s = run.end();

      const DurableOutcome clean = outcome_of(*fw);
      tally.add_repairs(fw->engine().records(), log ? &layers : nullptr);
      tally.add_unit(*tb.app, slow.count);
      tally.events += sim.executed();
      if (log) {
        add_framework_counters(layers, *fw, tb);
        layers["durability.journal_bytes"] += clean.journal_bytes;
        layers["durability.journal_records"] +=
            fw->durability_plane()->records_written();
        layers["host.plane_s"] += fw->durability_plane()->wall_s();
        layers["sim.events"] += sim.executed();
        trace_repairs(*log, i, fw->engine().records());
      }
      Span teardown(log, "clean.teardown", "core");
      fw.reset();
      const double td = teardown.end();
      teardown_s += td;

      // The crashed copy: same manifest, killed at a seeded time, then
      // restored and byte-verified against its own journal.
      Span copy(log, "crash.copy", "durability");
      reset_dir(crash_dir);
      m.framework.durability.dir = crash_dir;
      core::write_manifest(crash_dir, m);
      const fault::CrashPlan plan = fault::CrashPlan::seeded(
          seed, 1, SimTime::seconds(100), SimTime::seconds(440));
      {
        std::unique_ptr<core::RestoredRun> doomed = core::restore_run(crash_dir);
        Span pre(log, "crash.run_to_crash", "sim", copy.id());
        doomed->sim.run_until(plan.points.front().at);
        pre.end();
        durability::DurabilityPlane* plane =
            doomed->framework->durability_plane();
        layers["host.plane_s"] += plane->wall_s();
        plane->abandon();
      }
      Span restore(log, "crash.restore", "durability", copy.id());
      std::unique_ptr<core::RestoredRun> revived = core::restore_run(crash_dir);
      layers["host.restore_s"] += restore.end();
      Span catchup(log, "crash.catchup", "durability", copy.id());
      revived->run_to_reference();
      layers["host.catchup_s"] += catchup.end();
      Span resume(log, "crash.resume", "sim", copy.id());
      revived->sim.run_until(horizon);
      resume.end();
      const DurableOutcome recovered = outcome_of(*revived->framework);
      layers["host.plane_s"] += revived->framework->durability_plane()->wall_s();
      revived.reset();
      const double copy_s = copy.end();
      wall_s += run_s + td + copy_s;

      tally.hash.pod(clean.model_digest);
      tally.hash.pod(clean.journal_bytes);
      if (recovered.model_digest != clean.model_digest ||
          recovered.journal_bytes != clean.journal_bytes ||
          recovered.committed != clean.committed) {
        ++res.ops_failed;
        res.errors.push_back(
            "seed " + std::to_string(seed) +
            ": recovered run differs from the clean run (digest, journal "
            "bytes or committed repairs)");
      }
    } catch (const std::exception& e) {
      ++res.ops_failed;
      res.errors.push_back("seed " + std::to_string(seed) + ": " + e.what());
    }
  }
  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(crash_dir);
  res.setup_s = build_s + start_s;
  res.wall_s = wall_s;
  res.quality = tally.finish();

  if (log) {
    layers["sim.slice_ms_p50"] = quantile(slice_ms, 0.5);
    layers["sim.slice_ms_tail"] =
        quantile(slice_ms, tail_quantile(slice_ms.size()));
    layers["core.build_s"] = build_s;
    layers["core.start_s"] = start_s;
    layers["core.teardown_s"] = teardown_s;
    res.layers = finish_layers(std::move(layers), res.wall_s,
                               res.setup_s + res.wall_s,
                               seconds_between(rep_start, Clock::now()));
  }
  return res;
}

}  // namespace

RepResult run_rep(const RepOptions& o) {
  // Request rates keep every workload below saturation: stress brings a
  // tenant's demand to about its initial server capacity, so the slow-
  // request share sits near 0.1-0.25 and can move either way. fleet-64x256
  // at its default 1/2 Hz would ask 256 clients for 64 busy servers of 24.
  if (o.workload == "fleet-scale") {
    return o.smoke
               ? run_fleet(o, {"fleet-64x256", 8, 10.0, 0.25, false, 0.2, 0.21})
               : run_fleet(o, {"fleet-64x256", 16, 150.0, 0.25, false, 0.2,
                               0.21});
  }
  if (o.workload == "fleet-control") {
    return o.smoke ? run_fleet(o, {"fleet-4x16", 4, 60.0, 2.0, true, 1.0, 1.1})
                   : run_fleet(o, {"fleet-4x16", 32, 600.0, 2.0, true, 1.0,
                                   1.1});
  }
  if (o.workload == "paper-fig11") return run_paper(o, o.smoke ? 2 : 40);
  if (o.workload == "crash-recovery") return run_crash(o, o.smoke ? 2 : 20);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace e2e
