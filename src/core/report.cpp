#include "core/report.hpp"

#include <iomanip>
#include <optional>

namespace arcadia::core {

void print_series_table(std::ostream& out,
                        const std::vector<const TimeSeries*>& series,
                        SimTime bucket) {
  std::vector<TimeSeries> resampled;
  resampled.reserve(series.size());
  for (const TimeSeries* s : series) resampled.push_back(s->resample(bucket));

  out << std::setw(8) << "time_s";
  for (const TimeSeries& s : resampled) out << std::setw(18) << s.name();
  out << "\n";
  for (SimTime t = SimTime::zero();; t += bucket) {
    bool any = false;
    for (const TimeSeries& s : resampled) {
      const std::optional<SimTime> last = s.last_time();
      if (last && t <= *last) {
        any = true;
        break;
      }
    }
    if (!any) break;
    out << std::setw(8) << t.as_seconds();
    for (const TimeSeries& s : resampled) {
      out << std::setw(18) << std::setprecision(5) << s.value_at(t, 0.0);
    }
    out << "\n";
  }
}

void print_latency_figure(std::ostream& out, const ExperimentResult& result,
                          SimTime bucket) {
  std::vector<const TimeSeries*> series;
  for (const ClientSeries& c : result.clients) series.push_back(&c.window_latency);
  out << "# windowed average latency per client (s); threshold "
      << result.threshold_s << " s\n";
  print_series_table(out, series, bucket);
}

void print_load_figure(std::ostream& out, const ExperimentResult& result,
                       SimTime bucket) {
  std::vector<const TimeSeries*> series;
  for (const GroupSeries& g : result.groups) series.push_back(&g.queue_length);
  out << "# queue length per server group (requests); overload limit 6\n";
  print_series_table(out, series, bucket);
}

void print_bandwidth_figure(std::ostream& out, const ExperimentResult& result,
                            SimTime bucket) {
  std::vector<const TimeSeries*> series;
  for (const ClientSeries& c : result.clients) series.push_back(&c.bandwidth_mbps);
  out << "# available bandwidth group->client (Mbps); floor 0.0001, limit "
         "0.01 (10 Kbps)\n";
  print_series_table(out, series, bucket);
}

void print_repairs(std::ostream& out, const ExperimentResult& result) {
  out << "# repairs: " << result.repairs.size() << " triggered, "
      << result.repair_stats.committed << " committed, "
      << result.repair_stats.aborted << " aborted; moves="
      << result.repair_stats.moves
      << " +servers=" << result.repair_stats.servers_added
      << " -servers=" << result.repair_stats.servers_removed << "\n";
  if (result.repair_stats.ops_retried > 0 ||
      result.repair_stats.ops_timed_out > 0) {
    out << "# fault absorption: " << result.repair_stats.repairs_retried
        << " repairs retried (" << result.repair_stats.ops_retried
        << " op retries, " << result.repair_stats.ops_timed_out
        << " op timeouts)\n";
  }
  for (const repair::RepairRecord& r : result.repairs) {
    out << "  [" << std::setw(7) << r.started.as_seconds() << "s] "
        << r.strategy << "(" << r.element << ") ";
    if (r.committed && !r.finished) {
      out << "committed, still completing at horizon";
    } else if (r.committed) {
      out << "committed, " << r.duration().as_seconds() << "s"
          << " (decision " << r.decision_cost.as_seconds() << "s, queries "
          << r.query_cost.as_seconds() << "s, ops " << r.op_cost.as_seconds()
          << "s, gauges " << r.gauge_cost.as_seconds() << "s)";
    } else {
      out << "aborted: " << r.abort_reason;
    }
    out << "; tactics:";
    for (const auto& [name, ok] : r.tactics) {
      out << " " << name << (ok ? "+" : "-");
    }
    out << "\n";
  }
  for (const ServerEvent& e : result.server_events) {
    out << "  [" << std::setw(7) << e.time.as_seconds() << "s] server "
        << e.server << (e.active ? " activated" : " deactivated") << "\n";
  }
}

void write_fault_stats_csv(
    std::ostream& out, const ExperimentResult& result,
    const std::vector<std::pair<std::string, std::uint64_t>>& extra) {
  out << "metric,value\n";
  auto row = [&out](const char* metric, std::uint64_t value) {
    out << metric << "," << value << "\n";
  };
  // Injected.
  row("reports_dropped", result.fault_stats.reports_dropped);
  row("reports_duplicated", result.fault_stats.reports_duplicated);
  row("reports_delayed", result.fault_stats.reports_delayed);
  row("reports_suppressed", result.fault_stats.reports_suppressed);
  row("channel_disconnects", result.fault_stats.channel_disconnects);
  row("ops_transient", result.fault_stats.ops_transient);
  row("ops_permanent", result.fault_stats.ops_permanent);
  row("ops_stalled", result.fault_stats.ops_stalled);
  row("tenant_crashes", result.fault_stats.tenant_crashes);
  // Absorbed.
  row("repairs_committed", result.repair_stats.committed);
  row("repairs_aborted", result.repair_stats.aborted);
  row("repairs_retried", result.repair_stats.repairs_retried);
  row("ops_retried", result.repair_stats.ops_retried);
  row("ops_timed_out", result.repair_stats.ops_timed_out);
  row("suspects_marked", result.gauge_stats.suspects_marked);
  row("suspects_cleared", result.gauge_stats.suspects_cleared);
  row("elements_suspected", result.manager_stats.elements_suspected);
  row("elements_cleared", result.manager_stats.elements_cleared);
  row("verdict_holds", result.verdict_holds);
  for (const auto& [metric, value] : extra) row(metric.c_str(), value);
}

void print_comparison(std::ostream& out, const ExperimentResult& control,
                      const ExperimentResult& repair) {
  out << "\n# control vs repair (fraction of time above " << control.threshold_s
      << " s)\n";
  out << std::setw(10) << "client" << std::setw(12) << "control"
      << std::setw(12) << "repair" << std::setw(16) << "first>2s ctl"
      << std::setw(16) << "first>2s rep\n";
  for (std::size_t i = 0; i < control.clients.size(); ++i) {
    auto fmt_cross = [](SimTime t) {
      return t.is_infinite() ? std::string("never")
                             : std::to_string(t.as_seconds());
    };
    out << std::setw(10) << control.clients[i].name << std::setw(12)
        << control.client_fraction_above(i) << std::setw(12)
        << repair.client_fraction_above(i) << std::setw(16)
        << fmt_cross(control.client_first_crossing(i)) << std::setw(16)
        << fmt_cross(repair.client_first_crossing(i)) << "\n";
  }
  out << "mean fraction above threshold: control="
      << control.mean_fraction_above()
      << " repair=" << repair.mean_fraction_above() << "\n";
  out << "max queue length: control=" << control.max_queue_length()
      << " repair=" << repair.max_queue_length() << "\n";
}

namespace {

/// RFC-4180 quoting for free-text fields (error messages carry commas).
std::string csv_quote(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string quoted = "\"";
  for (char ch : text) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

void write_suite_csv(std::ostream& out,
                     const std::vector<SuiteOutcome>& outcomes) {
  out << "label,scenario,fault_seed,failed,wall_s,sim_s,requests,responses,"
         "repairs_committed,error\n";
  for (const SuiteOutcome& outcome : outcomes) {
    out << csv_quote(outcome.label) << "," << csv_quote(outcome.scenario)
        << "," << outcome.fault_seed << "," << (outcome.ok() ? 0 : 1) << ","
        << outcome.wall_seconds << "," << outcome.sim_seconds << ","
        << outcome.result.requests_issued << ","
        << outcome.result.responses_completed << ","
        << outcome.result.repair_stats.committed << ","
        << csv_quote(outcome.error) << "\n";
  }
}

}  // namespace arcadia::core
