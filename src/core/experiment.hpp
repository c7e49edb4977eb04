// The experiment runner: builds the Figure 6 testbed, optionally attaches
// the adaptation framework, runs the Figure 7 schedule, and records every
// series the paper's evaluation plots — per-client latency (Figures 8/11),
// per-group queue length a.k.a. server load (Figures 9/13), and available
// bandwidth (Figures 10/12) — plus repair windows and server activations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "fault/fault_plane.hpp"
#include "repair/engine.hpp"
#include "sim/scenario.hpp"
#include "util/timeseries.hpp"

namespace arcadia::core {

struct ExperimentOptions {
  /// Which scenario to run (a sim::scenario_catalog() name). Use
  /// options_for() to start from a scenario's calibrated defaults.
  std::string scenario_name = "paper-fig6";
  sim::ScenarioConfig scenario;
  FrameworkConfig framework;
  /// false = the paper's control run (no adaptation infrastructure at all).
  bool adaptation = true;
};

struct ClientSeries {
  std::string name;
  TimeSeries raw_latency;     ///< one point per completed response
  TimeSeries window_latency;  ///< 30 s windowed mean (what the figures show)
  TimeSeries bandwidth_mbps;  ///< available bandwidth group->client
};

struct GroupSeries {
  std::string name;
  TimeSeries queue_length;  ///< the paper's "server load"
  TimeSeries utilization;
};

struct ServerEvent {
  SimTime time;
  std::string server;
  bool active;
};

struct ExperimentResult {
  bool adaptive = false;
  SimTime horizon;
  double threshold_s = 2.0;

  std::vector<ClientSeries> clients;
  std::vector<GroupSeries> groups;
  std::vector<ServerEvent> server_events;
  std::vector<std::pair<SimTime, SimTime>> repair_windows;
  std::vector<repair::RepairRecord> repairs;
  repair::RepairStats repair_stats;
  // Robustness counters (adaptive runs only): the failure model's
  // observable footprint — what was injected, what the loop absorbed.
  ArchManagerStats manager_stats;
  monitor::GaugeManagerStats gauge_stats;
  fault::FaultPlaneStats fault_stats;  ///< zero unless faults were enabled
  std::uint64_t verdict_holds = 0;     ///< checker holds on suspect evidence

  std::uint64_t requests_issued = 0;
  std::uint64_t responses_completed = 0;
  std::uint64_t sim_events = 0;

  /// Model<->runtime correspondence at the end of an adaptive run: every
  /// client's architectural attachment must match its runtime queue, and
  /// every group's replicationCount its active server count. Empty = good.
  std::vector<std::string> consistency_issues;

  // ---- summary metrics used by benches, tests and EXPERIMENTS.md ----
  /// Time-fraction the client's windowed latency exceeds the threshold.
  double client_fraction_above(std::size_t i) const;
  /// Mean over clients of client_fraction_above.
  double mean_fraction_above() const;
  /// First time a client's windowed latency crosses the threshold.
  SimTime client_first_crossing(std::size_t i) const;
  double max_queue_length() const;
  const ClientSeries* client(const std::string& name) const;
  const GroupSeries* group(const std::string& name) const;
};

/// Options seeded with a catalog scenario's calibrated defaults.
ExperimentOptions options_for(const std::string& scenario_name);

ExperimentResult run_experiment(const ExperimentOptions& options);

/// The paper's paired runs: identical scenario and seed, control first,
/// then with the adaptation framework.
struct PairedResults {
  ExperimentResult control;
  ExperimentResult repair;
};
PairedResults run_control_and_repair(ExperimentOptions options);

}  // namespace arcadia::core
