// Paper-style reporting: prints the series behind each figure (log-scale
// friendly), the repair windows, and the summary comparisons the
// evaluation section states in prose. Used by the bench harness and the
// examples.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/suite.hpp"

namespace arcadia::core {

/// Print several aligned series as columns.
void print_series_table(std::ostream& out,
                        const std::vector<const TimeSeries*>& series,
                        SimTime bucket);

/// Figure 8/11 content: per-client windowed average latency.
void print_latency_figure(std::ostream& out, const ExperimentResult& result,
                          SimTime bucket);

/// Figure 9/13 content: per-group queue length.
void print_load_figure(std::ostream& out, const ExperimentResult& result,
                       SimTime bucket);

/// Figure 10/12 content: per-client available bandwidth.
void print_bandwidth_figure(std::ostream& out, const ExperimentResult& result,
                            SimTime bucket);

/// Repair windows + per-repair breakdown (strategy, tactics, costs).
void print_repairs(std::ostream& out, const ExperimentResult& result);

/// Robustness counters as metric,value CSV rows: injected faults (drops,
/// duplicates, delays, disconnects, op failures, crashes) and the loop's
/// absorption of them (retries, timeouts, suspects, verdict holds). Extra
/// fleet-level rows (shards_quarantined, ...) ride in via `extra`.
void write_fault_stats_csv(
    std::ostream& out, const ExperimentResult& result,
    const std::vector<std::pair<std::string, std::uint64_t>>& extra = {});

/// The control-vs-repair headline comparison (who wins, by how much).
void print_comparison(std::ostream& out, const ExperimentResult& control,
                      const ExperimentResult& repair);

/// Suite grid results, one row per case — including failed cases, which
/// keep their wall-clock column and set `failed`/`error` instead of being
/// silently dropped. Commas/quotes in error text are CSV-quoted.
void write_suite_csv(std::ostream& out,
                     const std::vector<SuiteOutcome>& outcomes);

}  // namespace arcadia::core
