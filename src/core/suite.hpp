// Batched experiment runner: fans a list of labeled runs — typically a
// (scenario x framework-config) grid — across a thread pool. Each run owns
// its whole simulator, so parallelism at experiment granularity is safe by
// construction; registries are read-only at run time and thread-safe.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"

namespace arcadia::core {

struct SuiteCase {
  std::string label;
  ExperimentOptions options;
};

struct SuiteOutcome {
  std::string label;
  std::string scenario;
  ExperimentResult result;
  /// Non-empty when the run threw; `result` is then default-constructed.
  /// The failure is contained to this case — the rest of the suite runs.
  std::string error;
  /// The case's fault seed (ScenarioConfig::fault.seed), recorded even on
  /// failure so a crashing fault grid cell can be replayed exactly.
  std::uint64_t fault_seed = 0;
  /// Host wall-clock spent on this case, measured around the run whether it
  /// returned or threw — a failed cell's cost must not vanish from the CSV.
  double wall_seconds = 0.0;
  /// Simulated seconds covered: the horizon on success, 0 on failure (the
  /// run died somewhere short of it; the `failed` CSV column marks which).
  double sim_seconds = 0.0;

  bool ok() const { return error.empty(); }
};

/// One named framework variant for grid expansion.
struct SuiteVariant {
  std::string label;
  FrameworkConfig framework;
  bool adaptation = true;
};

class ExperimentSuite {
 public:
  /// Queue one labeled run.
  ExperimentSuite& add(std::string label, ExperimentOptions options);
  /// Queue scenario x variant runs: every catalog scenario name in
  /// `scenarios` under every framework variant, labeled
  /// "<scenario>/<variant>". Scenario defaults come from the catalog.
  ExperimentSuite& add_grid(const std::vector<std::string>& scenarios,
                            const std::vector<SuiteVariant>& variants);

  std::size_t size() const { return cases_.size(); }
  const std::vector<SuiteCase>& cases() const { return cases_; }

  /// Run every queued case across `threads` workers (0 = hardware
  /// concurrency). Outcomes keep queue order; failures are captured per
  /// case, not thrown.
  std::vector<SuiteOutcome> run(std::size_t threads = 0) const;

 private:
  std::vector<SuiteCase> cases_;
};

}  // namespace arcadia::core
