// The four bench_e2e workloads. One call runs one rep of one workload in
// the calling process; the front end (run.py) starts a fresh process per
// rep so set-up time and peak memory are what a user actually pays.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace e2e {

struct RepOptions {
  std::string workload;
  /// Fleets take it as the scenario seed. A solo workload of N runs uses
  /// seeds seed*N .. seed*N+N-1, so neighbouring seeds share no run.
  std::uint64_t seed = 42;
  /// Directory for durable run state (journals, snapshots, manifests).
  std::string scratch;
  /// Reduced sizes for `run.py smoke`.
  bool smoke = false;
  /// Simulation threads of the fleet workloads (the solo ones use one).
  std::size_t sim_threads = 4;
  /// Non-null for the traced run: spans and per-layer counters are kept.
  TraceLog* trace = nullptr;
};

/// The deterministic outputs of a rep. Equal across reps, across thread
/// counts, and between traced and untraced runs — the bench's oracle that
/// observation changed nothing.
///
/// A workload is made of independent units: the tenants of a fleet, the
/// seeds of a solo workload. Client figures are the 10%-trimmed mean over
/// units, so a unit whose clients starve (seeds differ by up to 7x in mean
/// latency) cannot swing the result; repair latency pools every
/// committed repair.
struct Quality {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t repairs_committed = 0;
  double repair_latency_mean_s = 0.0;  ///< sim-s
  double client_latency_s = 0.0;    ///< units' mean latency, sim-s
  double client_above_share = 0.0;  ///< units' share of responses > 2 s
};

struct RepResult {
  double setup_s = 0.0;  ///< build + start
  double wall_s = 0.0;   ///< everything after set-up, teardown included
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::vector<std::string> errors;
  Quality quality;
  /// Per-layer metrics (traced runs only), keyed by BENCHMARK.json name.
  std::map<std::string, double> layers;
};

/// Throws std::invalid_argument for an unknown workload. Failures inside an
/// operation are caught and counted in ops_failed / errors.
RepResult run_rep(const RepOptions& options);

}  // namespace e2e
