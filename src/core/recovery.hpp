// Crash recovery over the durability plane (DESIGN.md §8).
//
// Arcadia's runs are pure functions of (scenario config, framework config,
// seeds): the simulator, workload, fault plane, and repair engine draw all
// randomness from seeded streams. Recovery exploits that instead of trying
// to serialize live state (pending events, closures, in-flight plans — none
// of which can be written to disk faithfully): a restore re-executes the
// run from t=0 and *byte-verifies* every frame it re-journals against the
// crashed journal's valid prefix (catchup verification). Any divergence —
// a changed binary, a different config, nondeterminism — throws
// RecoveryError at the exact LSN instead of silently forking history. Once
// the reference is exhausted the run simply continues live past the crash
// point, writing fresh journal. Snapshots are what arcreplay and the
// divergence diagnostics anchor to; the re-execution itself only needs the
// manifest.
//
//   core::RecoveryOptions opts;
//   opts.dir = "run.durable";
//   opts.scenario = "lossy-grid";
//   opts.crashes = fault::CrashPlan::seeded(7, 3, t0, t1);
//   core::RecoveryResult r = core::run_with_recovery(opts);
//   // r.crashes_survived == 3, model digest == uncrashed run's digest
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "fault/crash_plan.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace arcadia::core {

/// What a durable run was built from — enough to re-execute it from t=0.
/// Written once when the run is first created; read by restore_run. One
/// `fields` description per config struct (recovery.cpp) drives both the
/// writer and the reader. It records every ScenarioConfig field and every
/// FrameworkConfig field except `conventions`, which a restore leaves at
/// its defaults, and a restore always assembles the default FrameworkParts:
/// a restore of a run that customized either diverges in catchup
/// verification (a loud RecoveryError), never silently.
struct Manifest {
  std::string scenario;  ///< scenario catalog name
  sim::ScenarioConfig config;
  FrameworkConfig framework;
};

inline constexpr const char* kManifestFile = "manifest.arcm";

/// Atomic write of dir/manifest.arcm ("ARCM" magic, versioned, CRC-tailed).
void write_manifest(const std::string& dir, const Manifest& manifest);
/// Throws DurabilityError on a missing file, bad magic, version or CRC, an
/// out-of-range enum, an underrun, or trailing bytes.
Manifest read_manifest(const std::string& dir);

/// A rebuilt run: the whole stack, self-owned, already start()ed. The
/// simulator sits at t=0 with catchup verification armed; run the clock
/// (run_to_reference() or sim.run_until) to re-reach the crash point.
struct RestoredRun {
  sim::Simulator sim;
  Manifest manifest;
  sim::Testbed testbed;
  std::unique_ptr<Framework> framework;

  /// Newest LSN / sim-time the crashed journal vouches for. Zero/zero on a
  /// fresh directory (nothing journaled yet).
  std::uint64_t reference_lsn = 0;
  SimTime reference_horizon;
  /// True when a prior journal existed (this is a recovery, not a first
  /// build); `warning` carries the torn-tail note when its end was ragged.
  bool recovered = false;
  std::string warning;

  /// Re-execute up to the journaled horizon. On return the run has
  /// byte-reproduced every reference frame and is live again.
  void run_to_reference() { sim.run_until(reference_horizon); }
};

/// Build (first call) or rebuild (after a crash) the run described by
/// dir/manifest.arcm: re-executes the deterministic run from t=0,
/// byte-verifying every re-journaled frame against the crashed journal's
/// valid prefix (see DESIGN.md §8).
std::unique_ptr<RestoredRun> restore_run(const std::string& dir);

/// Segmented crash-restart driver: run the manifested scenario to its
/// horizon while killing the process-equivalent (the whole stack is
/// destroyed without flushing) at every CrashPlan point and restoring from
/// the durable directory. The loop a crash-matrix cell executes.
struct RecoveryOptions {
  std::string dir;
  std::string scenario = "lossy-grid";
  sim::ScenarioConfig config;
  FrameworkConfig framework;
  fault::CrashPlan crashes;
  /// Run end; zero uses config.horizon.
  SimTime horizon;
};

struct RecoveryResult {
  int crashes_survived = 0;
  int segments = 0;  ///< total builds/restores, including the first
  std::uint64_t final_lsn = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t repairs_committed = 0;
  /// Digest of the final model encoding — compare against an uncrashed
  /// run's digest for the recovery oracle.
  std::uint64_t model_digest = 0;
  std::vector<std::string> warnings;  ///< torn-tail notes per restart
};

RecoveryResult run_with_recovery(const RecoveryOptions& options);

}  // namespace arcadia::core
