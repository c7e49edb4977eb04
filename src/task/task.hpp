// The task layer (Figure 1, item 6): sets the performance objectives and
// resource constraints that parameterize the model layer. The paper's
// experiment profile: max average latency 2 s, server overloaded above 6
// queued requests, starved below 10 Kbps — plus the queuing analysis that
// sized the initial deployment ("we calculated that an initial starting
// point of 3 replicated servers in one server group would be sufficient to
// serve our six clients", Section 5).
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "acme/evaluator.hpp"
#include "model/system.hpp"
#include "util/units.hpp"

namespace arcadia::task {

struct PerformanceProfile {
  SimTime max_latency = SimTime::seconds(2);
  double max_server_load = 6.0;
  Bandwidth min_bandwidth = Bandwidth::kbps(10);
  double min_utilization = 0.2;
  std::int64_t min_replicas = 2;
};

/// Writes the profile's per-element thresholds into the model (maxLatency
/// on every ClientT component).
void apply_profile(model::System& system, const PerformanceProfile& profile);

/// The profile's fleet-wide thresholds as named script globals:
/// maxServerLoad, minBandwidth (bps), minUtilization, minReplicas. The one
/// place their names are written — bind_task_globals binds them, and the
/// style's script vocabulary (repair::client_server_vocabulary) declares
/// them.
inline std::array<std::pair<const char*, double>, 4> task_globals(
    const PerformanceProfile& profile) {
  return {{{"maxServerLoad", profile.max_server_load},
           {"minBandwidth", profile.min_bandwidth.as_bps()},
           {"minUtilization", profile.min_utilization},
           {"minReplicas", static_cast<double>(profile.min_replicas)}}};
}

/// Binds task_globals(profile) on any scope with
/// bind_global(name, acme::EvalValue): the constraint checker and the
/// strategy interpreter alike.
template <class Scope>
void bind_task_globals(Scope& scope, const PerformanceProfile& profile) {
  for (const auto& [name, value] : task_globals(profile)) {
    scope.bind_global(name, acme::EvalValue(value));
  }
}

// ---- design-time performance analysis (M/M/c) ----

struct SizingInput {
  double arrival_rate_hz = 6.0;     ///< aggregate request rate
  double service_time_s = 0.25;     ///< mean per-request service time
  double target_wait_s = 1.0;       ///< acceptable mean queue wait
  std::int64_t max_servers = 64;    ///< search bound
};

struct SizingResult {
  std::int64_t servers = 0;       ///< smallest c meeting the target
  double utilization = 0.0;       ///< rho = lambda / (c * mu)
  double erlang_c = 0.0;          ///< probability of waiting
  double expected_wait_s = 0.0;   ///< mean wait in queue (Wq)
  double expected_queue = 0.0;    ///< mean queue length (Lq)
  bool feasible = false;
};

/// Erlang-C probability that an arrival waits, for c servers at offered
/// load a = lambda/mu erlangs. Returns 1.0 when the system is unstable.
double erlang_c(std::int64_t servers, double offered_load);

/// Smallest replicated-server count whose mean queue wait meets the
/// target; the paper's "3 servers for six clients" calculation.
SizingResult size_server_group(const SizingInput& input);

/// Minimum bandwidth so a response of `size` transfers within `budget` —
/// the paper's 10 Kbps floor derivation.
Bandwidth min_bandwidth_for(DataSize response_size, SimTime budget);

}  // namespace arcadia::task
