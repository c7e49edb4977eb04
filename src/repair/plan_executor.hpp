// Asynchronous enactment of an AdaptationPlan on the simulator. Every step
// whose dependencies are satisfied launches immediately — independent
// runtime operations and gauge re-deployments overlap, so the plan's
// wall-clock is its critical path, not the serial sum the paper measured.
//
// A running plan can be aborted (preemption, or a translator failure mid
// step): un-launched steps are skipped, in-flight gauge redeployments are
// detached (their completions become no-ops; the gauges still come back on
// their own), and the already-enacted runtime steps are compensated by
// translating the inverse of their op records, newest first. Model-side
// compensation is the caller's job — it owns the journal and the System.
//
// Failure awareness (ahead of the compensation/abort path above): a typed
// repair::OpError(Transient) from the translator re-launches the step on a
// bounded, seeded-jitter exponential backoff schedule (RetryPolicy); a
// runtime step whose modeled cost exceeds the per-op timeout is rolled
// back (its own inverse ops only) and retried the same way. Permanent
// OpErrors, untyped Errors, and exhausted retry budgets fall through to
// fail_step / compensation exactly as before.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "repair/plan.hpp"
#include "repair/retry.hpp"
#include "sim/simulator.hpp"
#include "util/annotations.hpp"
#include "util/deterministic_rng.hpp"

namespace arcadia::repair {

class PlanExecutor {
 public:
  struct Callbacks {
    /// Fired as each step completes (optional; step index into the plan).
    std::function<void(std::size_t)> on_step_done;
    /// Every step completed.
    std::function<void()> on_done;
    /// A runtime step's translation threw. Enacted steps have already been
    /// compensated at the runtime layer (`compensation_cost` is the modeled
    /// cost of those inverse ops); the caller reverts the model.
    std::function<void(std::size_t step, const std::string& reason,
                       SimTime compensation_cost)>
        on_failed;
  };

  struct AbortResult {
    std::size_t steps_skipped = 0;  ///< never launched (or detached mid-air)
    std::size_t steps_enacted = 0;  ///< runtime steps whose ops had applied
    SimTime compensation_cost;      ///< modeled cost of the inverse ops
  };

  /// Per-run fault-handling counters (reset by each run()).
  struct FaultStats {
    std::uint64_t ops_retried = 0;    ///< retry launches scheduled
    std::uint64_t ops_timed_out = 0;  ///< steps rolled back by the timeout
  };

  /// `translator` and `gauges` may be null (model-only rigs; the matching
  /// step kinds then complete instantly and cost nothing).
  PlanExecutor(sim::Simulator& sim, Translator* translator,
               monitor::GaugeManager* gauges);

  /// Enact `plan`. The caller keeps the plan alive and unchanged until
  /// on_done / on_failed fires or abort() returns.
  void run(const AdaptationPlan* plan, Callbacks callbacks);

  /// Install the retry/backoff/timeout policy (reseeds the jitter stream;
  /// call before run()).
  void set_retry_policy(RetryPolicy policy);
  /// Counters for the current (or most recently finished) run.
  const FaultStats& fault_stats() const { return fault_stats_; }

  bool active() const { return active_; }
  /// Sum of translator costs charged so far (compensation included).
  SimTime runtime_cost() const { return runtime_cost_; }
  /// Wall-clock between the first gauge step launching and the last one
  /// completing — the sequential shape's gauge phase, or its overlapped
  /// counterpart in an optimized plan.
  SimTime gauge_wall() const;

  /// Abort the running plan (see file comment). No-op when idle.
  AbortResult abort();

 private:
  enum class State : std::uint8_t { Pending, Running, Done };

  void launch_ready();
  void start_step(std::size_t idx);
  void launch_runtime(std::size_t idx);
  void schedule_retry(std::size_t idx);
  void time_out_step(std::size_t idx);
  SimTime rollback_step(std::size_t idx);
  void complete_step(std::size_t idx);
  void fail_step(std::size_t idx, const std::string& reason);
  SimTime compensate_enacted();

  sim::Simulator& sim_;
  Translator* translator_;
  monitor::GaugeManager* gauges_;
  const AdaptationPlan* plan_ = nullptr;
  Callbacks cb_;
  std::vector<State> state_;
  std::vector<std::size_t> deps_left_;
  std::vector<std::vector<std::size_t>> dependents_;
  std::vector<std::size_t> enacted_;  ///< runtime steps applied, launch order
  std::vector<int> attempts_;         ///< per-step launch count (retries)
  std::vector<sim::EventHandle> completion_;  ///< pending runtime completions
  std::vector<sim::EventHandle> timeout_;     ///< pending per-op timeouts
  RetryPolicy retry_;
  Rng jitter_rng_{RetryPolicy{}.jitter_seed};
  FaultStats fault_stats_;
  std::size_t done_ = 0;
  bool active_ = false;
  /// Bumped whenever a run ends (done, failed, aborted): completions from a
  /// previous generation — e.g. a gauge redeploy finishing after an abort —
  /// are recognized and dropped.
  std::uint64_t generation_ = 0;
  SimTime runtime_cost_;
  bool saw_gauge_ = false;
  SimTime first_gauge_start_;
  SimTime last_gauge_done_;
  /// Concurrency capability: plan state advances only on the simulation
  /// thread (run/abort entry points plus completions the simulator fires);
  /// "overlapped" steps overlap in *simulated* time, not on host threads.
  util::SerialDomain serial_;
};

}  // namespace arcadia::repair
