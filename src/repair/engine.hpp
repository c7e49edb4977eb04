// The repair engine: turns constraint violations into executed repairs.
//
// Lifecycle of one repair (Section 3.2 / 3.3 and the timing observations
// of Section 5.3):
//   1. pick a violation (policy: first-reported, as the paper's experiment
//      did, or worst-first, the smarter scheme its future work proposes);
//   2. run the bound script strategy inside a model Transaction (a handler
//      the script does not define aborts as UnknownStrategy);
//   3. on commit: charge decision + runtime-query time, then lift the
//      committed op records into an AdaptationPlan (repair/plan.hpp) and
//      enact it asynchronously (repair/plan_executor.hpp). The default
//      shape is optimized (merged moves, batched gauge re-deployments) with
//      independent steps overlapped. `use_plan = false` picks the paper's
//      strictly sequential plan shape instead — translate every record,
//      then re-deploy each element's gauges one after another, the step
//      that dominates its ~30 s repair time — as the measured baseline.
//      Both shapes run through the same executor, so both compensate on
//      failure and both can be preempted;
//   4. on abort: roll the transaction back and apply a cooldown so a
//      hopeless constraint does not spin.
//
// While a repair is in flight, and for settle_time afterwards on the
// affected elements, new violations are suppressed — the paper's "effects
// of a repair on a system will take time ... without taking this effect
// into account, unnecessary repairs are likely to occur". Detection keeps
// running while a plan enacts, and with `preemption` enabled a strictly
// worse violation somewhere else aborts the running plan: remaining steps
// are skipped and compensations from the transaction journal bring model
// and runtime back to their pre-repair state before the new repair starts.
//
// Plan lifecycle transitions (started / completed / failed / preempted)
// are journaled through the durability sink, when one is set; the engine
// publishes nothing on any bus.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "acme/effects.hpp"
#include "acme/interpreter.hpp"
#include "acme/script.hpp"
#include "durability/sink.hpp"
#include "model/transaction.hpp"
#include "monitor/gauge_manager.hpp"
#include "repair/constraint.hpp"
#include "repair/plan.hpp"
#include "repair/plan_executor.hpp"
#include "repair/runtime_queries.hpp"
#include "repair/style_ops.hpp"
#include "sim/simulator.hpp"
#include "task/task.hpp"
#include "util/symbol.hpp"

namespace arcadia::repair {

/// Picks which eligible violation to repair next. `candidates` is never
/// empty and already filtered (handlers bound, damping applied); returns an
/// index into it.
using ViolationChooser =
    std::size_t (*)(const std::vector<const Violation*>& candidates);

/// The violation policy named `name`: "first-reported" (the paper's
/// experiment: repair whatever fired first) or "worst-first" (repair the
/// worst observed value, its future work). Throws Error naming both for any
/// other name.
ViolationChooser violation_chooser(const std::string& name);

/// Strategy-evaluation cost charged before runtime ops.
inline constexpr SimTime kDecisionCost = SimTime::millis(100);

/// The engine's own knobs. The task thresholds and style conventions it
/// also reads are constructor inputs, not copies.
struct RepairEngineConfig {
  /// Violation policy, resolved through violation_chooser(): "first-reported"
  /// or "worst-first".
  std::string policy_name = "first-reported";
  /// Per-element suppression after a repair completes.
  SimTime settle_time = SimTime::seconds(30);
  /// Per-constraint suppression after an aborted repair.
  SimTime abort_cooldown = SimTime::seconds(60);
  /// Disable to reproduce undamped oscillation (ablation).
  bool damping = true;
  /// Plan shape: true lifts the journal into an optimized, overlapping
  /// plan (build_plan + optimize_plan); false builds the paper's strictly
  /// sequential plan shape (build_sequential_plan) — the in-bench baseline
  /// for bench_paper's Figure 11 gate. Both enact through the PlanExecutor.
  bool use_plan = true;
  /// Allow a strictly worse violation to abort a plan in flight (remaining
  /// steps skipped, enacted steps compensated) and start its own repair —
  /// pair with the churn-mid-repair scenario.
  bool preemption = false;
  /// "Strictly worse": the challenger's observed value must exceed the
  /// active repair's by this factor. Observed values are compared raw and
  /// assume higher-is-worse threshold readings; repairs whose violation
  /// observed 0 (non-threshold constraints, idle-group utilization) are
  /// never preempted — their severity is not comparable. The heuristic is
  /// sharpest between violations of the same constraint kind (latency vs
  /// latency) — exactly the mid-repair-fault case the churn-mid-repair
  /// scenario exercises. Must be >= 1 with `preemption` on, or the
  /// displaced repair could preempt its challenger back; the constructor
  /// throws Error otherwise.
  double preempt_factor = 2.0;
  /// Failure-aware enactment: bounded retries with deterministic
  /// exponential backoff for transient runtime-op faults, and per-op
  /// timeouts — applied by the PlanExecutor ahead of the compensation /
  /// abort path above. The defaults retry; set max_attempts = 1 to make
  /// every op fault terminal (the pre-fault-plane behaviour).
  RetryPolicy retry;
  /// Queue-length advantage a load-balancing move must gain
  /// (findLessLoadedSGrp's threshold).
  double load_improvement = 2.0;
};

struct RepairRecord {
  std::uint64_t id = 0;
  std::string constraint_id;
  std::string element;
  std::string strategy;
  SimTime started;
  SimTime completed;
  bool committed = false;
  bool aborted = false;
  bool finished = false;
  /// The plan was aborted mid-flight by a strictly worse violation.
  bool preempted = false;
  std::string abort_reason;
  std::vector<std::pair<std::string, bool>> tactics;
  /// Per-tactic journal windows (committed repairs only): which slice of
  /// `journal` each executed tactic produced. Feeds the static-analysis
  /// soundness oracle (every op must fall inside its tactic's inferred
  /// write set).
  std::vector<acme::TacticSpan> tactic_spans;
  /// The committed op records, in journal order (empty for aborts).
  std::vector<model::OpRecord> journal;
  std::vector<std::string> ops;
  SimTime decision_cost;
  SimTime query_cost;
  SimTime op_cost;
  SimTime gauge_cost;
  int moves = 0;
  int servers_added = 0;
  int servers_removed = 0;
  /// Plan pipeline: steps enacted / steps the optimizer folded away (0 for
  /// the sequential plan shape, which is not optimized).
  int plan_steps = 0;
  int plan_steps_merged = 0;
  /// Failure-aware enactment: transient-op retries and op timeouts this
  /// repair absorbed before reaching its verdict.
  int ops_retried = 0;
  int ops_timed_out = 0;

  SimTime duration() const { return completed - started; }
};

struct RepairStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t moves = 0;
  std::uint64_t servers_added = 0;
  std::uint64_t servers_removed = 0;
  double repair_seconds_total = 0.0;
  // Plan pipeline counters.
  std::uint64_t plan_steps_executed = 0;
  std::uint64_t plan_steps_merged = 0;    ///< folded by the optimizer
  std::uint64_t plan_steps_preempted = 0; ///< skipped by plan aborts
  std::uint64_t plans_preempted = 0;
  // Failure-aware enactment counters.
  std::uint64_t ops_retried = 0;     ///< transient-op retries, all repairs
  std::uint64_t ops_timed_out = 0;   ///< op-timeout rollbacks, all repairs
  std::uint64_t repairs_retried = 0; ///< repairs that needed >= 1 retry
};

class RepairEngine {
 public:
  /// `queries`, `translator`, and `gauges` may be null for model-only use
  /// (unit tests); costs they would contribute are then zero. `profile`
  /// supplies the script globals (bind_task_globals) and the operators'
  /// bandwidth floor; `conventions` the style's element naming.
  RepairEngine(sim::Simulator& sim, model::System& root,
               const acme::Script& script, RuntimeQueries* queries,
               Translator* translator, monitor::GaugeManager* gauges,
               RepairEngineConfig config,
               const task::PerformanceProfile& profile = {},
               StyleConventions conventions = {});

  /// Optional write-ahead journal sink (durability plane). When set, every
  /// committed transaction (execute commit and compensation revert) and
  /// every plan lifecycle transition is journaled under `shard` before the
  /// runtime acts on it. Null = durability off, zero overhead.
  void set_journal_sink(durability::JournalSink* sink, std::uint32_t shard) {
    journal_sink_ = sink;
    journal_shard_ = shard;
  }

  /// Consider current violations; start at most one repair. While a plan
  /// is in flight this normally declines — unless preemption is enabled
  /// and a strictly worse violation (outside the elements the plan
  /// touches) wins the policy pick, in which case the running plan is
  /// aborted, compensated, and replaced. Returns true when a repair was
  /// initiated.
  bool handle_violations(const std::vector<Violation>& violations);

  bool busy() const { return busy_; }
  /// Element currently under repair or settling.
  bool suppressed(util::Symbol element) const;
  bool suppressed(const std::string& element) const {
    return suppressed(util::Symbol::intern(element));
  }
  bool constraint_cooling(util::Symbol constraint_id) const;
  bool constraint_cooling(const std::string& constraint_id) const {
    return constraint_cooling(util::Symbol::intern(constraint_id));
  }

  const std::vector<RepairRecord>& records() const { return records_; }
  const RepairStats& stats() const { return stats_; }
  /// (start, end) of committed repairs — the repair-duration bars of
  /// Figures 11-13. Maintained incrementally; cheap to call every sample.
  const std::vector<std::pair<SimTime, SimTime>>& repair_windows() const {
    return windows_;
  }

  acme::Interpreter& interpreter() { return interpreter_; }

 private:
  /// A committed plan in flight (or scheduled to start after the decision
  /// + query charge).
  struct ActiveRepair {
    std::size_t idx = 0;        ///< records_ index
    double observed = 0.0;      ///< severity of the repaired violation
    AdaptationPlan plan;
    std::vector<util::Symbol> touched;  ///< elements the plan acts on
    sim::EventHandle pre_event;         ///< pending start (decision charge)
  };

  void execute(const Violation& violation);
  // Plan pipeline.
  void start_plan(std::size_t idx);
  void finish_plan(std::size_t idx);
  void fail_plan(std::size_t idx, std::size_t step, const std::string& reason,
                 SimTime compensation_cost);
  void preempt_active(const std::string& reason);
  /// Fold the executor's per-plan retry/timeout counters into the record
  /// and the engine totals (called on every plan outcome).
  void note_fault_stats(RepairRecord& record);
  /// Shared bookkeeping for an in-flight plan abort (runtime failure,
  /// preemption): flags, stats, busy. `cooldown` applies the abort
  /// cooldown — preemption skips it, because the displaced repair was
  /// viable and should retry once the engine frees up (the strictly-worse
  /// factor already prevents the two repairs from thrashing).
  void abort_in_flight(std::size_t idx, const std::string& reason,
                       SimTime completed_at, bool cooldown);
  /// Replay the inverse of `journal` (newest first) through a fresh
  /// transaction, returning the model to its pre-plan state. `idx` is the
  /// repair whose plan is being compensated (journal tagging).
  void revert_model(const std::vector<model::OpRecord>& journal,
                    std::size_t idx);
  void journal_plan_event(util::Symbol phase, std::size_t idx,
                          std::size_t steps);
  bool touched_by_active(util::Symbol element) const;
  void summarize_ops(const std::vector<model::OpRecord>& op_records,
                     RepairRecord& record) const;

  sim::Simulator& sim_;
  model::System& root_;
  const acme::Script& script_;
  RuntimeQueries* queries_;
  Translator* translator_;
  monitor::GaugeManager* gauges_;
  RepairEngineConfig config_;
  StyleConventions conventions_;
  acme::Interpreter interpreter_;
  /// Static operator footprints for the plan optimizer's effect-deps pass.
  acme::Vocabulary vocabulary_ = client_server_vocabulary(conventions_);
  ViolationChooser chooser_;
  durability::JournalSink* journal_sink_ = nullptr;
  std::uint32_t journal_shard_ = 0;

  bool busy_ = false;
  PlanExecutor executor_;
  std::optional<ActiveRepair> active_;
  /// Extra enactment delay charged to the next repair started this instant
  /// — set by preempt_active to the compensation cost, so a challenger's
  /// plan waits for the displaced plan's inverse ops to clear the runtime.
  SimTime pending_start_delay_;
  util::SymbolMap<SimTime> settle_until_;    // element -> time
  util::SymbolMap<SimTime> cooldown_until_;  // constraint -> time
  std::vector<RepairRecord> records_;
  std::vector<std::pair<SimTime, SimTime>> windows_;
  RepairStats stats_;
};

}  // namespace arcadia::repair
