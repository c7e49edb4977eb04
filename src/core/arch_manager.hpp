// The architecture manager (Figure 1, item 4) as one model shard: folds
// gauge values into the architectural model's properties, holds verdicts on
// suspect monitoring evidence, detects constraint violations, and hands them
// to the repair engine. It subscribes to nothing and schedules nothing: the
// loop around it — gauge and lifecycle subscriptions, the periodic check —
// is a core::FleetManager, one-shard for a solo Framework.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "durability/sink.hpp"
#include "events/notification.hpp"
#include "model/system.hpp"
#include "repair/constraint.hpp"
#include "repair/engine.hpp"
#include "sim/simulator.hpp"

namespace arcadia::core {

struct ArchManagerStats {
  std::uint64_t checks = 0;  ///< detect() calls
  /// Gauge-liveness bookkeeping: elements entering / leaving the suspect
  /// state (watchdog "suspect"/"cleared" lifecycle events, refcounted per
  /// element across its gauges).
  std::uint64_t elements_suspected = 0;
  std::uint64_t elements_cleared = 0;
  /// Real (host) wall-clock spent in detect(): constraint evaluation. Not
  /// simulated time.
  double check_wall_s = 0.0;
  /// Real (host) wall-clock spent in dispatch(): strategy selection and
  /// execution (RepairEngine::handle_violations).
  double dispatch_wall_s = 0.0;
};

class ArchitectureManager {
 public:
  /// The checker is owned by the manager; the engine is shared with the
  /// framework. `sim` stamps journaled gauge folds.
  ArchitectureManager(sim::Simulator& sim, model::System& system,
                      repair::RepairEngine& engine);

  ArchitectureManager(const ArchitectureManager&) = delete;
  ArchitectureManager& operator=(const ArchitectureManager&) = delete;

  repair::ConstraintChecker& checker() { return checker_; }
  const ArchManagerStats& stats() const { return stats_; }

  /// Optional write-ahead journal sink: every Applied gauge fold is
  /// reported (batched by the durability plane). Null = durability off.
  void set_journal_sink(durability::JournalSink* sink, std::uint32_t shard) {
    journal_sink_ = sink;
    journal_shard_ = shard;
  }

  /// Split a gauge address into its element and role — the single source
  /// of truth for the "Component" / "Connector.role" convention, used by the
  /// FleetManager's report sink: "Component" gives (Component, empty),
  /// "Connector.role" gives (Connector, role). False for an empty address or
  /// a half-empty "X." / ".r".
  static bool parse_gauge_address(util::Symbol address, util::Symbol& element,
                                  util::Symbol& role);

  /// Parse a gauge lifecycle notification's element + phase attributes
  /// (the FleetManager's per-shard liveness sink). False when absent.
  static bool parse_gauge_lifecycle(const events::Notification& n,
                                    util::Symbol& element,
                                    util::Symbol& phase);

  /// Fold one gauge-liveness transition into the checker's verdict holds.
  /// Refcounted per element: an element with several gauges stays suspect
  /// until every stale gauge has cleared.
  void note_gauge_liveness(util::Symbol element, bool suspect);

  /// Outcome of folding one gauge value into the model.
  enum class GaugeApply {
    Applied,    ///< the property was written (value changed)
    Unchanged,  ///< dead-band: the report repeats the current value, so the
                ///  model is untouched — no stamp bump, so the checker's
                ///  memo stays valid, and no journal record
    NoTarget,   ///< the element does not exist in this model
  };

  /// Pre-parsed fast path (the FleetManager's report sink): `element` is a
  /// component, or a connector when `role` is non-empty. Reports whose
  /// value matches the current property within the monitoring noise floor
  /// (1e-5 absolute / 1e-9 relative) are Unchanged — gauges re-publish
  /// steady values forever, and re-stamping the element for them would
  /// force constraint re-evaluation that provably cannot change a verdict.
  GaugeApply apply_gauge_value(util::Symbol element, util::Symbol role,
                               util::Symbol property,
                               const events::Value& value);

  // ---- the two halves of a check, split so a FleetManager can run
  //      detection for many shards in parallel and dispatch afterwards in
  //      deterministic shard order ----

  /// Evaluate the constraints (incremental) and return current violations.
  /// Read-only on the model; safe to run concurrently with other shards'
  /// detect() — never with anything that mutates this shard.
  std::vector<repair::Violation> detect();
  /// Hand violations to the repair engine. Mutates the model (must run on
  /// the simulation thread, in shard order). Detection and dispatch keep
  /// running while a plan enacts — the engine declines while busy unless a
  /// strictly worse violation preempts it.
  void dispatch(const std::vector<repair::Violation>& violations);

 private:
  sim::Simulator& sim_;
  model::System& system_;
  repair::RepairEngine& engine_;
  repair::ConstraintChecker checker_;
  durability::JournalSink* journal_sink_ = nullptr;
  std::uint32_t journal_shard_ = 0;
  ArchManagerStats stats_;
  /// Per-element count of currently-suspect gauges.
  util::SymbolMap<int> suspect_refs_;
};

}  // namespace arcadia::core
