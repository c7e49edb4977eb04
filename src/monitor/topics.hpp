// Well-known bus topics and attribute names for the monitoring stack
// (Figure 4): probes publish observations on the probe bus; gauges publish
// interpreted model properties on the gauge reporting bus; the gauge
// manager publishes lifecycle messages per the gauge protocol.
//
// Each name exists twice: the raw string (stable external spelling, used
// in docs/logs and by call sites that still build filters from strings)
// and a pre-interned util::Symbol (the hot-path identity — publishers and
// consumers route on these without ever re-hashing the text).
#pragma once

#include "util/symbol.hpp"

namespace arcadia::monitor::topics {

// Probe bus.
inline constexpr const char* kProbeLatency = "probe.latency";
inline constexpr const char* kProbeQueue = "probe.queue";
inline constexpr const char* kProbeBandwidth = "probe.bandwidth";
inline constexpr const char* kProbeUtilization = "probe.utilization";
inline constexpr const char* kProbeMethodCall = "probe.method_call";

// Gauge reporting bus.
inline constexpr const char* kGaugeReport = "gauge.report";
inline constexpr const char* kGaugeLifecycle = "gauge.lifecycle";

// Repair-plan lifecycle (published by the repair engine when a bus is
// wired; for tools observing repairs in flight).
inline constexpr const char* kRepairPlan = "repair.plan";

// Per-tenant health transitions (published by the fleet manager's health
// state machine: healthy -> degraded -> quarantined -> recovering).
inline constexpr const char* kFleetHealth = "fleet.health";

// Common attribute names.
inline constexpr const char* kAttrElement = "element";    // model element
inline constexpr const char* kAttrProperty = "property";  // model property
inline constexpr const char* kAttrValue = "value";
inline constexpr const char* kAttrGaugeId = "gauge";
inline constexpr const char* kAttrClient = "client";
inline constexpr const char* kAttrGroup = "group";
inline constexpr const char* kAttrPhase = "phase";  // lifecycle: created/deleted
inline constexpr const char* kAttrRepair = "repair";  // repair record id
inline constexpr const char* kAttrSteps = "steps";  // total plan step count
                                                    // (same on every phase)
inline constexpr const char* kAttrShard = "shard";  // fleet tenant name
inline constexpr const char* kAttrState = "state";  // health state value

// Interned counterparts (interning is idempotent and thread-safe; these
// initialize once at startup).
inline const util::Symbol kProbeLatencySym = util::Symbol::intern(kProbeLatency);
inline const util::Symbol kProbeQueueSym = util::Symbol::intern(kProbeQueue);
inline const util::Symbol kProbeBandwidthSym =
    util::Symbol::intern(kProbeBandwidth);
inline const util::Symbol kProbeUtilizationSym =
    util::Symbol::intern(kProbeUtilization);
inline const util::Symbol kProbeMethodCallSym =
    util::Symbol::intern(kProbeMethodCall);

inline const util::Symbol kGaugeReportSym = util::Symbol::intern(kGaugeReport);
inline const util::Symbol kGaugeLifecycleSym =
    util::Symbol::intern(kGaugeLifecycle);
inline const util::Symbol kRepairPlanSym = util::Symbol::intern(kRepairPlan);
inline const util::Symbol kFleetHealthSym = util::Symbol::intern(kFleetHealth);

inline const util::Symbol kAttrElementSym = util::Symbol::intern(kAttrElement);
inline const util::Symbol kAttrPropertySym = util::Symbol::intern(kAttrProperty);
inline const util::Symbol kAttrValueSym = util::Symbol::intern(kAttrValue);
inline const util::Symbol kAttrGaugeIdSym = util::Symbol::intern(kAttrGaugeId);
inline const util::Symbol kAttrClientSym = util::Symbol::intern(kAttrClient);
inline const util::Symbol kAttrGroupSym = util::Symbol::intern(kAttrGroup);
inline const util::Symbol kAttrPhaseSym = util::Symbol::intern(kAttrPhase);
inline const util::Symbol kAttrRepairSym = util::Symbol::intern(kAttrRepair);
inline const util::Symbol kAttrStepsSym = util::Symbol::intern(kAttrSteps);
inline const util::Symbol kAttrShardSym = util::Symbol::intern(kAttrShard);
inline const util::Symbol kAttrStateSym = util::Symbol::intern(kAttrState);

// Lifecycle phase values.
inline const util::Symbol kPhaseCreated = util::Symbol::intern("created");
inline const util::Symbol kPhaseDeleted = util::Symbol::intern("deleted");
inline const util::Symbol kPhaseRelocating = util::Symbol::intern("relocating");
// Gauge-liveness watchdog phases: a live gauge whose channel has gone
// silent past the staleness threshold is marked suspect; the next report
// that gets through clears it.
inline const util::Symbol kPhaseSuspect = util::Symbol::intern("suspect");
inline const util::Symbol kPhaseCleared = util::Symbol::intern("cleared");

// Repair-plan phase values.
inline const util::Symbol kPhasePlanStarted = util::Symbol::intern("plan-started");
inline const util::Symbol kPhasePlanCompleted =
    util::Symbol::intern("plan-completed");
inline const util::Symbol kPhasePlanPreempted =
    util::Symbol::intern("plan-preempted");
inline const util::Symbol kPhasePlanFailed = util::Symbol::intern("plan-failed");

// Fleet health-state values (kAttrState on kFleetHealth notifications).
inline const util::Symbol kStateHealthy = util::Symbol::intern("healthy");
inline const util::Symbol kStateDegraded = util::Symbol::intern("degraded");
inline const util::Symbol kStateQuarantined =
    util::Symbol::intern("quarantined");
inline const util::Symbol kStateRecovering = util::Symbol::intern("recovering");

}  // namespace arcadia::monitor::topics
