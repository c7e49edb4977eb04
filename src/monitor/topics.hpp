// Well-known bus topics and attribute names for the monitoring stack
// (Figure 4). Each bus has one consumer: probes publish observations on the
// probe bus for the gauges; gauges publish interpreted model properties on
// the gauge reporting bus, and the gauge manager publishes lifecycle
// messages there per the gauge protocol, both for the fleet manager. Only
// the loop's own traffic travels on the buses — repair-plan phases are
// journaled (durability::JournalSink::on_plan_event) and tenant health is
// read through FleetManager::shard_health() and its counters.
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

// Gauge reporting bus.
inline constexpr const char* kGaugeReport = "gauge.report";
inline constexpr const char* kGaugeLifecycle = "gauge.lifecycle";

// Common attribute names.
inline constexpr const char* kAttrElement = "element";    // model element
inline constexpr const char* kAttrProperty = "property";  // model property
inline constexpr const char* kAttrValue = "value";
inline constexpr const char* kAttrGaugeId = "gauge";
inline constexpr const char* kAttrClient = "client";
inline constexpr const char* kAttrGroup = "group";
inline constexpr const char* kAttrPhase = "phase";  // lifecycle: created/deleted

// Interned counterparts (interning is idempotent and thread-safe; these
// initialize once at startup).
inline const util::Symbol kProbeLatencySym = util::Symbol::intern(kProbeLatency);
inline const util::Symbol kProbeQueueSym = util::Symbol::intern(kProbeQueue);
inline const util::Symbol kProbeBandwidthSym =
    util::Symbol::intern(kProbeBandwidth);
inline const util::Symbol kProbeUtilizationSym =
    util::Symbol::intern(kProbeUtilization);

inline const util::Symbol kGaugeReportSym = util::Symbol::intern(kGaugeReport);
inline const util::Symbol kGaugeLifecycleSym =
    util::Symbol::intern(kGaugeLifecycle);

inline const util::Symbol kAttrElementSym = util::Symbol::intern(kAttrElement);
inline const util::Symbol kAttrPropertySym = util::Symbol::intern(kAttrProperty);
inline const util::Symbol kAttrValueSym = util::Symbol::intern(kAttrValue);
inline const util::Symbol kAttrGaugeIdSym = util::Symbol::intern(kAttrGaugeId);
inline const util::Symbol kAttrClientSym = util::Symbol::intern(kAttrClient);
inline const util::Symbol kAttrGroupSym = util::Symbol::intern(kAttrGroup);
inline const util::Symbol kAttrPhaseSym = util::Symbol::intern(kAttrPhase);

// Lifecycle phase values.
inline const util::Symbol kPhaseCreated = util::Symbol::intern("created");
inline const util::Symbol kPhaseDeleted = util::Symbol::intern("deleted");
inline const util::Symbol kPhaseRelocating = util::Symbol::intern("relocating");
// Gauge-liveness watchdog phases: a live gauge whose channel has gone
// silent past the staleness threshold is marked suspect; the next report
// that gets through clears it.
inline const util::Symbol kPhaseSuspect = util::Symbol::intern("suspect");
inline const util::Symbol kPhaseCleared = util::Symbol::intern("cleared");

// Repair-plan phase values (the phase text of journaled PlanEvent records).
inline const util::Symbol kPhasePlanStarted = util::Symbol::intern("plan-started");
inline const util::Symbol kPhasePlanCompleted =
    util::Symbol::intern("plan-completed");
inline const util::Symbol kPhasePlanPreempted =
    util::Symbol::intern("plan-preempted");
inline const util::Symbol kPhasePlanFailed = util::Symbol::intern("plan-failed");

}  // namespace arcadia::monitor::topics
