#include "monitor/gauge_manager.hpp"

#include <algorithm>

#include "fault/fault_plane.hpp"
#include "monitor/topics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace arcadia::monitor {

namespace {

/// Floor and ceiling of a / b for b > 0, rounding toward -inf / +inf.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return -floor_div(-a, b);
}

}  // namespace

SimTime next_demanded_tick(SimTime origin, SimTime period, SimTime from,
                           const ReadSchedule& reads, SimTime delay) {
  const std::int64_t p = period.as_micros();
  const std::int64_t o = origin.as_micros();
  // The first tick at or after `from`; the grid starts one period in.
  const std::int64_t k = std::max<std::int64_t>(
      1, ceil_div(from.as_micros() - o, p));
  const std::int64_t tick = o + k * p;
  // The first read whose deadline S_j - delay is not before that tick. The
  // newest tick by that deadline is the one it demands; every earlier
  // read's deadline, and so its demanded tick, lies before `tick`.
  const std::int64_t c = reads.period.as_micros();
  const std::int64_t first_deadline = (reads.first - delay).as_micros();
  const std::int64_t j =
      std::max<std::int64_t>(0, ceil_div(tick - first_deadline, c));
  const std::int64_t deadline = first_deadline + j * c;
  return SimTime::micros(o + floor_div(deadline - o, p) * p);
}

GaugeManager::GaugeManager(sim::Simulator& sim, events::EventBus& probe_bus,
                           events::EventBus& gauge_bus,
                           GaugeManagerConfig config)
    : sim_(sim), probe_bus_(probe_bus), gauge_bus_(gauge_bus), config_(config) {
  if (config_.watchdog_period > SimTime::zero()) {
    watchdog_ = std::make_unique<sim::PeriodicTask>(
        sim_, sim_.now() + config_.watchdog_period, config_.watchdog_period,
        [this]() {
          scan_liveness();
          return true;
        });
  }
}

GaugeManager::~GaugeManager() {
  for (auto& entry : gauges_) take_offline(entry.value);
}

std::string GaugeManager::deploy(std::unique_ptr<Gauge> gauge,
                                 std::function<void()> on_live) {
  serial_.check();
  const util::Symbol id = gauge->spec().id;
  if (gauges_.contains(id)) {
    throw Error("gauge already deployed: " + id.str());
  }
  Managed m;
  m.gauge = std::move(gauge);
  gauges_.insert_or_assign(id, std::move(m));
  sim_.schedule_in(config_.create_cost, [this, id, on_live] {
    go_live(id, on_live);
  });
  return id.str();
}

void GaugeManager::set_read_schedule(ReadSchedule reads,
                                     SimTime delivery_delay) {
  serial_.check();
  if (reads.period <= SimTime::zero() ||
      config_.report_period <= SimTime::zero() ||
      delivery_delay < SimTime::zero()) {
    throw Error("set_read_schedule: read and report periods must be positive"
                " and the delivery delay non-negative");
  }
  for (const auto& entry : gauges_) {
    if (entry.value.live) {
      throw Error("set_read_schedule: gauge " + entry.key.str() +
                  " is already reporting");
    }
  }
  reads_ = reads;
  delivery_delay_ = delivery_delay;
}

void GaugeManager::arm_report(util::Symbol id, Managed& m, SimTime from) {
  const SimTime at = reads_ ? next_demanded_tick(m.online_at,
                                                 config_.report_period, from,
                                                 *reads_, delivery_delay_)
                           : from;
  m.reporter = sim_.schedule_at(at, [this, id] { on_tick(id); });
}

void GaugeManager::catch_up(Managed& m, SimTime until) {
  if (!reads_) return;
  const std::int64_t p = config_.report_period.as_micros();
  const SimTime first = m.last_read + config_.report_period;
  if (first >= until) return;
  // The newest tick before `until`.
  const SimTime last =
      first + SimTime::micros(((until - first).as_micros() - 1) / p * p);
  m.gauge->skipped_reads(first, last, config_.report_period);
}

void GaugeManager::on_tick(util::Symbol id) {
  Managed* m = gauges_.find(id);
  if (!m || !m->live) return;
  catch_up(*m, sim_.now());
  m->last_read = sim_.now();
  report(*m);
  arm_report(id, *m, sim_.now() + config_.report_period);
}

void GaugeManager::bring_online(util::Symbol id, Managed& m) {
  Gauge* g = m.gauge.get();
  m.probe_sub = probe_bus_.subscribe(
      g->probe_filter(), [g](const events::Notification& n) { g->consume(n); },
      g->spec().host_node);
  m.online_at = sim_.now();
  m.last_read = sim_.now();
  arm_report(id, m, sim_.now() + config_.report_period);
  m.live = true;
  // Deployment counts as a heartbeat: a gauge is not stale until it has
  // had stale_after of silence from this moment.
  m.last_report = sim_.now();
}

void GaugeManager::go_live(util::Symbol id, std::function<void()> on_live) {
  Managed* m = gauges_.find(id);
  if (!m) return;  // destroyed while being created
  bring_online(id, *m);
  publish_lifecycle(id, m->gauge->spec().element, topics::kPhaseCreated);
  if (on_live) on_live();
}

void GaugeManager::report(Managed& m) {
  std::optional<double> value = m.gauge->read();
  if (!value) return;
  const GaugeSpec& spec = m.gauge->spec();
  // Channel-disconnect injection: a down channel silently eats the report
  // at the source, which is exactly the staleness the watchdog exists to
  // catch. last_report is *not* advanced.
  if (plane_ && plane_->channel_down(spec.id)) {
    ++stats_.reports_suppressed;
    return;
  }
  m.last_report = sim_.now();
  if (m.suspect) {
    m.suspect = false;
    ++stats_.suspects_cleared;
    publish_lifecycle(spec.id, spec.element, topics::kPhaseCleared);
  }
  // Symbols and a double end to end: the busiest notification in the
  // system carries no owned strings and allocates nothing to build.
  events::Notification n(topics::kGaugeReportSym);
  n.set(topics::kAttrGaugeIdSym, spec.id)
      .set(topics::kAttrElementSym, spec.element)
      .set(topics::kAttrPropertySym, spec.property)
      .set(topics::kAttrValueSym, *value);
  n.source_node = spec.host_node;
  n.wire_size = DataSize::bytes(512);
  ++stats_.reports;
  gauge_bus_.publish(std::move(n));
}

void GaugeManager::take_offline(Managed& m) {
  // A relocated gauge keeps its state: bring it up to date first.
  if (m.live) catch_up(m, sim_.now());
  if (m.probe_sub != 0) {
    probe_bus_.unsubscribe(m.probe_sub);
    m.probe_sub = 0;
  }
  m.reporter.cancel();
  m.live = false;
}

void GaugeManager::destroy(const std::string& gauge_id,
                           std::function<void()> on_done) {
  destroy(util::Symbol::intern(gauge_id), std::move(on_done));
}

void GaugeManager::destroy(util::Symbol gauge_id,
                           std::function<void()> on_done) {
  serial_.check();
  Managed* m = gauges_.find(gauge_id);
  if (!m) throw Error("destroy: unknown gauge " + gauge_id.str());
  const util::Symbol element = m->gauge->spec().element;
  // A suspect gauge leaving the fleet must clear its mark first, or the
  // element's suspect refcount (and the checker's verdict hold) would
  // leak past the gauge's lifetime.
  if (m->suspect) {
    m->suspect = false;
    ++stats_.suspects_cleared;
    publish_lifecycle(gauge_id, element, topics::kPhaseCleared);
  }
  take_offline(*m);
  gauges_.erase(gauge_id);
  publish_lifecycle(gauge_id, element, topics::kPhaseDeleted);
  sim_.schedule_in(config_.destroy_cost, [on_done] {
    if (on_done) on_done();
  });
}

void GaugeManager::publish_lifecycle(util::Symbol id, util::Symbol element,
                                     util::Symbol phase) {
  events::Notification n(topics::kGaugeLifecycleSym);
  n.set(topics::kAttrGaugeIdSym, id)
      .set(topics::kAttrElementSym, element)
      .set(topics::kAttrPhaseSym, phase);
  n.wire_size = DataSize::bytes(256);
  gauge_bus_.publish(std::move(n));
}

void GaugeManager::scan_liveness() {
  for (auto& entry : gauges_) {
    Managed& m = entry.value;
    if (!m.live || m.suspect) continue;
    if (sim_.now() - m.last_report > config_.stale_after) {
      m.suspect = true;
      ++stats_.suspects_marked;
      publish_lifecycle(entry.key, m.gauge->spec().element,
                        topics::kPhaseSuspect);
    }
  }
}

void GaugeManager::crash(SimTime duration) {
  serial_.check();
  if (!plane_) return;
  const SimTime until = sim_.now() + duration;
  for (auto& entry : gauges_) {
    plane_->force_channel_down(entry.key, until);
  }
  plane_->count_tenant_crash();
  ARC_WARN << "tenant crash injected: " << gauges_.size()
           << " gauge channels dark for " << duration.as_seconds() << "s";
}

std::vector<util::Symbol> GaugeManager::gauge_ids_for(
    util::Symbol element) const {
  std::vector<util::Symbol> out;
  for (const auto& entry : gauges_) {
    if (entry.value.gauge->spec().element_symbol() == element) {
      out.push_back(entry.key);
    }
  }
  return out;
}

std::vector<std::string> GaugeManager::gauges_for(
    const std::string& element) const {
  std::vector<std::string> out;
  for (util::Symbol id : gauge_ids_for(util::Symbol::intern(element))) {
    out.push_back(id.str());
  }
  return out;
}

std::vector<std::string> GaugeManager::all_elements() const {
  std::vector<std::string> out;
  for (const auto& entry : gauges_) {
    const std::string& el = entry.value.gauge->spec().element.str();
    if (std::find(out.begin(), out.end(), el) == out.end()) out.push_back(el);
  }
  return out;
}

std::vector<GaugeSpec> GaugeManager::specs() const {
  std::vector<GaugeSpec> out;
  out.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    out.push_back(entry.value.gauge->spec());
  }
  return out;
}

std::vector<GaugeManager::ChannelState> GaugeManager::snapshot_state() const {
  std::vector<ChannelState> out;
  out.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    ChannelState state;
    state.id = entry.key.str();
    state.live = entry.value.live;
    state.suspect = entry.value.suspect;
    state.last_report = entry.value.last_report;
    out.push_back(std::move(state));
  }
  return out;
}

bool GaugeManager::is_live(const std::string& gauge_id) const {
  return is_live(util::Symbol::intern(gauge_id));
}

bool GaugeManager::is_live(util::Symbol gauge_id) const {
  const Managed* m = gauges_.find(gauge_id);
  return m && m->live;
}

bool GaugeManager::is_suspect(const std::string& gauge_id) const {
  return is_suspect(util::Symbol::intern(gauge_id));
}

bool GaugeManager::is_suspect(util::Symbol gauge_id) const {
  const Managed* m = gauges_.find(gauge_id);
  return m && m->suspect;
}

std::size_t GaugeManager::suspect_count() const {
  std::size_t n = 0;
  for (const auto& entry : gauges_) {
    if (entry.value.suspect) ++n;
  }
  return n;
}

SimTime GaugeManager::redeploy_cost(const std::string& element) const {
  const std::size_t n =
      gauge_ids_for(util::Symbol::intern(element)).size();
  const SimTime per = config_.caching
                          ? config_.relocate_cost
                          : config_.destroy_cost + config_.create_cost;
  return per * static_cast<double>(n);
}

void GaugeManager::redeploy_elements(const std::vector<std::string>& elements,
                                     std::function<void()> on_done) {
  serial_.check();
  if (elements.empty()) {
    sim_.schedule_in(SimTime::zero(), [on_done] {
      if (on_done) on_done();
    });
    return;
  }
  // Per-element chains launch now and run concurrently; the shared counter
  // fires the completion when the slowest element finishes.
  auto remaining = std::make_shared<std::size_t>(elements.size());
  for (const std::string& element : elements) {
    redeploy_element(element, [remaining, on_done] {
      if (--*remaining == 0 && on_done) on_done();
    });
  }
}

void GaugeManager::redeploy_element(const std::string& element,
                                    std::function<void()> on_done) {
  serial_.check();
  std::vector<util::Symbol> ids =
      gauge_ids_for(util::Symbol::intern(element));
  ++stats_.redeploys;
  if (ids.empty()) {
    sim_.schedule_in(SimTime::zero(), [on_done] {
      if (on_done) on_done();
    });
    return;
  }
  // Shared by the completion callbacks, one per gauge; the last one to run
  // fires on_done.
  struct Pending {
    std::size_t callbacks;
    std::function<void()> on_done;
  };
  auto pending = std::make_shared<Pending>();
  pending->callbacks = ids.size();
  pending->on_done = std::move(on_done);
  // All of the element's gauges stop reporting now; they come back one by
  // one as the (sequential) lifecycle communication completes.
  SimTime cursor = SimTime::zero();
  for (util::Symbol id : ids) {
    Managed& m = *gauges_.find(id);
    take_offline(m);
    if (config_.caching) {
      cursor += config_.relocate_cost;
      // Relocation keeps accumulated state (the cache is the point).
    } else {
      m.gauge->reset();
      cursor += config_.destroy_cost + config_.create_cost;
    }
    publish_lifecycle(id, m.gauge->spec().element,
                      config_.caching ? topics::kPhaseRelocating
                                      : topics::kPhaseDeleted);
    sim_.schedule_in(cursor, [this, id, pending] {
      Managed* mm = gauges_.find(id);
      if (mm) {
        // Bring the gauge back online.
        bring_online(id, *mm);
        publish_lifecycle(id, mm->gauge->spec().element,
                          topics::kPhaseCreated);
      }
      // A gauge destroyed during the redeploy delay has nothing to bring
      // back — but the completion contract still holds: on_done fires
      // exactly once per redeploy, or a plan step (and the repair engine
      // behind it) would wait forever.
      if (--pending->callbacks == 0 && pending->on_done) pending->on_done();
    });
  }
}

}  // namespace arcadia::monitor
