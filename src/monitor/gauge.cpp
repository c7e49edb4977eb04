#include "monitor/gauge.hpp"

#include "monitor/topics.hpp"

namespace arcadia::monitor {

SlidingWindowGauge::SlidingWindowGauge(sim::Simulator& sim, GaugeSpec spec,
                                       events::Filter filter,
                                       util::Symbol value_attr, SimTime window,
                                       SimTime max_staleness)
    : Gauge(sim, std::move(spec)),
      filter_(std::move(filter)),
      value_attr_(value_attr),
      window_(window),
      max_staleness_(max_staleness) {}

void SlidingWindowGauge::consume(const events::Notification& n) {
  const events::Value* v = n.get_if(value_attr_);
  if (!v || !v->is_numeric()) return;
  samples_.push_back({sim_.now(), v->as_double()});
  last_sample_time_ = sim_.now();
  // Track the newest observation so read() can hold a value through short
  // probe silences even if it never ran while the window was populated.
  last_value_ = v->as_double();
  evict();
}

void SlidingWindowGauge::evict() {
  const SimTime cutoff = sim_.now() - window_;
  while (!samples_.empty() && samples_.front().first < cutoff) {
    samples_.pop_front();
  }
}

std::optional<double> SlidingWindowGauge::read() {
  evict();
  if (!samples_.empty()) {
    double sum = 0.0;
    for (std::size_t i = 0; i < samples_.size(); ++i) sum += samples_[i].second;
    last_value_ = sum / static_cast<double>(samples_.size());
    return last_value_;
  }
  // No samples in the window: hold the last value briefly.
  if (last_value_ && sim_.now() - last_sample_time_ <= max_staleness_) {
    return last_value_;
  }
  return std::nullopt;
}

void SlidingWindowGauge::skipped_reads(SimTime first, SimTime last,
                                       SimTime period) {
  // A read leaves behind only the mean it computed, and only until the next
  // consume overwrites it; and windows only shrink once samples stop. So
  // the one skipped read that counts is the newest one at or after the
  // newest sample whose window still reaches back to that sample.
  if (samples_.empty() || last_sample_time_ > last) return;
  SimTime at = last;
  if (at - window_ > last_sample_time_) {
    const std::int64_t p = period.as_micros();
    const std::int64_t reach =
        (last_sample_time_ + window_ - first).as_micros();
    if (reach < 0) return;
    at = first + SimTime::micros(reach / p * p);
  }
  if (at < last_sample_time_) return;
  // The samples that read() at `at` would have averaged: a time-ordered
  // suffix of the ring, summed in read()'s order. Nothing after `at` has
  // been consumed, and nothing evicted since was inside its window.
  const SimTime cutoff = at - window_;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (samples_[i].first < cutoff) continue;
    sum += samples_[i].second;
    ++n;
  }
  if (n > 0) last_value_ = sum / static_cast<double>(n);
}

void SlidingWindowGauge::reset() {
  samples_.clear();
  last_value_.reset();
}

EwmaGauge::EwmaGauge(sim::Simulator& sim, GaugeSpec spec, events::Filter filter,
                     util::Symbol value_attr, double alpha)
    : Gauge(sim, std::move(spec)),
      filter_(std::move(filter)),
      value_attr_(value_attr),
      ewma_(alpha) {}

void EwmaGauge::consume(const events::Notification& n) {
  const events::Value* v = n.get_if(value_attr_);
  if (!v || !v->is_numeric()) return;
  ewma_.add(v->as_double());
}

std::optional<double> EwmaGauge::read() {
  if (!ewma_.initialized()) return std::nullopt;
  return ewma_.value();
}

void EwmaGauge::reset() { ewma_.reset(); }

LatestValueGauge::LatestValueGauge(sim::Simulator& sim, GaugeSpec spec,
                                   events::Filter filter,
                                   util::Symbol value_attr)
    : Gauge(sim, std::move(spec)),
      filter_(std::move(filter)),
      value_attr_(value_attr) {}

void LatestValueGauge::consume(const events::Notification& n) {
  const events::Value* v = n.get_if(value_attr_);
  if (!v || !v->is_numeric()) return;
  latest_ = v->as_double();
}

std::optional<double> LatestValueGauge::read() { return latest_; }

void LatestValueGauge::reset() { latest_.reset(); }

std::unique_ptr<Gauge> make_latency_gauge(sim::Simulator& sim,
                                          const std::string& client,
                                          sim::NodeId host, SimTime window) {
  GaugeSpec spec;
  spec.id = util::Symbol::intern("latency:" + client);
  spec.element = util::Symbol::intern(client);
  spec.property = util::Symbol::intern("averageLatency");
  spec.host_node = host;
  auto filter = events::Filter::keyed(topics::kProbeLatencySym,
                                      topics::kAttrClientSym, spec.element);
  return std::make_unique<SlidingWindowGauge>(
      sim, std::move(spec), std::move(filter), topics::kAttrValueSym, window,
      window * 2.0);
}

std::unique_ptr<Gauge> make_load_gauge(sim::Simulator& sim,
                                       const std::string& group,
                                       sim::NodeId host, SimTime window) {
  GaugeSpec spec;
  spec.id = util::Symbol::intern("load:" + group);
  spec.element = util::Symbol::intern(group);
  spec.property = util::Symbol::intern("load");
  spec.host_node = host;
  auto filter = events::Filter::keyed(topics::kProbeQueueSym,
                                      topics::kAttrGroupSym, spec.element);
  return std::make_unique<SlidingWindowGauge>(
      sim, std::move(spec), std::move(filter), topics::kAttrValueSym, window,
      window * 2.0);
}

std::unique_ptr<Gauge> make_bandwidth_gauge(sim::Simulator& sim,
                                            const std::string& client,
                                            const std::string& role_element,
                                            sim::NodeId host) {
  GaugeSpec spec;
  spec.id = util::Symbol::intern("bandwidth:" + client);
  spec.element = util::Symbol::intern(role_element);
  spec.property = util::Symbol::intern("bandwidth");
  spec.host_node = host;
  auto filter =
      events::Filter::keyed(topics::kProbeBandwidthSym, topics::kAttrClientSym,
                            util::Symbol::intern(client));
  return std::make_unique<LatestValueGauge>(sim, std::move(spec),
                                            std::move(filter),
                                            topics::kAttrValueSym);
}

std::unique_ptr<Gauge> make_utilization_gauge(sim::Simulator& sim,
                                              const std::string& group,
                                              sim::NodeId host, double alpha) {
  GaugeSpec spec;
  spec.id = util::Symbol::intern("utilization:" + group);
  spec.element = util::Symbol::intern(group);
  spec.property = util::Symbol::intern("utilization");
  spec.host_node = host;
  auto filter = events::Filter::keyed(topics::kProbeUtilizationSym,
                                      topics::kAttrGroupSym, spec.element);
  return std::make_unique<EwmaGauge>(sim, std::move(spec), std::move(filter),
                                     topics::kAttrValueSym, alpha);
}

}  // namespace arcadia::monitor
