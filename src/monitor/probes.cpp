#include "monitor/probes.hpp"

#include "monitor/topics.hpp"

namespace arcadia::monitor {

LatencyProbe::LatencyProbe(sim::Simulator& sim, sim::GridApp& app,
                           events::EventBus& bus, SimTime stall_check_period,
                           SimTime stall_threshold)
    : Probe("probe:latency"),
      sim_(sim),
      app_(app),
      bus_(bus),
      stall_check_period_(stall_check_period),
      stall_threshold_(stall_threshold) {}

LatencyProbe::~LatencyProbe() { stop(); }

void LatencyProbe::publish_latency(sim::ClientIdx client, double seconds) {
  events::Notification n(topics::kProbeLatencySym);
  n.set(topics::kAttrClientSym,
        client_syms_.get(client, app_.client_name(client)))
      .set(topics::kAttrValueSym, seconds);
  n.source_node = app_.client_node(client);
  n.wire_size = DataSize::bytes(256);
  bus_.publish(std::move(n));
}

void LatencyProbe::start() {
  running_ = true;
  if (!installed_) {
    chained_ = app_.on_response;
    app_.on_response = [this](const sim::Request& req) {
      if (running_) publish_latency(req.client, req.latency().as_seconds());
      if (chained_) chained_(req);
    };
    installed_ = true;
  }
  stall_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + stall_check_period_, stall_check_period_, [this] {
        for (sim::ClientIdx c = 0;
             c < static_cast<sim::ClientIdx>(app_.client_count()); ++c) {
          SimTime age = app_.oldest_outstanding_age(c);
          if (age >= stall_threshold_) {
            publish_latency(c, age.as_seconds());
          }
        }
        return true;
      });
}

void LatencyProbe::stop() {
  running_ = false;
  stall_task_.reset();
}

QueueLengthProbe::QueueLengthProbe(sim::Simulator& sim, sim::GridApp& app,
                                   events::EventBus& bus, SimTime period)
    : Probe("probe:queue"), sim_(sim), app_(app), bus_(bus), period_(period) {}

void QueueLengthProbe::start() {
  running_ = true;
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + period_, period_, [this] {
        for (sim::GroupIdx g = 0;
             g < static_cast<sim::GroupIdx>(app_.group_count()); ++g) {
          events::Notification n(topics::kProbeQueueSym);
          n.set(topics::kAttrGroupSym,
                group_syms_.get(g, app_.group_name(g)))
              .set(topics::kAttrValueSym,
                   static_cast<std::int64_t>(app_.queue_length(g)));
          n.source_node = app_.queue_node();
          n.wire_size = DataSize::bytes(128);
          bus_.publish(std::move(n));
        }
        return true;
      });
}

void QueueLengthProbe::stop() {
  running_ = false;
  task_.reset();
}

UtilizationProbe::UtilizationProbe(sim::Simulator& sim, sim::GridApp& app,
                                   events::EventBus& bus, SimTime period)
    : Probe("probe:utilization"), sim_(sim), app_(app), bus_(bus),
      period_(period) {}

void UtilizationProbe::start() {
  running_ = true;
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + period_, period_, [this] {
        for (sim::GroupIdx g = 0;
             g < static_cast<sim::GroupIdx>(app_.group_count()); ++g) {
          events::Notification n(topics::kProbeUtilizationSym);
          n.set(topics::kAttrGroupSym,
                group_syms_.get(g, app_.group_name(g)))
              .set(topics::kAttrValueSym, app_.group_utilization(g));
          n.source_node = app_.queue_node();
          n.wire_size = DataSize::bytes(128);
          bus_.publish(std::move(n));
        }
        return true;
      });
}

void UtilizationProbe::stop() {
  running_ = false;
  task_.reset();
}

BandwidthProbe::BandwidthProbe(sim::Simulator& sim, sim::GridApp& app,
                               remos::RemosService& remos,
                               events::EventBus& bus, SimTime period)
    : Probe("probe:bandwidth"), sim_(sim), app_(app), remos_(remos), bus_(bus),
      period_(period) {}

void BandwidthProbe::start() {
  running_ = true;
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + period_, period_, [this] {
        for (sim::ClientIdx c = 0;
             c < static_cast<sim::ClientIdx>(app_.client_count()); ++c) {
          sim::GroupIdx g = app_.client_group(c);
          if (g == sim::kNoGroup) continue;
          Bandwidth bw =
              remos_.get_flow(app_.group_node(g), app_.client_node(c));
          events::Notification n(topics::kProbeBandwidthSym);
          n.set(topics::kAttrClientSym,
                client_syms_.get(c, app_.client_name(c)))
              .set(topics::kAttrGroupSym,
                   group_syms_.get(g, app_.group_name(g)))
              .set(topics::kAttrValueSym, bw.as_bps());
          n.source_node = app_.client_node(c);
          n.wire_size = DataSize::bytes(128);
          bus_.publish(std::move(n));
        }
        return true;
      });
}

void BandwidthProbe::stop() {
  running_ = false;
  task_.reset();
}

ProbeSet make_standard_probes(sim::Simulator& sim, sim::GridApp& app,
                              remos::RemosService& remos,
                              events::EventBus& probe_bus,
                              SimTime sample_period) {
  ProbeSet set;
  set.probes.push_back(std::make_unique<LatencyProbe>(sim, app, probe_bus));
  set.probes.push_back(
      std::make_unique<QueueLengthProbe>(sim, app, probe_bus, sample_period));
  set.probes.push_back(
      std::make_unique<UtilizationProbe>(sim, app, probe_bus, sample_period));
  set.probes.push_back(std::make_unique<BandwidthProbe>(
      sim, app, remos, probe_bus, sample_period));
  return set;
}

}  // namespace arcadia::monitor
