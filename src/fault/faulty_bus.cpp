#include "fault/faulty_bus.hpp"

#include "monitor/topics.hpp"

namespace arcadia::fault {

bool FaultyBus::faultable_topic(util::Symbol topic) {
  using namespace monitor::topics;
  return topic == kGaugeReportSym || topic == kProbeLatencySym ||
         topic == kProbeQueueSym || topic == kProbeBandwidthSym ||
         topic == kProbeUtilizationSym;
}

void FaultyBus::publish(events::Notification n) {
  if (!faultable_topic(n.topic)) {
    inner_.publish(std::move(n));
    return;
  }
  const BusFault fault = plane_.next_report_fault();
  switch (fault.action) {
    case BusFaultAction::Drop:
      return;
    case BusFaultAction::Duplicate: {
      events::Notification copy = n;
      inner_.publish(std::move(copy));
      inner_.publish(std::move(n));
      return;
    }
    case BusFaultAction::Delay: {
      auto payload = std::make_shared<events::Notification>(std::move(n));
      sim_.schedule_in(fault.delay, [this, payload] {
        inner_.publish(std::move(*payload));
      });
      return;
    }
    case BusFaultAction::Deliver:
      break;
  }
  inner_.publish(std::move(n));
}

}  // namespace arcadia::fault
