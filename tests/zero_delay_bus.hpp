// Test helper: a SimEventBus with zero delivery delay. A delivery is a
// simulator event at the publish time, queued after the events already
// waiting for that time; drain() runs the simulator to its current time,
// which delivers everything published so far, including what those
// deliveries publish in turn.
#pragma once

#include "events/bus.hpp"
#include "sim/simulator.hpp"

namespace arcadia::test {

class ZeroDelayBus : public events::SimEventBus {
 public:
  explicit ZeroDelayBus(sim::Simulator& sim)
      : SimEventBus(sim, events::fixed_delay(SimTime::zero())), sim_(sim) {}

  void drain() { sim_.run_until(sim_.now()); }

 private:
  sim::Simulator& sim_;
};

}  // namespace arcadia::test
