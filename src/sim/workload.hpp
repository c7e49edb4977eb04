// Workload and competition drivers for Figure 7's stepping functions.
// Clients issue open-loop Poisson requests whose rate and response-size
// distribution step over time; competition flows step their rates at the
// same breakpoints. Both are fully seeded so control and repair runs see
// identical workloads.
#pragma once

#include <memory>
#include <vector>

#include "sim/app.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/deterministic_rng.hpp"
#include "util/step_function.hpp"

namespace arcadia::sim {

/// Per-client request-generation schedule.
struct ClientWorkload {
  ClientIdx client = -1;
  /// Requests per second over time (0 pauses the client).
  StepFunction rate_hz{0.0};
  /// Mean response size (bytes) over time.
  StepFunction response_mean_bytes{20 * 1024.0};
  /// Lognormal sigma for response-size jitter over time (0 = fixed size;
  /// the stress phase uses fixed 20 KB).
  StepFunction response_sigma{0.5};
  DataSize request_size = DataSize::bytes(512);
};

/// Drives GridApp::issue_request for a set of clients.
class WorkloadDriver {
 public:
  WorkloadDriver(Simulator& sim, GridApp& app, std::uint64_t seed);

  void add(ClientWorkload workload);
  /// Arm the first arrivals; call once before Simulator::run_until.
  void start();

  std::uint64_t requests_issued() const { return issued_; }

 private:
  struct Stream {
    ClientWorkload spec;
    Rng rng;
  };
  void arm_next(std::size_t i);
  void fire(std::size_t i);

  Simulator& sim_;
  GridApp& app_;
  Rng master_;
  std::vector<Stream> streams_;
  std::uint64_t issued_ = 0;
  bool started_ = false;
};

/// A background competition flow whose rate follows a step function.
struct CompetitionSchedule {
  FlowId flow = kNoFlow;
  StepFunction rate_bps{0.0};
};

/// One scheduled server outage: the server stops pulling at `down_at` and
/// resumes at `up_at` (server-churn scenarios; the model layer is *not*
/// told — detecting the effect is the monitoring stack's job).
struct FaultSchedule {
  ServerIdx server = -1;
  SimTime down_at;
  SimTime up_at;
};

/// Deactivates/reactivates servers per a fault schedule. An outage only
/// applies to a server that is up when it fires (a machine that is already
/// off cannot fail) — `outages_started` counts the outages that actually
/// took a server down.
class FaultDriver {
 public:
  FaultDriver(Simulator& sim, GridApp& app);
  void add(FaultSchedule fault);
  /// Arm the outages; call once before Simulator::run_until.
  void start();

  std::uint64_t outages_started() const { return started_count_; }
  std::uint64_t outages_ended() const { return ended_count_; }

 private:
  Simulator& sim_;
  GridApp& app_;
  std::vector<FaultSchedule> faults_;
  std::uint64_t started_count_ = 0;
  std::uint64_t ended_count_ = 0;
  bool started_ = false;
};

/// Applies competition-rate steps at their breakpoints.
class CompetitionDriver {
 public:
  CompetitionDriver(Simulator& sim, FlowNetwork& net);
  void add(CompetitionSchedule schedule);
  void start();

 private:
  void apply(std::size_t i);
  Simulator& sim_;
  FlowNetwork& net_;
  std::vector<CompetitionSchedule> schedules_;
};

}  // namespace arcadia::sim
