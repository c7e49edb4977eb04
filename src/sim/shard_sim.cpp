// arclint: shard — see shard_sim.hpp; cross-shard effects route through the
// coordinator seam only.
#include "sim/shard_sim.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>

namespace arcadia::sim {

SimCoordinator::SimCoordinator(Simulator& control,
                               SimCoordinatorOptions options)
    : control_(control), options_(options) {}

SimCoordinator::~SimCoordinator() = default;

ShardSimulator& SimCoordinator::add_shard() {
  const auto id = static_cast<std::uint32_t>(shards_.size());
  shards_.push_back(std::make_unique<ShardSimulator>(id));
  return *shards_.back();
}

unsigned SimCoordinator::effective_threads() const {
  unsigned t = options_.threads;
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  // More workers than shards never helps: a shard is serial in a window.
  return static_cast<unsigned>(
      std::min<std::size_t>(t, std::max<std::size_t>(1, shards_.size())));
}

void SimCoordinator::advance_all(SimTime bound) {
  const std::size_t n = shards_.size();
  const unsigned workers = effective_threads();
  if (workers <= 1 || n <= 1) {
    for (auto& s : shards_) s->advance_to(bound);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ThreadPool>(workers - 1);
  // Dynamic work scheduling: shards grab the next index as they finish.
  // Duty-cycled fleets are imbalanced (a few busy tenants, many idle), so
  // contiguous chunking would serialize the busy ones onto one worker.
  // Which worker runs which shard varies run to run — and does not matter:
  // each shard's window is serial and the merge points are ordered.
  std::atomic<std::size_t> next{0};
  auto drain = [&next, bound, this, n] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      shards_[i]->advance_to(bound);
    }
  };
  std::vector<std::future<void>> joined;
  joined.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) joined.push_back(pool_->submit(drain));
  std::exception_ptr err;
  try {
    drain();  // the coordinator thread participates
  } catch (...) {
    err = std::current_exception();
  }
  // Join every worker before any rethrow: `drain` captures locals by
  // reference, so nothing may still be running when this frame unwinds.
  for (auto& f : joined) {
    try {
      f.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

std::uint64_t SimCoordinator::run_until(SimTime horizon) {
  std::uint64_t ran = 0;
  while (control_.now() < horizon) {
    // Conservative bound: nothing can affect another shard strictly before
    // it. Control events (sweeps, snapshots) are the only coupling.
    const SimTime bound = std::min(control_.peek_next_time(), horizon);
    const std::uint64_t before = stats_.shard_events;
    advance_all(bound);
    std::uint64_t after = 0;
    for (const auto& s : shards_) after += s->events();
    stats_.shard_events = after;
    ran += after - before;
    if (barrier_hook_) barrier_hook_(bound);
    ran += control_.run_until(bound);
    ++stats_.rounds;
  }
  // Leave every clock at the horizon (control_.run_until already clamped).
  for (auto& s : shards_) s->advance_to(horizon);
  return ran;
}

SimCoordinatorStats SimCoordinator::stats() const {
  SimCoordinatorStats out = stats_;
  std::uint64_t shard_events = 0;
  for (const auto& s : shards_) shard_events += s->events();
  out.shard_events = shard_events;
  return out;
}

}  // namespace arcadia::sim
