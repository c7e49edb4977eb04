#include "remos/remos.hpp"

namespace arcadia::remos {

RemosService::RemosService(sim::Simulator& sim, const sim::FlowNetwork& net)
    : sim_(sim), net_(net), rows_(net.topology().node_count()) {}

RemosService::Entry* RemosService::slot(sim::NodeId src, sim::NodeId dst) {
  const std::size_t n = rows_.size();
  if (static_cast<std::size_t>(src) >= n ||
      static_cast<std::size_t>(dst) >= n) {
    return nullptr;
  }
  std::vector<Entry>& row = rows_[src];
  if (row.empty()) row.resize(n);
  return &row[dst];
}

Bandwidth RemosService::get_flow(sim::NodeId src, sim::NodeId dst) {
  ++stats_.queries;
  const SimTime now = sim_.now();
  Entry* entry = slot(src, dst);
  if (entry == nullptr || !entry->warm) {
    // Cold: Remos must collect and analyze data for this pair. (A pair
    // with an id outside the topology has no slot and is never cached.)
    ++stats_.cold_queries;
    last_cost_ = kFirstQueryCost;
    Bandwidth value = net_.available_bandwidth(src, dst);
    if (entry != nullptr) *entry = Entry{value, now, true};
    return value;
  }
  if (now - entry->measured_at > kCacheTtl) {
    ++stats_.refreshes;
    last_cost_ = kCachedQueryCost;
    entry->value = net_.available_bandwidth(src, dst);
    entry->measured_at = now;
    return entry->value;
  }
  ++stats_.cache_hits;
  last_cost_ = kCachedQueryCost;
  return entry->value;
}

bool RemosService::is_warm(sim::NodeId src, sim::NodeId dst) const {
  if (static_cast<std::size_t>(src) >= rows_.size()) return false;
  const std::vector<Entry>& row = rows_[src];
  return static_cast<std::size_t>(dst) < row.size() && row[dst].warm;
}

SimTime RemosService::prequery(
    const std::vector<std::pair<sim::NodeId, sim::NodeId>>& pairs) {
  bool any_cold = false;
  for (const auto& [src, dst] : pairs) {
    Entry* entry = slot(src, dst);
    if (entry != nullptr && entry->warm) continue;
    any_cold = true;
    ++stats_.queries;
    ++stats_.cold_queries;
    const Bandwidth value = net_.available_bandwidth(src, dst);
    if (entry != nullptr) *entry = Entry{value, sim_.now(), true};
  }
  return any_cold ? kFirstQueryCost : SimTime::zero();
}

}  // namespace arcadia::remos
