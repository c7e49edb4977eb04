#include "durability/plane.hpp"

#include <chrono>
#include <cstring>

#include "util/log.hpp"

namespace arcadia::durability {

namespace {

/// Accumulates wall-clock spent inside a plane entry point; see
/// DurabilityPlane::wall_s(). Mirrors core::ArchManagerStats::check_wall_s.
class ScopedWall {
 public:
  explicit ScopedWall(double& acc)
      : acc_(acc), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedWall() {
    acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  }
  ScopedWall(const ScopedWall&) = delete;
  ScopedWall& operator=(const ScopedWall&) = delete;

 private:
  double& acc_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

DurabilityPlane::DurabilityPlane(Options options)
    : options_(std::move(options)) {
  if (!options_.enabled()) {
    throw DurabilityError("DurabilityPlane constructed with empty dir");
  }
  ensure_dir(options_.dir);

  const std::string path = journal_path();
  if (file_exists(path)) {
    // A previous run's journal: its valid prefix becomes the catchup
    // reference the re-executing run must reproduce byte-for-byte.
    const std::vector<std::uint8_t> bytes = read_file(path);
    JournalReadResult prior = read_journal_bytes(bytes);
    if (prior.torn) {
      reference_warning_ = prior.warning;
      ARC_WARN << "durability: truncating torn journal tail (" << prior.warning
               << "); recovering to LSN "
               << (prior.records.empty() ? 0 : prior.records.back().lsn);
    }
    reference_.assign(bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(
                                          prior.valid_bytes));
    if (!prior.records.empty()) {
      reference_horizon_ = prior.records.back().at;
      reference_last_lsn_ = prior.records.back().lsn;
    }
  }

  writer_.create(path);
  const std::vector<std::uint8_t> header = journal_header();
  verify_against_reference(header);
  writer_.append(header);
}

DurabilityPlane::~DurabilityPlane() {
  if (abandoned_ || !writer_.is_open()) return;
  try {
    close(last_time_);
  } catch (...) {
    // Destructor: a failed final sync must not terminate; the journal's
    // valid prefix up to the last successful sync is still recoverable.
  }
}

void DurabilityPlane::verify_against_reference(
    const std::vector<std::uint8_t>& frame) {
  if (ref_pos_ >= reference_.size()) return;
  const std::size_t remaining = reference_.size() - ref_pos_;
  if (remaining < frame.size() ||
      std::memcmp(reference_.data() + ref_pos_, frame.data(), frame.size()) !=
          0) {
    throw RecoveryError(
        "replay diverged from the on-disk journal at byte offset " +
        std::to_string(ref_pos_) + " (LSN " + std::to_string(lsn_) +
        "): the restored run is not reproducing the journaled history — "
        "config, seed, or code changed since the crash");
  }
  ref_pos_ += frame.size();
}

void DurabilityPlane::append(JournalRecord record) {
  if (abandoned_) return;
  record.lsn = ++lsn_;
  if (record.at > last_time_) last_time_ = record.at;
  const std::vector<std::uint8_t> frame = encode_frame(record);
  verify_against_reference(frame);
  pending_.insert(pending_.end(), frame.begin(), frame.end());
  ++records_written_;
  // Backstop so a long quiet stretch between commits cannot grow the
  // buffer without bound (write without sync — still one durability
  // point per group commit).
  if (pending_.size() >= (1u << 18)) commit_pending();
}

void DurabilityPlane::commit_pending() {
  if (pending_.empty()) return;
  writer_.append(pending_);
  pending_.clear();
}

void DurabilityPlane::flush_gauges(SimTime at) {
  for (std::uint32_t shard = 0; shard < gauge_buffers_.size(); ++shard) {
    auto& buffer = gauge_buffers_[shard];
    if (buffer.empty()) continue;
    JournalRecord record;
    record.type = RecordType::GaugeBatch;
    record.at = at;
    record.shard = shard;
    record.gauges.reserve(buffer.size());
    for (const BufferedGauge& g : buffer) {
      GaugeDelta delta;
      delta.at = g.at;
      delta.element = g.element.str();
      delta.sub = g.sub.str();
      delta.property = g.property.str();
      delta.value = g.value;
      record.gauges.push_back(std::move(delta));
    }
    buffer.clear();
    append(std::move(record));
  }
  buffered_gauges_ = 0;
}

void DurabilityPlane::on_ops(std::uint32_t shard, SimTime at,
                             std::uint64_t repair_index, bool compensation,
                             const std::vector<model::OpRecord>& ops) {
  if (abandoned_) return;
  ScopedWall wall(wall_s_);
  flush_gauges(at);
  JournalRecord record;
  record.type = RecordType::OpBatch;
  record.at = at;
  record.shard = shard;
  record.repair_index = repair_index;
  record.compensation = compensation;
  record.ops = ops;
  append(std::move(record));
  // An op batch is a commit the translator is about to act on; group
  // commit writes + syncs it unless a sync already happened within
  // sync_interval of sim-time (see Options::sync_interval for why this
  // is safe).
  if (last_sync_time_ < SimTime::zero() ||
      at - last_sync_time_ >= options_.sync_interval) {
    commit_pending();
    writer_.sync();
    last_sync_time_ = at;
  }
}

void DurabilityPlane::on_plan_event(std::uint32_t shard, SimTime at,
                                    const std::string& phase,
                                    std::uint64_t repair_index,
                                    std::uint64_t steps) {
  if (abandoned_) return;
  ScopedWall wall(wall_s_);
  flush_gauges(at);
  JournalRecord record;
  record.type = RecordType::PlanEvent;
  record.at = at;
  record.shard = shard;
  record.phase = phase;
  record.repair_index = repair_index;
  record.plan_steps = steps;
  append(std::move(record));
}

void DurabilityPlane::on_gauge_applied(std::uint32_t shard, SimTime at,
                                       util::Symbol element, util::Symbol sub,
                                       util::Symbol property,
                                       const events::Value& value) {
  if (abandoned_) return;
  ScopedWall wall(wall_s_);
  if (gauge_buffers_.size() <= shard) gauge_buffers_.resize(shard + 1);
  auto& buffer = gauge_buffers_[shard];
  if (at > last_time_) last_time_ = at;
  // Coalesce: a repeat write to the same key within the batch window just
  // refreshes its value (see BufferedGauge). First-seen order is kept so
  // the encoded batch is deterministic.
  for (BufferedGauge& g : buffer) {
    if (g.element == element && g.sub == sub && g.property == property) {
      g.at = at;
      g.value = value;
      return;
    }
  }
  buffer.push_back({at, element, sub, property, value});
  if (++buffered_gauges_ >= options_.gauge_batch_cap) flush_gauges(at);
}

void DurabilityPlane::take_snapshot(SimTime at,
                                    std::vector<ShardSnapshot> shards) {
  if (abandoned_) return;
  ScopedWall wall(wall_s_);
  flush_gauges(at);

  // Journal the fault-plane stream positions first: a reader that trusts
  // the snapshot can cross-check the RNG state it is resuming into.
  JournalRecord rng;
  rng.type = RecordType::RngPositions;
  rng.at = at;
  rng.shard = 0;
  for (const auto& shard : shards) {
    rng.rng_streams.insert(rng.rng_streams.end(), shard.rng_streams.begin(),
                           shard.rng_streams.end());
  }
  append(std::move(rng));

  Snapshot snap;
  snap.lsn = lsn_;
  snap.at = at;
  snap.shards = std::move(shards);

  Encoder digests;
  for (const auto& shard : snap.shards) digests.u64(shard.model_digest);
  const std::uint64_t combined = fnv1a(digests.bytes());

  std::function<void()> between;
  if (crash_armed_ && snapshot_crash_hook_) {
    between = [this] {
      crash_armed_ = false;
      snapshot_crash_hook_();  // throws fault::CrashSignal in crash tests
    };
  }
  const std::string name = write_snapshot(options_.dir, snap, between);

  JournalRecord mark;
  mark.type = RecordType::SnapshotMark;
  mark.at = at;
  mark.shard = 0;
  mark.snapshot_lsn = snap.lsn;
  mark.snapshot_file = name;
  mark.model_digest = combined;
  append(std::move(mark));
  // The snapshot file is already durable (write_file_atomic fsyncs it and
  // its directory); the mark is advisory — recovery discovers snapshots by
  // listing the directory — so it rides the next group commit instead of
  // paying a third sync here.
  commit_pending();

  prune_snapshots(options_.dir, options_.retention);
}

void DurabilityPlane::set_snapshot_crash_hook(std::function<void()> hook) {
  snapshot_crash_hook_ = std::move(hook);
}

void DurabilityPlane::flush(SimTime at) {
  if (abandoned_) return;
  ScopedWall wall(wall_s_);
  flush_gauges(at);
  commit_pending();
  writer_.sync();
  last_sync_time_ = at;
}

void DurabilityPlane::close(SimTime at) {
  if (abandoned_ || !writer_.is_open()) return;
  flush_gauges(at);
  commit_pending();
  writer_.close();
}

void DurabilityPlane::abandon() {
  abandoned_ = true;
  writer_.abandon();
}

}  // namespace arcadia::durability
