#include "durability/snapshot.hpp"

#include <cstring>

#include "durability/io.hpp"

namespace arcadia::durability {

std::string snapshot_file_name(std::uint64_t lsn) {
  std::string digits = std::to_string(lsn);
  if (digits.size() < 16) digits.insert(0, 16 - digits.size(), '0');
  return "snap-" + digits + ".arcs";
}

template <class Io, MaybeConst<GaugeState> T>
void fields(Io& io, T& g) {
  io.str(g.id);
  io.boolean(g.live);
  io.boolean(g.suspect);
  io.sim_time(g.last_report);
}

template <class Io, MaybeConst<ShardSnapshot> T>
void fields(Io& io, T& shard) {
  io.u32(shard.shard);
  io.str(shard.name);
  io.blob(shard.model);
  io.u64(shard.model_digest);
  io.seq(shard.gauges, kFields);
  io.u8(shard.health);
  io.seq(shard.rng_streams, kFields);
  io.u64(shard.repairs_committed);
}

/// The snapshot body, between the magic + version header and the CRC.
template <class Io, MaybeConst<Snapshot> T>
void fields(Io& io, T& snap) {
  io.u64(snap.lsn);
  io.sim_time(snap.at);
  io.seq(snap.shards, kFields);
}

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap) {
  Encoder enc;
  for (const char c : kSnapshotMagic) enc.u8(static_cast<std::uint8_t>(c));
  enc.u32(kSnapshotVersion);
  fields(enc, snap);
  // Trailing CRC over everything above, so a torn snapshot (possible only
  // via the .tmp path — the rename is atomic) is detected on load.
  const std::uint32_t crc = crc32(enc.bytes().data(), enc.size());
  enc.u32(crc);
  return enc.take();
}

Snapshot decode_snapshot(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 8 + 4 ||
      std::memcmp(bytes.data(), kSnapshotMagic, 4) != 0) {
    throw DurabilityError("not a snapshot (bad magic/short header)");
  }
  {
    Decoder tail(bytes.data() + bytes.size() - 4, 4);
    const std::uint32_t want = tail.u32();
    if (crc32(bytes.data(), bytes.size() - 4) != want) {
      throw DurabilityError("snapshot CRC mismatch");
    }
  }
  Decoder dec(bytes.data() + 4, bytes.size() - 4 - 4);
  const std::uint32_t version = dec.u32();
  if (version != kSnapshotVersion) {
    throw DurabilityError("snapshot format version " + std::to_string(version));
  }
  Snapshot snap;
  fields(dec, snap);
  if (!dec.done()) throw DurabilityError("trailing bytes in snapshot");
  return snap;
}

std::string write_snapshot(const std::string& dir, const Snapshot& snap,
                           const std::function<void()>& between) {
  const std::string name = snapshot_file_name(snap.lsn);
  write_file_atomic(dir + "/" + name, encode_snapshot(snap), between);
  return name;
}

Snapshot load_snapshot(const std::string& path) {
  return decode_snapshot(read_file(path));
}

std::vector<std::string> list_snapshots(const std::string& dir) {
  std::vector<std::string> snaps;
  for (const auto& name : list_dir(dir)) {
    if (name.starts_with("snap-") && name.ends_with(".arcs")) {
      snaps.push_back(name);
    }
  }
  return snaps;  // list_dir sorts; zero-padded names sort by LSN
}

void prune_snapshots(const std::string& dir, std::size_t keep) {
  const std::vector<std::string> snaps = list_snapshots(dir);
  if (snaps.size() <= keep) return;
  for (std::size_t i = 0; i + keep < snaps.size(); ++i) {
    remove_file(dir + "/" + snaps[i]);
  }
}

}  // namespace arcadia::durability
