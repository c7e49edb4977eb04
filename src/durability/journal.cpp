#include "durability/journal.hpp"

namespace arcadia::durability {

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::OpBatch:
      return "op-batch";
    case RecordType::PlanEvent:
      return "plan-event";
    case RecordType::GaugeBatch:
      return "gauge-batch";
    case RecordType::RngPositions:
      return "rng-positions";
    case RecordType::SnapshotMark:
      return "snapshot-mark";
  }
  return "unknown";
}

// The descriptions stay out of an anonymous namespace: kFields finds them
// by argument-dependent lookup, which does not look inside one.
template <class Io, MaybeConst<GaugeDelta> T>
void fields(Io& io, T& g) {
  io.sim_time(g.at);
  io.str(g.element);
  io.str(g.sub);
  io.str(g.property);
  io.value(g.value);
}

/// The frame payload: the record header, then the fields of its own type.
template <class Io, MaybeConst<JournalRecord> T>
void fields(Io& io, T& r) {
  io.enumeration(r.type, RecordType::OpBatch, RecordType::SnapshotMark,
                 "RecordType");
  io.u64(r.lsn);
  io.sim_time(r.at);
  io.u32(r.shard);
  switch (r.type) {
    case RecordType::OpBatch:
      io.u64(r.repair_index);
      io.boolean(r.compensation);
      io.seq(r.ops, kFields);
      break;
    case RecordType::PlanEvent:
      io.str(r.phase);
      io.u64(r.repair_index);
      io.u64(r.plan_steps);
      break;
    case RecordType::GaugeBatch:
      io.seq(r.gauges, kFields);
      break;
    case RecordType::RngPositions:
      io.seq(r.rng_streams, kFields);
      break;
    case RecordType::SnapshotMark:
      io.u64(r.snapshot_lsn);
      io.str(r.snapshot_file);
      io.u64(r.model_digest);
      break;
  }
}

std::vector<std::uint8_t> encode_frame(const JournalRecord& record) {
  Encoder payload;
  fields(payload, record);

  Encoder frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.bytes().data(), payload.size()));
  frame.raw(payload.bytes());
  return frame.take();
}

std::vector<std::uint8_t> journal_header() {
  Encoder enc;
  for (const char c : kJournalMagic) enc.u8(static_cast<std::uint8_t>(c));
  enc.u32(kJournalVersion);
  return enc.take();
}

JournalReadResult read_journal_bytes(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kJournalHeaderSize ||
      std::memcmp(bytes.data(), kJournalMagic, 4) != 0) {
    throw DurabilityError("not a journal (bad magic/short header)");
  }
  {
    Decoder header(bytes.data() + 4, 4);
    const std::uint32_t version = header.u32();
    if (version != kJournalVersion) {
      throw DurabilityError("journal format version " +
                            std::to_string(version) + " (expected " +
                            std::to_string(kJournalVersion) + ")");
    }
  }

  JournalReadResult result;
  result.valid_bytes = kJournalHeaderSize;
  std::size_t pos = kJournalHeaderSize;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      result.torn = true;
      result.warning = "torn frame header at offset " + std::to_string(pos);
      break;
    }
    Decoder head(bytes.data() + pos, 8);
    const std::uint32_t len = head.u32();
    const std::uint32_t crc = head.u32();
    if (bytes.size() - pos - 8 < len) {
      result.torn = true;
      result.warning = "torn frame payload at offset " + std::to_string(pos) +
                       " (need " + std::to_string(len) + " bytes)";
      break;
    }
    const std::uint8_t* payload = bytes.data() + pos + 8;
    if (crc32(payload, len) != crc) {
      result.torn = true;
      result.warning = "CRC mismatch at offset " + std::to_string(pos);
      break;
    }
    JournalRecord record;
    try {
      Decoder dec(payload, len);
      fields(dec, record);
      if (!dec.done()) throw DurabilityError("trailing bytes after record");
    } catch (const DurabilityError& e) {
      // A CRC-valid but undecodable payload means a format bug or version
      // skew, not a torn write — still refuse to apply it.
      result.torn = true;
      result.warning = std::string("undecodable frame at offset ") +
                       std::to_string(pos) + ": " + e.what();
      break;
    }
    result.records.push_back(std::move(record));
    pos += 8 + len;
    result.valid_bytes = pos;
  }
  return result;
}

JournalReadResult read_journal(const std::string& path) {
  return read_journal_bytes(read_file(path));
}

}  // namespace arcadia::durability
