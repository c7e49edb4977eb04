// Binary codec for the durability plane: little-endian fixed-width scalars,
// length-prefixed strings and sequences, and tagged Values. The encoding is
// deliberately positional and versioned at the container level (journal /
// snapshot headers carry the format version) rather than per-field, keeping
// frames compact — a steady-state gauge delta is a few dozen bytes.
//
// Each durable structure's field order is written down once, as
//   template <class Io, MaybeConst<S> T> void fields(Io& io, T& s);
// over the field calls Encoder and Decoder share (u8, u32, u64, i64, f64,
// boolean, str, sim_time, bandwidth, data_size, value, seq, blob,
// enumeration). With an Encoder `s` is const and each call appends; with a
// Decoder each call reads and assigns. OpRecord and Rng::State are
// described here; the journal, snapshot and manifest describe their own
// records next to their containers.
//
// Determinism note: symbols encode as their interned TEXT, never their
// process-local ids, so journal bytes are stable across processes and the
// crash-recovery oracle can byte-compare journals from different runs.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "events/value.hpp"
#include "model/transaction.hpp"
#include "util/deterministic_rng.hpp"
#include "util/units.hpp"

namespace arcadia::durability {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range; the journal
/// frames every payload with one.
std::uint32_t crc32(const void* data, std::size_t size);

/// FNV-1a 64-bit — the model digest hash (cheap, dependency-free, stable).
std::uint64_t fnv1a(const void* data, std::size_t size);
inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  return fnv1a(bytes.data(), bytes.size());
}

/// A `fields` description's object type: const when encoding, mutable when
/// decoding.
template <class T, class S>
concept MaybeConst = std::same_as<std::remove_const_t<T>, S>;

/// Append-only byte builder.
class Encoder {
 public:
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void sim_time(SimTime t) { i64(t.as_micros()); }
  void bandwidth(Bandwidth b) { f64(b.as_bps()); }
  void data_size(DataSize d) { f64(d.as_bytes()); }
  void value(const events::Value& v);
  /// u32 count, then `each(*this, item)` per item.
  template <class T, class Each>
  void seq(const std::vector<T>& items, Each each) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) each(*this, item);
  }
  /// u32 length, then the bytes: what seq() writes for bytes, copied in
  /// bulk (snapshots carry whole model encodings).
  void blob(const std::vector<std::uint8_t>& bytes) {
    u32(static_cast<std::uint32_t>(bytes.size()));
    raw(bytes);
  }
  /// One byte; [first, last] is the range the Decoder accepts.
  template <class E>
  void enumeration(E e, E /*first*/, E /*last*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(e));
  }
  void raw(const std::vector<std::uint8_t>& bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over an immutable byte range; every underrun or
/// bad tag throws DurabilityError (callers treat that as a torn/corrupt
/// record, never as partial data).
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit Decoder(const std::vector<std::uint8_t>& bytes)
      : Decoder(bytes.data(), bytes.size()) {}

  bool done() const { return p_ == end_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  // Value-returning reads, for the container framing.
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  SimTime sim_time() { return SimTime::micros(i64()); }
  events::Value value();

  // Field calls: the Encoder's, reading into `v`. Integer fields convert
  // from their wire width (ints travel as i64, size_t counts as u32).
  void u8(std::uint8_t& v) { v = u8(); }
  template <std::integral T>
  void u32(T& v) { v = static_cast<T>(u32()); }
  void u64(std::uint64_t& v) { v = u64(); }
  template <std::integral T>
  void i64(T& v) { v = static_cast<T>(i64()); }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& v) { v = str(); }
  void sim_time(SimTime& v) { v = sim_time(); }
  void bandwidth(Bandwidth& v) { v = Bandwidth::bps(f64()); }
  void data_size(DataSize& v) { v = DataSize::bytes(f64()); }
  void value(events::Value& v) { v = value(); }
  template <class T, class Each>
  void seq(std::vector<T>& items, Each each) {
    const std::uint32_t n = u32();
    items.clear();
    // Every item takes at least one byte, so a corrupt count cannot
    // reserve more than the payload could hold.
    items.reserve(std::min<std::size_t>(n, remaining()));
    for (std::uint32_t i = 0; i < n; ++i) each(*this, items.emplace_back());
  }
  void blob(std::vector<std::uint8_t>& bytes);
  /// Throws DurabilityError unless the tag lies in [first, last].
  template <class E>
  void enumeration(E& e, E first, E last, const char* what) {
    e = static_cast<E>(tag(static_cast<std::uint8_t>(first),
                           static_cast<std::uint8_t>(last), what));
  }

 private:
  void need(std::size_t n) const;
  std::uint8_t tag(std::uint8_t first, std::uint8_t last, const char* what);
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// A fault-plane stream position: the four xoshiro words, then the
/// Box-Muller spare.
template <class Io, MaybeConst<Rng::State> T>
void fields(Io& io, T& st) {
  for (auto& word : st.s) io.u64(word);
  io.boolean(st.have_spare);
  io.f64(st.spare);
}

template <class Io, MaybeConst<model::OpRecord> T>
void fields(Io& io, T& op) {
  io.enumeration(op.kind, model::OpKind::AddComponent,
                 model::OpKind::SetProperty, "OpKind");
  io.seq(op.scope, [](auto& c, auto& s) { c.str(s); });
  io.str(op.element);
  io.str(op.sub);
  io.str(op.type_name);
  io.str(op.property);
  io.value(op.value);
  io.str(op.attachment.component);
  io.str(op.attachment.port);
  io.str(op.attachment.connector);
  io.str(op.attachment.role);
  io.enumeration(op.element_kind, model::ElementKind::Component,
                 model::ElementKind::System, "ElementKind");
  io.value(op.prev_value);
  io.boolean(op.had_prev);
}

/// `seq` callback for items that have their own `fields` description.
inline constexpr auto kFields = [](auto& io, auto& item) { fields(io, item); };

}  // namespace arcadia::durability
