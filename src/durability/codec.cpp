#include "durability/codec.hpp"

#include <array>

#include "durability/io.hpp"

namespace arcadia::durability {

namespace {

// Value tags. Symbols and strings are distinct tags so decode restores the
// exact variant alternative (equality would hold either way, but gauge
// hot paths rely on symbol-typed values staying symbols).
constexpr std::uint8_t kTagBool = 0;
constexpr std::uint8_t kTagInt = 1;
constexpr std::uint8_t kTagDouble = 2;
constexpr std::uint8_t kTagSymbol = 3;
constexpr std::uint8_t kTagString = 4;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void Encoder::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Encoder::value(const events::Value& v) {
  if (v.is_bool()) {
    u8(kTagBool);
    boolean(v.as_bool());
  } else if (v.is_int()) {
    u8(kTagInt);
    i64(v.as_int());
  } else if (v.is_double()) {
    u8(kTagDouble);
    f64(v.as_double());
  } else if (v.is_symbol()) {  // before is_string(): symbols satisfy both
    u8(kTagSymbol);
    str(v.as_symbol().view());
  } else {
    u8(kTagString);
    str(v.as_string());
  }
}

void Decoder::need(std::size_t n) const {
  if (remaining() < n) {
    throw DurabilityError("decode underrun: need " + std::to_string(n) +
                          " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t Decoder::u8() {
  need(1);
  return *p_++;
}

std::uint32_t Decoder::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
  return v;
}

std::uint64_t Decoder::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
  return v;
}

double Decoder::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Decoder::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

events::Value Decoder::value() {
  switch (u8()) {
    case kTagBool:
      return events::Value(boolean());
    case kTagInt:
      return events::Value(i64());
    case kTagDouble:
      return events::Value(f64());
    case kTagSymbol:
      // Re-interning restores symbol identity; ids are process-local, the
      // text is the durable form.
      return events::Value(util::Symbol::intern(str()));
    case kTagString:
      return events::Value(str());
    default:
      throw DurabilityError("decode: unknown Value tag");
  }
}

void Decoder::blob(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t n = u32();
  need(n);
  bytes.assign(p_, p_ + n);
  p_ += n;
}

std::uint8_t Decoder::tag(std::uint8_t first, std::uint8_t last,
                          const char* what) {
  const std::uint8_t t = u8();
  if (t < first || t > last) {
    throw DurabilityError(std::string("decode: unknown ") + what + " tag " +
                          std::to_string(t));
  }
  return t;
}

}  // namespace arcadia::durability
