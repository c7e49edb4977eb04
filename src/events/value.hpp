// Typed scalar values: bus notification attributes (Siena's data model:
// notifications are flat sets of named, typed attributes), model
// properties, and the scalars of the expression language, which all
// compare by the rules here. Numeric comparisons coerce int<->double,
// mirroring Siena's behaviour for numeric attribute types.
//
// Strings come in two flavours: an owned std::string for arbitrary payload
// text, and an interned util::Symbol for the names the monitoring stack
// repeats forever (client/element/property identifiers). A Symbol value is
// 4 bytes, never allocates, and compares by id against other symbols; it
// still reads, compares, and filters exactly like the string it interns.
// arclint: hotpath — steady-state code: no std::function (heap-owning
// type erasure); util::SmallFn, templates, or plain data only.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "util/symbol.hpp"

namespace arcadia::events {

class Value {
 public:
  Value() : v_(false) {}
  Value(bool b) : v_(b) {}                       // NOLINT(runtime/explicit)
  Value(std::int64_t i) : v_(i) {}               // NOLINT(runtime/explicit)
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(double d) : v_(d) {}                     // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}     // NOLINT(runtime/explicit)
  Value(const char* s) : v_(std::string(s)) {}   // NOLINT(runtime/explicit)
  Value(util::Symbol s) : v_(s) {}               // NOLINT(runtime/explicit)

  // The special members are defined out-of-line: GCC 12's
  // -Wmaybe-uninitialized misfires on the inlined five-alternative variant
  // copy/move at call sites. The indirection is one call on paths that
  // already run a variant visit.
  Value(const Value& other);
  Value& operator=(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(Value&& other) noexcept;
  ~Value();

  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  /// True for both owned strings and interned symbols: the two are the same
  /// logical type, differing only in storage.
  bool is_string() const {
    return std::holds_alternative<std::string>(v_) || is_symbol();
  }
  bool is_symbol() const { return std::holds_alternative<util::Symbol>(v_); }
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  /// String read; for a symbol, the interned text (stable for the process
  /// lifetime, so returning a reference is safe).
  const std::string& as_string() const {
    if (const auto* sym = std::get_if<util::Symbol>(&v_)) return sym->str();
    return std::get<std::string>(v_);
  }
  util::Symbol as_symbol() const { return std::get<util::Symbol>(v_); }
  /// The value as an interned symbol: identity for symbols, interns owned
  /// strings. Throws std::bad_variant_access for non-string values.
  util::Symbol to_symbol() const {
    if (const auto* sym = std::get_if<util::Symbol>(&v_)) return *sym;
    return util::Symbol::intern(std::get<std::string>(v_));
  }
  /// Numeric read with int->double coercion; throws std::bad_variant_access
  /// for non-numeric values.
  double as_double() const {
    if (is_int()) return static_cast<double>(as_int());
    return std::get<double>(v_);
  }

  /// Equality with numeric coercion (1 == 1.0); symbols and strings compare
  /// by text (two symbols by id — same thing, interning is idempotent);
  /// distinct non-numeric types are never equal.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Three-way ordering, the one the expression language's `<`, `<=`, `>`
  /// and `>=` use: numerics by value, strings lexicographically. Returns
  /// false for incomparable pairs (bool vs string, etc.).
  static bool compare(const Value& a, const Value& b, int& out_cmp);

  std::string to_string() const;

 private:
  std::variant<bool, std::int64_t, double, util::Symbol, std::string> v_;
};

}  // namespace arcadia::events
