// Interned symbols: the hot-path identity type of the architectural model.
// A Symbol is a dense uint32 id into a process-global intern table; equality
// and hashing are integer operations, so model lookups that used to compare
// strings (std::map<std::string, ...>) become a multiplicative hash plus a
// handful of integer probes. Interning is thread-safe (experiment suites run
// scenarios on a thread pool); reading an already-interned symbol's text is
// lock-free.
// arclint: hotpath — steady-state code: no std::function (heap-owning
// type erasure); util::SmallFn, templates, or plain data only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace arcadia::util {

class Symbol {
 public:
  /// The empty symbol: id 0, text "". Doubles as "unset".
  constexpr Symbol() = default;

  /// Intern `text`, returning its dense id (idempotent; "" maps to the
  /// empty symbol).
  static Symbol intern(std::string_view text);
  /// The symbol for `text` if it has been interned, without interning it;
  /// lock-free. ("" is always present: the empty symbol.)
  static std::optional<Symbol> lookup(std::string_view text);

  std::uint32_t id() const { return id_; }
  bool empty() const { return id_ == 0; }
  explicit operator bool() const { return id_ != 0; }

  /// The interned text; stable for the process lifetime.
  const std::string& str() const;
  std::string_view view() const { return str(); }

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }
  /// Text comparison against raw strings, so call sites (and tests) can
  /// compare a symbol-typed field without interning first.
  friend bool operator==(Symbol a, std::string_view b) { return a.view() == b; }
  friend bool operator==(std::string_view a, Symbol b) { return a == b.view(); }
  friend bool operator!=(Symbol a, std::string_view b) { return a.view() != b; }
  friend bool operator!=(std::string_view a, Symbol b) { return a != b.view(); }
  /// Orders by interned text (deterministic across runs), not by id.
  friend bool operator<(Symbol a, Symbol b) { return a.view() < b.view(); }

  friend std::ostream& operator<<(std::ostream& os, Symbol s) {
    return os << s.view();
  }

  /// Number of distinct symbols interned so far (diagnostics/benches).
  static std::size_t interned_count();

 private:
  explicit constexpr Symbol(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Open-addressed hash map keyed by Symbol, tuned for the model's access
/// pattern: lookups dominate, mutations are rare (model build and repairs).
/// Entries are kept sorted by symbol text so iteration is deterministic and
/// matches the std::map<std::string, ...> order this container replaced —
/// every downstream consumer (ADL printer, evaluator set construction,
/// gauge deployment) sees the same order as before.
template <typename T>
class SymbolMap {
 public:
  struct Entry {
    Symbol key;
    T value;
  };
  using const_iterator = typename std::vector<Entry>::const_iterator;
  using iterator = typename std::vector<Entry>::iterator;

  SymbolMap() = default;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }

  bool contains(Symbol key) const { return find(key) != nullptr; }

  T* find(Symbol key) {
    const std::uint32_t pos = probe(key);
    return pos ? &entries_[pos - 1].value : nullptr;
  }
  const T* find(Symbol key) const {
    const std::uint32_t pos = probe(key);
    return pos ? &entries_[pos - 1].value : nullptr;
  }

  /// Insert or overwrite; returns the stored value.
  T& insert_or_assign(Symbol key, T value) {
    if (T* existing = find(key)) {
      *existing = std::move(value);
      return *existing;
    }
    return emplace_new(key, std::move(value));
  }

  /// Default-constructs on first access (std::map::operator[] semantics).
  T& operator[](Symbol key) {
    if (T* existing = find(key)) return *existing;
    return emplace_new(key, T{});
  }

  bool erase(Symbol key) {
    const std::uint32_t pos = probe(key);
    if (!pos) return false;
    entries_.erase(entries_.begin() + (pos - 1));
    rebuild_index();
    return true;
  }

  void clear() {
    entries_.clear();
    index_.clear();
  }

 private:
  static std::uint32_t mix(Symbol key) { return key.id() * 2654435761u; }

  /// Returns entry position + 1, or 0 when absent.
  std::uint32_t probe(Symbol key) const {
    if (index_.empty()) return 0;
    const std::uint32_t mask = static_cast<std::uint32_t>(index_.size()) - 1;
    for (std::uint32_t i = mix(key) & mask;; i = (i + 1) & mask) {
      const std::uint32_t pos = index_[i];
      if (pos == 0) return 0;
      if (entries_[pos - 1].key == key) return pos;
    }
  }

  T& emplace_new(Symbol key, T value) {
    // Keep entries sorted by text. The entries after the insertion point
    // move up one position, so the index is patched in place, and rebuilt
    // only when it must grow: building a map of n keys costs O(n^2)
    // integer steps, not O(n^2) string compares and rehashes (the buses'
    // key index inserts hundreds of client names per topic).
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key.view(),
        [](const Entry& e, std::string_view k) { return e.key.view() < k; });
    const auto at = static_cast<std::uint32_t>(it - entries_.begin());
    entries_.insert(it, Entry{key, std::move(value)});
    if (index_.size() < entries_.size() * 2) {
      rebuild_index();
    } else {
      for (std::uint32_t& pos : index_) pos += pos > at;
      place(at + 1);
    }
    return entries_[at].value;
  }

  /// Puts entry position `pos` (1-based) into the index.
  void place(std::uint32_t pos) {
    const std::uint32_t mask = static_cast<std::uint32_t>(index_.size()) - 1;
    std::uint32_t i = mix(entries_[pos - 1].key) & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = pos;
  }

  void rebuild_index() {
    std::size_t buckets = 8;
    // Load factor <= 0.5 keeps linear probes short.
    while (buckets < entries_.size() * 2) buckets *= 2;
    index_.assign(buckets, 0);
    for (std::uint32_t pos = 1; pos <= entries_.size(); ++pos) place(pos);
  }

  std::vector<Entry> entries_;        ///< sorted by key text
  std::vector<std::uint32_t> index_;  ///< open-addressed, entry pos + 1
};

}  // namespace arcadia::util
