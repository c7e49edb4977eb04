// A bus notification: an interned topic, a flat attribute list, and
// provenance (source node, publish time) used by the simulated bus to model
// delivery delay over the shared network.
//
// Hot-path layout: the topic is a util::Symbol (4 bytes, id-compared) and
// the attributes live in a small-buffer inline vector of (Symbol, Value)
// pairs. Typical notifications carry <= 6 attributes, so the steady-state
// monitoring traffic (probe observations, gauge reports) constructs,
// matches, and consumes notifications without touching the heap — the
// node-per-attribute std::map this replaced allocated on every set().
// Lookup is a linear scan over inline storage, which beats a tree walk at
// these sizes by a wide margin.
// arclint: hotpath — steady-state code: no std::function (heap-owning
// type erasure); util::SmallFn, templates, or plain data only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "events/value.hpp"
#include "sim/network.hpp"
#include "util/symbol.hpp"
#include "util/units.hpp"

namespace arcadia::events {

/// Insertion-ordered (name, value) list with inline storage for the common
/// attribute counts. Spills to a heap vector only past kInlineCap entries.
class AttrList {
 public:
  struct Attr {
    util::Symbol name;
    Value value;
  };
  static constexpr std::size_t kInlineCap = 6;

  AttrList() = default;
  AttrList(const AttrList& other) { copy_from(other); }
  AttrList& operator=(const AttrList& other) {
    if (this != &other) {
      clear();
      copy_from(other);
    }
    return *this;
  }
  // Moves touch only live slots: a pooled payload's reuse (PayloadPool)
  // move-assigns a whole notification on every publish, and most carry
  // fewer than kInlineCap attributes. The source is left empty; its
  // moved-from slots own no heap memory.
  AttrList(AttrList&& other) noexcept { move_from(other); }
  AttrList& operator=(AttrList&& other) noexcept {
    if (this != &other) {
      const std::uint32_t was_live = inline_size_;
      move_from(other);
      for (std::size_t i = inline_size_; i < was_live; ++i) inline_[i] = Attr{};
    }
    return *this;
  }

  std::size_t size() const {
    return overflow_ ? overflow_->size() : inline_size_;
  }
  bool empty() const { return size() == 0; }

  const Attr* begin() const {
    return overflow_ ? overflow_->data() : inline_;
  }
  const Attr* end() const { return begin() + size(); }

  /// Pointer to the value, or nullptr when absent. The notification's own
  /// find — no tree, no hashing, just a short scan of interned ids.
  const Value* find(util::Symbol name) const {
    for (const Attr& a : *this) {
      if (a.name == name) return &a.value;
    }
    return nullptr;
  }
  Value* find(util::Symbol name) {
    return const_cast<Value*>(std::as_const(*this).find(name));
  }

  /// Insert or overwrite, preserving first-insertion order.
  void set(util::Symbol name, Value value) {
    if (Value* existing = find(name)) {
      *existing = std::move(value);
      return;
    }
    if (!overflow_ && inline_size_ < kInlineCap) {
      inline_[inline_size_++] = Attr{name, std::move(value)};
      return;
    }
    if (!overflow_) {
      overflow_ = std::make_unique<std::vector<Attr>>();
      overflow_->reserve(kInlineCap * 2);
      for (std::size_t i = 0; i < inline_size_; ++i) {
        overflow_->push_back(std::move(inline_[i]));
        inline_[i] = Attr{};
      }
      inline_size_ = 0;
    }
    overflow_->push_back(Attr{name, std::move(value)});
  }

  void clear() {
    for (std::size_t i = 0; i < inline_size_; ++i) inline_[i] = Attr{};
    inline_size_ = 0;
    overflow_.reset();
  }

 private:
  /// Takes `other`'s live slots (or its spill vector) into slots [0, n);
  /// the caller resets any of its own live slots past n.
  void move_from(AttrList& other) noexcept {
    overflow_ = std::move(other.overflow_);
    for (std::size_t i = 0; i < other.inline_size_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
    inline_size_ = other.inline_size_;
    other.inline_size_ = 0;
  }

  void copy_from(const AttrList& other) {
    if (other.overflow_) {
      overflow_ = std::make_unique<std::vector<Attr>>(*other.overflow_);
    } else {
      for (std::size_t i = 0; i < other.inline_size_; ++i) {
        inline_[i] = other.inline_[i];
      }
      inline_size_ = other.inline_size_;
    }
  }

  Attr inline_[kInlineCap];
  std::uint32_t inline_size_ = 0;
  std::unique_ptr<std::vector<Attr>> overflow_;
};

struct Notification {
  util::Symbol topic;
  AttrList attributes;
  /// Node the publisher runs on (kNoNode for in-process publishers).
  sim::NodeId source_node = sim::kNoNode;
  /// Publish timestamp (filled by the bus).
  SimTime published;
  /// Approximate wire size of the encoded notification; the simulated bus
  /// uses it to derive delivery delay under congestion.
  DataSize wire_size = DataSize::bytes(1024);

  Notification() = default;
  Notification(util::Symbol topic_) : topic(topic_) {}            // NOLINT
  Notification(std::string_view topic_)                           // NOLINT
      : topic(util::Symbol::intern(topic_)) {}

  Notification& set(util::Symbol name, Value value) {
    attributes.set(name, std::move(value));
    return *this;
  }
  Notification& set(std::string_view name, Value value) {
    return set(util::Symbol::intern(name), std::move(value));
  }

  bool has(util::Symbol name) const {
    return attributes.find(name) != nullptr;
  }
  bool has(std::string_view name) const {
    return has(util::Symbol::intern(name));
  }

  /// Attribute access without copying: pointer to the value, or nullptr
  /// when absent. The hot-path accessor — gauges and report parsing read
  /// through this.
  const Value* get_if(util::Symbol name) const { return attributes.find(name); }
  const Value* get_if(std::string_view name) const {
    return get_if(util::Symbol::intern(name));
  }

  /// Attribute access; throws std::out_of_range when missing.
  const Value& get(util::Symbol name) const {
    if (const Value* v = attributes.find(name)) return *v;
    throw std::out_of_range("notification attribute missing: " + name.str());
  }
  const Value& get(std::string_view name) const {
    return get(util::Symbol::intern(name));
  }

  /// Attribute access with fallback. Returns a copy by necessity (the
  /// fallback is a temporary); prefer get_if on hot paths.
  Value get_or(util::Symbol name, Value fallback) const {
    const Value* v = attributes.find(name);
    return v ? *v : fallback;
  }
  Value get_or(std::string_view name, Value fallback) const {
    return get_or(util::Symbol::intern(name), std::move(fallback));
  }
};

/// Shared delivery payload: every matched subscriber of a publish receives
/// the same immutable notification instance instead of a per-delivery copy.
using NotificationPtr = std::shared_ptr<const Notification>;

}  // namespace arcadia::events
