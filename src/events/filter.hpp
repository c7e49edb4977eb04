// Subscription filters: an exact topic, optionally narrowed by one
// attribute-equality key. That is every subscription the monitoring
// pipeline makes — a gauge listens to one probe topic for one client or
// group ("probe.latency" where client == User3), and the fleet's sinks to a
// whole topic — so the buses can route on the key alone and evaluate no
// filter per delivery.
//
// Topic, key attribute and key value are interned symbols. A notification
// matches when its topic is the filter's and, for a keyed filter, its value
// for the key attribute equals the key value by events::Value's == (a
// symbol by id, an owned string by text, any other value never).
#pragma once

#include <optional>
#include <string_view>

#include "events/notification.hpp"

namespace arcadia::events {

/// The one attribute constraint a filter may carry: `attr == value`.
struct FilterKey {
  util::Symbol attr;
  util::Symbol value;
};

class Filter {
 public:
  Filter() = default;
  static Filter topic(util::Symbol topic) {
    Filter f;
    f.topic_ = topic;
    return f;
  }
  static Filter topic(std::string_view topic) {
    return Filter::topic(util::Symbol::intern(topic));
  }
  /// `topic` notifications whose `attr` equals `value`.
  static Filter keyed(util::Symbol topic, util::Symbol attr,
                      util::Symbol value) {
    Filter f = Filter::topic(topic);
    f.key_ = FilterKey{attr, value};
    return f;
  }
  static Filter keyed(std::string_view topic, std::string_view attr,
                      std::string_view value) {
    return keyed(util::Symbol::intern(topic), util::Symbol::intern(attr),
                 util::Symbol::intern(value));
  }

  /// The reference semantics the buses' index reproduces.
  bool matches(const Notification& n) const {
    if (n.topic != topic_) return false;
    if (!key_) return true;
    const Value* v = n.get_if(key_->attr);
    return v && *v == Value(key_->value);
  }

  util::Symbol topic_symbol() const { return topic_; }
  const std::optional<FilterKey>& key() const { return key_; }

 private:
  util::Symbol topic_;
  std::optional<FilterKey> key_;
};

}  // namespace arcadia::events
