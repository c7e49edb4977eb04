// Content-based subscription filters: a topic pattern plus a conjunction of
// attribute constraints, following Siena's filter model.
//
// The topic pattern is classified once at construction — exact (interned
// symbol, id-compared), prefix ("probe.*"), or any — so the buses can route
// exact-topic subscriptions through a topic index and only string-compare
// the wildcard minority. Constraint names are interned; Eq/Ne string
// constraint values are stored as symbols so the common "client == User3"
// match is an integer compare against a symbol-valued attribute, and so the
// buses can index such a filter under that symbol (routing_key()).
#pragma once

#include <string>
#include <vector>

#include "events/notification.hpp"

namespace arcadia::events {

enum class Op {
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  Exists,    ///< attribute present, value ignored
  Prefix,    ///< string starts-with
  Suffix,    ///< string ends-with
  Contains,  ///< string substring
};

const char* to_string(Op op);

struct AttrConstraint {
  util::Symbol name;
  Op op = Op::Exists;
  Value value;
};

/// Conjunctive filter. Topic pattern: exact match, "" (all topics), or a
/// prefix ending in '*' ("gauge.*").
class Filter {
 public:
  enum class TopicKind {
    Any,     ///< "" — every topic
    Exact,   ///< id-compared against the notification's interned topic
    Prefix,  ///< pattern ending in '*'
  };

  Filter() = default;
  static Filter topic(std::string pattern) {
    Filter f;
    f.set_topic(std::move(pattern));
    return f;
  }
  static Filter topic(util::Symbol pattern) {
    // Classified like the string overload, so a '*'-suffixed symbol is a
    // prefix filter, not an exact match against the literal pattern text.
    Filter f;
    f.set_topic(pattern.str());
    return f;
  }
  static Filter any() { return Filter(); }

  Filter& where(util::Symbol name, Op op, Value value = Value()) {
    // Store Eq/Ne string operands interned: equality is textual either way,
    // and a symbol-vs-symbol compare is one integer op on the match path.
    if ((op == Op::Eq || op == Op::Ne) && value.is_string()) {
      value = Value(value.to_symbol());
    }
    constraints_.push_back({name, op, std::move(value)});
    return *this;
  }
  Filter& where(std::string_view name, Op op, Value value = Value()) {
    return where(util::Symbol::intern(name), op, std::move(value));
  }

  bool matches(const Notification& n) const;
  /// The attribute-constraint half of matches(); used by the indexed buses,
  /// which have already routed on the topic.
  bool matches_constraints(const Notification& n) const;

  /// The constraint the buses route this filter by: its first Eq
  /// constraint with a symbol operand (where() interns Eq string
  /// operands), or nullptr. A notification can match only if its value
  /// for the key's attribute equals the key's symbol by text.
  const AttrConstraint* routing_key() const;

  TopicKind topic_kind() const { return kind_; }
  /// Interned topic for Exact filters (empty symbol otherwise).
  util::Symbol topic_symbol() const { return topic_sym_; }
  const std::string& topic_pattern() const { return topic_; }
  const std::vector<AttrConstraint>& constraints() const { return constraints_; }

 private:
  void set_topic(std::string pattern);
  static bool match_constraint(const AttrConstraint& c, const Notification& n);
  std::string topic_;
  util::Symbol topic_sym_;  ///< set for Exact
  TopicKind kind_ = TopicKind::Any;
  std::vector<AttrConstraint> constraints_;
};

}  // namespace arcadia::events
