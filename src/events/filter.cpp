#include "events/filter.hpp"

namespace arcadia::events {

const char* to_string(Op op) {
  switch (op) {
    case Op::Eq: return "==";
    case Op::Ne: return "!=";
    case Op::Lt: return "<";
    case Op::Le: return "<=";
    case Op::Gt: return ">";
    case Op::Ge: return ">=";
    case Op::Exists: return "exists";
    case Op::Prefix: return "prefix";
    case Op::Suffix: return "suffix";
    case Op::Contains: return "contains";
  }
  return "?";
}

void Filter::set_topic(std::string pattern) {
  topic_ = std::move(pattern);
  if (topic_.empty()) {
    kind_ = TopicKind::Any;
  } else if (topic_.back() == '*') {
    kind_ = TopicKind::Prefix;
  } else {
    kind_ = TopicKind::Exact;
    topic_sym_ = util::Symbol::intern(topic_);
  }
}

const AttrConstraint* Filter::routing_key() const {
  for (const AttrConstraint& c : constraints_) {
    if (c.op == Op::Eq && c.value.is_symbol()) return &c;
  }
  return nullptr;
}

bool Filter::matches(const Notification& n) const {
  switch (kind_) {
    case TopicKind::Any:
      break;
    case TopicKind::Exact:
      if (n.topic != topic_sym_) return false;
      break;
    case TopicKind::Prefix: {
      const std::string_view prefix(topic_.data(), topic_.size() - 1);
      if (n.topic.view().substr(0, prefix.size()) != prefix) return false;
      break;
    }
  }
  return matches_constraints(n);
}

bool Filter::matches_constraints(const Notification& n) const {
  for (const auto& c : constraints_) {
    if (!match_constraint(c, n)) return false;
  }
  return true;
}

bool Filter::match_constraint(const AttrConstraint& c, const Notification& n) {
  const Value* v = n.attributes.find(c.name);
  if (!v) return false;
  switch (c.op) {
    case Op::Exists:
      return true;
    // Symbol-vs-symbol equality is one integer compare — the dominant case
    // (gauge filters and probe attributes are both interned) never reaches
    // the out-of-line variant comparison.
    case Op::Eq:
      if (v->is_symbol() && c.value.is_symbol()) {
        return v->as_symbol() == c.value.as_symbol();
      }
      return *v == c.value;
    case Op::Ne:
      if (v->is_symbol() && c.value.is_symbol()) {
        return v->as_symbol() != c.value.as_symbol();
      }
      return *v != c.value;
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      int cmp = 0;
      if (!Value::compare(*v, c.value, cmp)) return false;
      switch (c.op) {
        case Op::Lt: return cmp < 0;
        case Op::Le: return cmp <= 0;
        case Op::Gt: return cmp > 0;
        default: return cmp >= 0;
      }
    }
    case Op::Prefix: {
      if (!v->is_string() || !c.value.is_string()) return false;
      const auto& s = v->as_string();
      const auto& p = c.value.as_string();
      return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
    }
    case Op::Suffix: {
      if (!v->is_string() || !c.value.is_string()) return false;
      const auto& s = v->as_string();
      const auto& p = c.value.as_string();
      return s.size() >= p.size() &&
             s.compare(s.size() - p.size(), p.size(), p) == 0;
    }
    case Op::Contains: {
      if (!v->is_string() || !c.value.is_string()) return false;
      return v->as_string().find(c.value.as_string()) != std::string::npos;
    }
  }
  return false;
}

}  // namespace arcadia::events
