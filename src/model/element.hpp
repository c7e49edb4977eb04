// Architectural elements: components, connectors, ports, roles. This is the
// core graph vocabulary of Acme-like ADLs (Section 2): components are the
// computational nodes, connectors the interaction pathways, ports the
// component interfaces, roles the connector endpoints.
//
// Names and property keys are interned util::Symbols: the per-tick paths
// (gauge reports folding into properties, constraint evaluation) hash a
// dense integer instead of comparing strings. String-keyed overloads remain
// for call sites where a symbol is not already at hand; they intern once
// and delegate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/property.hpp"
#include "model/revision.hpp"
#include "util/error.hpp"
#include "util/symbol.hpp"

namespace arcadia::model {

class System;

enum class ElementKind { Component, Connector, Port, Role, System };

const char* to_string(ElementKind kind);

/// Common state: a name, a declared type (from a style), and a property
/// list.
class Element {
 public:
  Element(std::string name, std::string type_name)
      : name_(std::move(name)),
        type_name_(std::move(type_name)),
        name_sym_(util::Symbol::intern(name_)),
        type_sym_(util::Symbol::intern(type_name_)) {}
  virtual ~Element() = default;

  virtual ElementKind kind() const = 0;
  const std::string& name() const { return name_; }
  const std::string& type_name() const { return type_name_; }
  util::Symbol name_symbol() const { return name_sym_; }
  util::Symbol type_symbol() const { return type_sym_; }

  bool has_property(util::Symbol prop) const {
    return properties_.contains(prop);
  }
  bool has_property(std::string_view prop) const {
    return has_property(util::Symbol::intern(prop));
  }
  /// nullptr when absent.
  const PropertyValue* find_property(util::Symbol prop) const {
    return properties_.find(prop);
  }
  /// Throws ModelError when absent.
  const PropertyValue& property(util::Symbol prop) const;
  const PropertyValue& property(std::string_view prop) const {
    return property(util::Symbol::intern(prop));
  }
  PropertyValue property_or(util::Symbol prop, PropertyValue fallback) const;
  PropertyValue property_or(std::string_view prop,
                            PropertyValue fallback) const {
    return property_or(util::Symbol::intern(prop), std::move(fallback));
  }
  void set_property(util::Symbol prop, PropertyValue value) {
    properties_.insert_or_assign(prop, std::move(value));
    property_stamp_ = bump_property_clock();
  }
  void set_property(std::string_view prop, PropertyValue value) {
    set_property(util::Symbol::intern(prop), std::move(value));
  }
  /// Removes a property; returns whether it existed.
  bool clear_property(util::Symbol prop) {
    const bool existed = properties_.erase(prop);
    if (existed) property_stamp_ = bump_property_clock();
    return existed;
  }
  bool clear_property(std::string_view prop) {
    return clear_property(util::Symbol::intern(prop));
  }
  const util::SymbolMap<PropertyValue>& properties() const {
    return properties_;
  }

  /// Property-clock value of this element's most recent property write
  /// (0 = never written). Consumed by the incremental constraint checker.
  std::uint64_t property_stamp() const { return property_stamp_; }

  /// Rewind the stamp to a value captured before a journaled write —
  /// Transaction::rollback only. A rolled-back write restores the old value,
  /// so the pre-write stamp is again the truth; leaving the undo's own bump
  /// in place would advertise a change that no longer exists. Rewinding is
  /// safe in either direction because the checker treats any stamp change
  /// (not just advancement) as dirtying the element.
  void restore_property_stamp(std::uint64_t stamp) { property_stamp_ = stamp; }

 protected:
  void copy_properties_from(const Element& other) {
    properties_ = other.properties_;
    property_stamp_ = bump_property_clock();
  }

 private:
  std::string name_;
  std::string type_name_;
  util::Symbol name_sym_;
  util::Symbol type_sym_;
  util::SymbolMap<PropertyValue> properties_;
  std::uint64_t property_stamp_ = 0;
};

/// A component interface point.
class Port : public Element {
 public:
  using Element::Element;
  ElementKind kind() const override { return ElementKind::Port; }
  std::unique_ptr<Port> clone() const;
};

/// A connector endpoint.
class Role : public Element {
 public:
  using Element::Element;
  ElementKind kind() const override { return ElementKind::Role; }
  std::unique_ptr<Role> clone() const;
};

/// A computational element or data store. May carry a representation: a
/// nested System refining the component (the paper's ServerGrpRep holding
/// the replicated servers).
class Component : public Element {
 public:
  using Element::Element;
  ElementKind kind() const override { return ElementKind::Component; }

  Port& add_port(const std::string& name, const std::string& type_name);
  void remove_port(const std::string& name);
  bool has_port(util::Symbol name) const { return ports_.contains(name); }
  bool has_port(std::string_view name) const {
    return has_port(util::Symbol::intern(name));
  }
  Port& port(util::Symbol name);
  const Port& port(util::Symbol name) const;
  Port& port(std::string_view name) { return port(util::Symbol::intern(name)); }
  const Port& port(std::string_view name) const {
    return port(util::Symbol::intern(name));
  }
  std::vector<const Port*> ports() const;
  std::vector<Port*> ports();

  bool has_representation() const { return representation_ != nullptr; }
  /// Creates the representation on first use.
  System& representation();
  const System& representation_const() const;

  std::unique_ptr<Component> clone() const;

 private:
  util::SymbolMap<std::unique_ptr<Port>> ports_;
  std::unique_ptr<System> representation_;
};

/// An interaction pathway between components.
class Connector : public Element {
 public:
  using Element::Element;
  ElementKind kind() const override { return ElementKind::Connector; }

  Role& add_role(const std::string& name, const std::string& type_name);
  void remove_role(const std::string& name);
  bool has_role(util::Symbol name) const { return roles_.contains(name); }
  bool has_role(std::string_view name) const {
    return has_role(util::Symbol::intern(name));
  }
  /// nullptr when absent.
  Role* find_role(util::Symbol name) {
    std::unique_ptr<Role>* found = roles_.find(name);
    return found ? found->get() : nullptr;
  }
  Role& role(util::Symbol name);
  const Role& role(util::Symbol name) const;
  Role& role(std::string_view name) { return role(util::Symbol::intern(name)); }
  const Role& role(std::string_view name) const {
    return role(util::Symbol::intern(name));
  }
  std::vector<const Role*> roles() const;
  std::vector<Role*> roles();

  std::unique_ptr<Connector> clone() const;

 private:
  util::SymbolMap<std::unique_ptr<Role>> roles_;
};

}  // namespace arcadia::model
