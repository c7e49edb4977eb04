// The architectural model: a graph of components and connectors joined by
// attachments (port <-> role). Systems nest: a component's representation
// is itself a System.
//
// Components and connectors are keyed by interned util::Symbols (see
// util/symbol.hpp); lookups on the adaptation loop's hot paths are integer
// hashes. Iteration order is name-sorted, matching the std::map the
// containers replaced, so every run stays deterministic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/element.hpp"
#include "model/revision.hpp"
#include "util/symbol.hpp"

namespace arcadia::model {

/// A port<->role binding: component `component`'s port `port` is attached
/// to connector `connector`'s role `role`.
struct Attachment {
  std::string component;
  std::string port;
  std::string connector;
  std::string role;

  friend bool operator==(const Attachment&, const Attachment&) = default;
};

class System {
 public:
  explicit System(std::string name = "system") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- structure mutation (raw; prefer Transaction for repairs) ----
  Component& add_component(const std::string& name,
                           const std::string& type_name);
  /// Removes the component and every attachment referencing it.
  void remove_component(const std::string& name);
  Connector& add_connector(const std::string& name,
                           const std::string& type_name);
  void remove_connector(const std::string& name);
  /// Validates that all four endpoints exist; throws ModelError otherwise.
  void attach(const Attachment& a);
  /// Removes an attachment; throws ModelError when absent.
  void detach(const Attachment& a);

  /// Move a fully-built component in (used by transaction rollback).
  Component& adopt_component(std::unique_ptr<Component> component);
  Connector& adopt_connector(std::unique_ptr<Connector> connector);
  std::unique_ptr<Component> release_component(const std::string& name);
  std::unique_ptr<Connector> release_connector(const std::string& name);

  // ---- lookup ----
  bool has_component(util::Symbol name) const {
    return components_.contains(name);
  }
  bool has_component(std::string_view name) const {
    return has_component(util::Symbol::intern(name));
  }
  bool has_connector(util::Symbol name) const {
    return connectors_.contains(name);
  }
  bool has_connector(std::string_view name) const {
    return has_connector(util::Symbol::intern(name));
  }
  /// nullptr when absent: one lookup where has_X() + X() would take two.
  Component* find_component(util::Symbol name) {
    std::unique_ptr<Component>* found = components_.find(name);
    return found ? found->get() : nullptr;
  }
  Connector* find_connector(util::Symbol name) {
    std::unique_ptr<Connector>* found = connectors_.find(name);
    return found ? found->get() : nullptr;
  }
  Component& component(util::Symbol name);
  const Component& component(util::Symbol name) const;
  Component& component(std::string_view name) {
    return component(util::Symbol::intern(name));
  }
  const Component& component(std::string_view name) const {
    return component(util::Symbol::intern(name));
  }
  Connector& connector(util::Symbol name);
  const Connector& connector(util::Symbol name) const;
  Connector& connector(std::string_view name) {
    return connector(util::Symbol::intern(name));
  }
  const Connector& connector(std::string_view name) const {
    return connector(util::Symbol::intern(name));
  }
  std::vector<Component*> components();
  std::vector<const Component*> components() const;
  std::vector<Connector*> connectors();
  std::vector<const Connector*> connectors() const;
  const std::vector<Attachment>& attachments() const { return attachments_; }

  // ---- graph queries (the predicates Armani expressions use) ----
  /// True when some connector has one role attached to a port of `a` and
  /// another attached to a port of `b`.
  bool connected(const std::string& a, const std::string& b) const;
  /// True when the named port/role pair is attached.
  bool attached(const std::string& component, const std::string& port,
                const std::string& connector, const std::string& role) const;
  /// Connectors with at least one role attached to `component`.
  std::vector<const Connector*> connectors_of(const std::string& component) const;
  /// Components attached (via any connector role) to `connector`.
  std::vector<const Component*> components_on(const std::string& connector) const;
  /// Components connected to `component` through any connector.
  std::vector<const Component*> neighbors(const std::string& component) const;
  /// The attachments involving a component (optionally a specific port).
  std::vector<Attachment> attachments_of(const std::string& component) const;
  /// The attachments involving a connector.
  std::vector<Attachment> attachments_on(const std::string& connector) const;

  /// Structural well-formedness: every attachment references an existing
  /// component port and connector role, and no role is attached twice.
  /// Returns human-readable violations (empty = valid).
  std::vector<std::string> structural_violations() const;

  std::unique_ptr<System> clone() const;

 private:
  std::string name_;
  util::SymbolMap<std::unique_ptr<Component>> components_;
  util::SymbolMap<std::unique_ptr<Connector>> connectors_;
  std::vector<Attachment> attachments_;
};

}  // namespace arcadia::model
