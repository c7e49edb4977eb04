#include "model/system.hpp"

#include <algorithm>
#include <set>

namespace arcadia::model {

Component& System::add_component(const std::string& name,
                                 const std::string& type_name) {
  const util::Symbol key = util::Symbol::intern(name);
  if (components_.contains(key)) {
    throw ModelError("system '" + name_ + "' already has component '" + name +
                     "'");
  }
  auto& stored = components_.insert_or_assign(
      key, std::make_unique<Component>(name, type_name));
  bump_structure_clock();
  return *stored;
}

void System::remove_component(const std::string& name) {
  const util::Symbol key = util::Symbol::intern(name);
  if (!components_.contains(key)) {
    throw ModelError("system '" + name_ + "' has no component '" + name + "'");
  }
  attachments_.erase(
      std::remove_if(attachments_.begin(), attachments_.end(),
                     [&](const Attachment& a) { return a.component == name; }),
      attachments_.end());
  components_.erase(key);
  bump_structure_clock();
}

Connector& System::add_connector(const std::string& name,
                                 const std::string& type_name) {
  const util::Symbol key = util::Symbol::intern(name);
  if (connectors_.contains(key)) {
    throw ModelError("system '" + name_ + "' already has connector '" + name +
                     "'");
  }
  auto& stored = connectors_.insert_or_assign(
      key, std::make_unique<Connector>(name, type_name));
  bump_structure_clock();
  return *stored;
}

void System::remove_connector(const std::string& name) {
  const util::Symbol key = util::Symbol::intern(name);
  if (!connectors_.contains(key)) {
    throw ModelError("system '" + name_ + "' has no connector '" + name + "'");
  }
  attachments_.erase(
      std::remove_if(attachments_.begin(), attachments_.end(),
                     [&](const Attachment& a) { return a.connector == name; }),
      attachments_.end());
  connectors_.erase(key);
  bump_structure_clock();
}

void System::attach(const Attachment& a) {
  Component& comp = component(a.component);
  if (!comp.has_port(a.port)) {
    throw ModelError("attach: component '" + a.component + "' has no port '" +
                     a.port + "'");
  }
  Connector& conn = connector(a.connector);
  if (!conn.has_role(a.role)) {
    throw ModelError("attach: connector '" + a.connector + "' has no role '" +
                     a.role + "'");
  }
  if (std::find(attachments_.begin(), attachments_.end(), a) !=
      attachments_.end()) {
    throw ModelError("attach: duplicate attachment " + a.component + "." +
                     a.port + " <-> " + a.connector + "." + a.role);
  }
  attachments_.push_back(a);
  bump_structure_clock();
}

void System::detach(const Attachment& a) {
  auto it = std::find(attachments_.begin(), attachments_.end(), a);
  if (it == attachments_.end()) {
    throw ModelError("detach: no attachment " + a.component + "." + a.port +
                     " <-> " + a.connector + "." + a.role);
  }
  attachments_.erase(it);
  bump_structure_clock();
}

Component& System::adopt_component(std::unique_ptr<Component> component) {
  const util::Symbol key = component->name_symbol();
  if (components_.contains(key)) {
    throw ModelError("adopt: duplicate component '" + component->name() + "'");
  }
  auto& stored = components_.insert_or_assign(key, std::move(component));
  bump_structure_clock();
  return *stored;
}

Connector& System::adopt_connector(std::unique_ptr<Connector> connector) {
  const util::Symbol key = connector->name_symbol();
  if (connectors_.contains(key)) {
    throw ModelError("adopt: duplicate connector '" + connector->name() + "'");
  }
  auto& stored = connectors_.insert_or_assign(key, std::move(connector));
  bump_structure_clock();
  return *stored;
}

std::unique_ptr<Component> System::release_component(const std::string& name) {
  std::unique_ptr<Component>* found =
      components_.find(util::Symbol::intern(name));
  if (!found) {
    throw ModelError("release: no component '" + name + "'");
  }
  auto out = std::move(*found);
  components_.erase(out->name_symbol());
  bump_structure_clock();
  return out;
}

std::unique_ptr<Connector> System::release_connector(const std::string& name) {
  std::unique_ptr<Connector>* found =
      connectors_.find(util::Symbol::intern(name));
  if (!found) {
    throw ModelError("release: no connector '" + name + "'");
  }
  auto out = std::move(*found);
  connectors_.erase(out->name_symbol());
  bump_structure_clock();
  return out;
}

Component& System::component(util::Symbol name) {
  std::unique_ptr<Component>* found = components_.find(name);
  if (!found) {
    throw ModelError("system '" + name_ + "' has no component '" + name.str() +
                     "'");
  }
  return **found;
}

const Component& System::component(util::Symbol name) const {
  return const_cast<System*>(this)->component(name);
}

Connector& System::connector(util::Symbol name) {
  std::unique_ptr<Connector>* found = connectors_.find(name);
  if (!found) {
    throw ModelError("system '" + name_ + "' has no connector '" + name.str() +
                     "'");
  }
  return **found;
}

const Connector& System::connector(util::Symbol name) const {
  return const_cast<System*>(this)->connector(name);
}

std::vector<Component*> System::components() {
  std::vector<Component*> out;
  out.reserve(components_.size());
  for (auto& e : components_) out.push_back(e.value.get());
  return out;
}

std::vector<const Component*> System::components() const {
  std::vector<const Component*> out;
  out.reserve(components_.size());
  for (const auto& e : components_) out.push_back(e.value.get());
  return out;
}

std::vector<Connector*> System::connectors() {
  std::vector<Connector*> out;
  out.reserve(connectors_.size());
  for (auto& e : connectors_) out.push_back(e.value.get());
  return out;
}

std::vector<const Connector*> System::connectors() const {
  std::vector<const Connector*> out;
  out.reserve(connectors_.size());
  for (const auto& e : connectors_) out.push_back(e.value.get());
  return out;
}

bool System::connected(const std::string& a, const std::string& b) const {
  // One pass collects the connectors `a` is attached to, a second finds `b`
  // on one of them: two scans of the attachments, not one per connector.
  // An attachment may still name a connector released since, so the shared
  // connector must also exist.
  std::vector<const std::string*> of_a;
  for (const Attachment& att : attachments_) {
    if (att.component == a) of_a.push_back(&att.connector);
  }
  if (of_a.empty()) return false;
  for (const Attachment& att : attachments_) {
    if (att.component != b) continue;
    for (const std::string* conn : of_a) {
      if (*conn != att.connector) continue;
      // A connector's name was interned when it was added, so a lock-free
      // lookup suffices.
      const std::optional<util::Symbol> key = util::Symbol::lookup(*conn);
      if (key && connectors_.contains(*key)) return true;
    }
  }
  return false;
}

bool System::attached(const std::string& component, const std::string& port,
                      const std::string& connector,
                      const std::string& role) const {
  Attachment a{component, port, connector, role};
  return std::find(attachments_.begin(), attachments_.end(), a) !=
         attachments_.end();
}

std::vector<const Connector*> System::connectors_of(
    const std::string& component) const {
  std::set<std::string> names;
  for (const Attachment& a : attachments_) {
    if (a.component == component) names.insert(a.connector);
  }
  std::vector<const Connector*> out;
  for (const auto& n : names) out.push_back(&connector(n));
  return out;
}

std::vector<const Component*> System::components_on(
    const std::string& connector) const {
  std::set<std::string> names;
  for (const Attachment& a : attachments_) {
    if (a.connector == connector) names.insert(a.component);
  }
  std::vector<const Component*> out;
  for (const auto& n : names) out.push_back(&component(n));
  return out;
}

std::vector<const Component*> System::neighbors(
    const std::string& component) const {
  std::set<std::string> names;
  for (const Connector* conn : connectors_of(component)) {
    for (const Component* c : components_on(conn->name())) {
      if (c->name() != component) names.insert(c->name());
    }
  }
  std::vector<const Component*> out;
  for (const auto& n : names) out.push_back(&this->component(n));
  return out;
}

std::vector<Attachment> System::attachments_of(
    const std::string& component) const {
  std::vector<Attachment> out;
  for (const Attachment& a : attachments_) {
    if (a.component == component) out.push_back(a);
  }
  return out;
}

std::vector<Attachment> System::attachments_on(
    const std::string& connector) const {
  std::vector<Attachment> out;
  for (const Attachment& a : attachments_) {
    if (a.connector == connector) out.push_back(a);
  }
  return out;
}

std::vector<std::string> System::structural_violations() const {
  std::vector<std::string> out;
  std::set<std::pair<std::string, std::string>> seen_roles;
  for (const Attachment& a : attachments_) {
    const std::unique_ptr<Component>* comp =
        components_.find(util::Symbol::intern(a.component));
    if (!comp) {
      out.push_back("attachment references missing component '" + a.component +
                    "'");
      continue;
    }
    if (!(*comp)->has_port(a.port)) {
      out.push_back("attachment references missing port '" + a.component +
                    "." + a.port + "'");
    }
    const std::unique_ptr<Connector>* conn =
        connectors_.find(util::Symbol::intern(a.connector));
    if (!conn) {
      out.push_back("attachment references missing connector '" + a.connector +
                    "'");
      continue;
    }
    if (!(*conn)->has_role(a.role)) {
      out.push_back("attachment references missing role '" + a.connector +
                    "." + a.role + "'");
    }
    auto key = std::make_pair(a.connector, a.role);
    if (!seen_roles.insert(key).second) {
      out.push_back("role '" + a.connector + "." + a.role +
                    "' attached more than once");
    }
  }
  // Recurse into representations.
  for (const auto& e : components_) {
    if (!e.value->has_representation()) continue;
    for (const std::string& v :
         e.value->representation_const().structural_violations()) {
      out.push_back(e.value->name() + ": " + v);
    }
  }
  return out;
}

std::unique_ptr<System> System::clone() const {
  auto copy = std::make_unique<System>(name_);
  for (const auto& e : components_) {
    copy->components_.insert_or_assign(e.key, e.value->clone());
  }
  for (const auto& e : connectors_) {
    copy->connectors_.insert_or_assign(e.key, e.value->clone());
  }
  copy->attachments_ = attachments_;
  return copy;
}

}  // namespace arcadia::model
