#include "repair/style_ops.hpp"

#include "model/types.hpp"
#include "util/log.hpp"

namespace arcadia::repair {

using acme::ElementRef;
using acme::EvalValue;

const model::Connector* client_connector(const model::System& system,
                                         const std::string& client,
                                         const StyleConventions& conv) {
  for (const model::Attachment& a : system.attachments()) {
    if (a.component == client && a.port == conv.request_port) {
      return &system.connector(a.connector);
    }
  }
  return nullptr;
}

std::string group_of_client(const model::System& system,
                            const std::string& client,
                            const StyleConventions& conv) {
  const model::Connector* conn = client_connector(system, client, conv);
  if (!conn) return "";
  for (const model::Attachment& a : system.attachments_on(conn->name())) {
    if (a.component != client && a.role == conv.server_role) {
      return a.component;
    }
  }
  return "";
}

void perform_move(model::Transaction& txn, const model::System& system,
                  const std::string& client, const std::string& group,
                  const StyleConventions& conv) {
  const model::Connector* conn = client_connector(system, client, conv);
  if (!conn) {
    throw ModelError("move: client '" + client + "' has no connector");
  }
  const std::string old_group = group_of_client(system, client, conv);
  if (old_group == group) {
    throw ModelError("move: client '" + client + "' already on '" + group + "'");
  }
  if (!old_group.empty()) {
    txn.detach(model::Attachment{old_group, conv.provide_port, conn->name(),
                                 conv.server_role});
  }
  txn.attach(model::Attachment{group, conv.provide_port, conn->name(),
                               conv.server_role});
  // Journal the client itself so the repair engine knows whose monitoring
  // to re-deploy, and the translator knows the new assignment directly.
  txn.set_property({}, model::ElementKind::Component, client, "",
                   conv.bound_to_prop, model::PropertyValue(group));
}

void perform_add_server(model::Transaction& txn, const model::System& system,
                        const std::string& group,
                        const std::string& server_name,
                        const StyleConventions& conv) {
  const model::Component& grp = system.component(group);
  model::Component& server =
      txn.add_component({group}, server_name, model::cs::kServerT);
  server.set_property(model::cs::kPropIsActive, model::PropertyValue(true));
  server.set_property(conv.dynamic_prop, model::PropertyValue(true));
  const std::int64_t count =
      grp.property_or(model::cs::kPropReplication, model::PropertyValue(0))
          .as_int();
  txn.set_property({}, model::ElementKind::Component, group, "",
                   model::cs::kPropReplication,
                   model::PropertyValue(count + 1));
}

void perform_remove_server(model::Transaction& txn,
                           const model::System& system,
                           const std::string& group,
                           const std::string& server_name) {
  const model::Component& grp = system.component(group);
  txn.remove_component({group}, server_name);
  const std::int64_t count =
      grp.property_or(model::cs::kPropReplication, model::PropertyValue(0))
          .as_int();
  txn.set_property({}, model::ElementKind::Component, group, "",
                   model::cs::kPropReplication,
                   model::PropertyValue(count - 1));
}

namespace {

/// Model-only fallback used when no runtime is attached (unit tests,
/// model-layer demos): synthesize server names, read bandwidth from role
/// properties.
std::string synthesize_server_name(const model::System& system,
                                   const std::string& group) {
  const model::Component& grp = system.component(group);
  if (!grp.has_representation()) return group + "_srv1";
  const model::System& rep = grp.representation_const();
  for (int i = 1;; ++i) {
    std::string candidate = group + "_srv" + std::to_string(i);
    if (!rep.has_component(candidate)) return candidate;
  }
}

ElementRef group_ref(const model::System& system, const std::string& name) {
  return ElementRef::of_component(system, system.component(name));
}

}  // namespace

void register_client_server_ops(acme::Interpreter& interp,
                                const model::System& system,
                                RuntimeQueries* queries,
                                const StyleConventions& conventions,
                                Bandwidth min_bandwidth,
                                double load_improvement) {
  const StyleConventions conv = conventions;
  const model::System* sys = &system;

  // --- operators (element methods) ---

  interp.register_operator(
      "addServer",
      [sys, queries, conv, min_bandwidth](const ElementRef& target,
                                          std::vector<EvalValue>& args,
                                          model::Transaction& txn)
          -> EvalValue {
        if (!args.empty()) throw ScriptError("addServer() takes no arguments");
        const std::string group = target.name();
        std::string server;
        if (queries) {
          auto found = queries->find_spare_server(group, min_bandwidth);
          if (!found) {
            ARC_DEBUG << "addServer(" << group << "): no spare server";
            return EvalValue(false);
          }
          server = *found;
        } else {
          server = synthesize_server_name(*sys, group);
        }
        perform_add_server(txn, *sys, group, server, conv);
        return EvalValue(true);
      });

  interp.register_operator(
      "move",
      [sys, conv](const ElementRef& target, std::vector<EvalValue>& args,
                  model::Transaction& txn) -> EvalValue {
        if (args.size() != 1) {
          throw ScriptError("move(toGroup) takes one argument");
        }
        const std::string client = target.name();
        const std::string group = args[0].as_element().name();
        perform_move(txn, *sys, client, group, conv);
        return EvalValue(true);
      });

  interp.register_operator(
      "removeServer",
      [sys, queries](const ElementRef& target, std::vector<EvalValue>& args,
                     model::Transaction& txn) -> EvalValue {
        if (!args.empty()) {
          throw ScriptError("removeServer() takes no arguments");
        }
        const std::string group = target.name();
        std::string victim;
        if (queries) {
          auto found = queries->find_removable_server(group);
          if (!found) return EvalValue(false);
          victim = *found;
        } else {
          const model::Component& grp = sys->component(group);
          if (!grp.has_representation()) return EvalValue(false);
          for (const model::Component* s :
               grp.representation_const().components()) {
            if (s->property_or("dynamic", model::PropertyValue(false)).is_bool() &&
                s->property_or("dynamic", model::PropertyValue(false)).as_bool()) {
              victim = s->name();
              break;
            }
          }
          if (victim.empty()) return EvalValue(false);
        }
        perform_remove_server(txn, *sys, group, victim);
        return EvalValue(true);
      });

  // --- query functions ---

  interp.register_function(
      "roleOf", [sys, conv](std::vector<EvalValue>& args,
                            acme::EvalContext&) -> EvalValue {
        if (args.size() != 1) throw ScriptError("roleOf(client) takes one argument");
        const std::string client = args[0].as_element().name();
        const model::Connector* conn = client_connector(*sys, client, conv);
        if (!conn) return EvalValue::nil();
        if (!conn->has_role(conv.client_role)) return EvalValue::nil();
        return EvalValue(
            ElementRef::of_role(*sys, *conn, conn->role(conv.client_role)));
      });

  interp.register_function(
      "findGoodSGrp",
      [sys, queries, conv](std::vector<EvalValue>& args,
                           acme::EvalContext&) -> EvalValue {
        if (args.size() != 2) {
          throw ScriptError("findGoodSGrp(client, minBandwidth) takes two arguments");
        }
        const std::string client = args[0].as_element().name();
        const Bandwidth min_bw = Bandwidth::bps(args[1].as_number());
        if (queries) {
          auto found = queries->find_good_sgrp(client, min_bw);
          if (!found || !sys->has_component(*found)) return EvalValue::nil();
          return EvalValue(group_ref(*sys, *found));
        }
        // Model-only fallback: any group the client is NOT on.
        const std::string current = group_of_client(*sys, client, conv);
        for (const model::Component* c : sys->components()) {
          if (c->type_name() == model::cs::kServerGroupT &&
              c->name() != current) {
            return EvalValue(group_ref(*sys, c->name()));
          }
        }
        return EvalValue::nil();
      });

  interp.register_function(
      "findLessLoadedSGrp",
      [sys, queries, conv, min_bandwidth, load_improvement](
          std::vector<EvalValue>& args, acme::EvalContext&) -> EvalValue {
        if (args.size() != 2) {
          throw ScriptError(
              "findLessLoadedSGrp(client, excludeGroup) takes two arguments");
        }
        const std::string client = args[0].as_element().name();
        const std::string exclude = args[1].as_element().name();
        if (queries) {
          auto found = queries->find_less_loaded_sgrp(
              client, exclude, min_bandwidth, load_improvement);
          if (!found || !sys->has_component(*found)) return EvalValue::nil();
          return EvalValue(group_ref(*sys, *found));
        }
        // Model-only fallback: compare load properties.
        const model::Component& ex = sys->component(exclude);
        const double ex_load =
            ex.property_or(model::cs::kPropLoad, model::PropertyValue(0.0))
                .as_double();
        const model::Component* best = nullptr;
        double best_load = ex_load - load_improvement;
        for (const model::Component* c : sys->components()) {
          if (c->type_name() != model::cs::kServerGroupT || c->name() == exclude) {
            continue;
          }
          double load =
              c->property_or(model::cs::kPropLoad, model::PropertyValue(0.0))
                  .as_double();
          if (load < best_load) {
            best_load = load;
            best = c;
          }
        }
        return best ? EvalValue(group_ref(*sys, best->name())) : EvalValue::nil();
      });

  interp.register_function(
      "groupOf", [sys, conv](std::vector<EvalValue>& args,
                             acme::EvalContext&) -> EvalValue {
        if (args.size() != 1) throw ScriptError("groupOf(client) takes one argument");
        const std::string client = args[0].as_element().name();
        const std::string group = group_of_client(*sys, client, conv);
        if (group.empty()) return EvalValue::nil();
        return EvalValue(group_ref(*sys, group));
      });
}

}  // namespace arcadia::repair
