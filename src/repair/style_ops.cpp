#include "repair/style_ops.hpp"

#include <memory>

#include "model/types.hpp"
#include "task/task.hpp"
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

OpClass op_class_of(const model::OpRecord& op, const StyleConventions& conv) {
  if (op.kind == model::OpKind::SetProperty) {
    const bool moves =
        op.property == conv.bound_to_prop && op.value.is_string();
    return moves ? OpClass::Move : OpClass::Replay;
  }
  if (op.scope.empty()) return OpClass::Replay;  // root-scope structure
  if (op.kind == model::OpKind::AddComponent) return OpClass::Recruit;
  if (op.kind == model::OpKind::RemoveComponent) return OpClass::Release;
  return OpClass::Replay;
}

namespace {

using Args = std::vector<EvalValue>;

/// What the style's operators and query functions read when they run.
struct StyleContext {
  const model::System* system = nullptr;
  RuntimeQueries* queries = nullptr;  ///< null: model-only fallbacks
  StyleConventions conventions;
  Bandwidth min_bandwidth;
  double load_improvement = 0.0;
};

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

// ---- operators (element methods) ----

EvalValue add_server(const StyleContext& ctx, const ElementRef& target,
                     Args&, model::Transaction& txn) {
  const std::string group = target.name();
  std::string server;
  if (ctx.queries) {
    auto found = ctx.queries->find_spare_server(group, ctx.min_bandwidth);
    if (!found) {
      ARC_DEBUG << "addServer(" << group << "): no spare server";
      return EvalValue(false);
    }
    server = *found;
  } else {
    server = synthesize_server_name(*ctx.system, group);
  }
  perform_add_server(txn, *ctx.system, group, server, ctx.conventions);
  return EvalValue(true);
}

EvalValue move(const StyleContext& ctx, const ElementRef& target, Args& args,
               model::Transaction& txn) {
  perform_move(txn, *ctx.system, target.name(), args[0].as_element().name(),
               ctx.conventions);
  return EvalValue(true);
}

EvalValue remove_server(const StyleContext& ctx, const ElementRef& target,
                        Args&, model::Transaction& txn) {
  const std::string group = target.name();
  std::string victim;
  if (ctx.queries) {
    auto found = ctx.queries->find_removable_server(group);
    if (!found) return EvalValue(false);
    victim = *found;
  } else {
    // Model-only: the first server perform_add_server marked dynamic.
    const model::Component& grp = ctx.system->component(group);
    if (!grp.has_representation()) return EvalValue(false);
    for (const model::Component* s : grp.representation_const().components()) {
      const model::PropertyValue dynamic = s->property_or(
          ctx.conventions.dynamic_prop, model::PropertyValue(false));
      if (dynamic.is_bool() && dynamic.as_bool()) {
        victim = s->name();
        break;
      }
    }
    if (victim.empty()) return EvalValue(false);
  }
  perform_remove_server(txn, *ctx.system, group, victim);
  return EvalValue(true);
}

// ---- query functions ----

EvalValue role_of(const StyleContext& ctx, Args& args) {
  const StyleConventions& conv = ctx.conventions;
  const model::Connector* conn =
      client_connector(*ctx.system, args[0].as_element().name(), conv);
  if (!conn || !conn->has_role(conv.client_role)) return EvalValue::nil();
  return EvalValue(
      ElementRef::of_role(*ctx.system, *conn, conn->role(conv.client_role)));
}

EvalValue group_of(const StyleContext& ctx, Args& args) {
  const std::string group = group_of_client(
      *ctx.system, args[0].as_element().name(), ctx.conventions);
  if (group.empty()) return EvalValue::nil();
  return EvalValue(group_ref(*ctx.system, group));
}

EvalValue find_good_sgrp(const StyleContext& ctx, Args& args) {
  const model::System& sys = *ctx.system;
  const std::string client = args[0].as_element().name();
  const Bandwidth min_bw = Bandwidth::bps(args[1].as_number());
  if (ctx.queries) {
    auto found = ctx.queries->find_good_sgrp(client, min_bw);
    if (!found || !sys.has_component(*found)) return EvalValue::nil();
    return EvalValue(group_ref(sys, *found));
  }
  // Model-only fallback: any group the client is NOT on.
  const std::string current = group_of_client(sys, client, ctx.conventions);
  for (const model::Component* c : sys.components()) {
    if (c->type_name() == model::cs::kServerGroupT && c->name() != current) {
      return EvalValue(group_ref(sys, c->name()));
    }
  }
  return EvalValue::nil();
}

EvalValue find_less_loaded_sgrp(const StyleContext& ctx, Args& args) {
  const model::System& sys = *ctx.system;
  const std::string client = args[0].as_element().name();
  const std::string exclude = args[1].as_element().name();
  if (ctx.queries) {
    auto found = ctx.queries->find_less_loaded_sgrp(
        client, exclude, ctx.min_bandwidth, ctx.load_improvement);
    if (!found || !sys.has_component(*found)) return EvalValue::nil();
    return EvalValue(group_ref(sys, *found));
  }
  // Model-only fallback: compare load properties.
  const double ex_load = sys.component(exclude)
                             .property_or(model::cs::kPropLoad,
                                          model::PropertyValue(0.0))
                             .as_double();
  const model::Component* best = nullptr;
  double best_load = ex_load - ctx.load_improvement;
  for (const model::Component* c : sys.components()) {
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
  return best ? EvalValue(group_ref(sys, best->name())) : EvalValue::nil();
}

/// One operator of the style: its script signature and effect footprint
/// (what the checker, the analyses and the plan optimizer read), its
/// Table-1 class, and its implementation.
struct StyleOperator {
  acme::OperatorEffect decl;
  OpClass op_class;
  const char* params;  ///< parameter names, as the arity error shows them
  EvalValue (*run)(const StyleContext& ctx, const ElementRef& target,
                   Args& args, model::Transaction& txn);
};

const std::vector<StyleOperator>& client_server_operators() {
  using D = acme::EffectDirection;
  namespace cs = model::cs;
  // Footprints: `writes` are the properties the implementation journals
  // via SetProperty; `influences` are the environment-mediated
  // predictions the paper's Table 1 implies.
  static const std::vector<StyleOperator> operators = {
      {{.name = "addServer",
        .target_type = cs::kServerGroupT,
        .args = 0,
        .writes = {cs::kPropReplication},
        .influences = {{cs::kPropReplication, D::Increase},
                       {cs::kPropLoad, D::Decrease},
                       {cs::kPropUtilization, D::Decrease},
                       {cs::kPropAvgLatency, D::Decrease}},
        .adds_element = true},
       OpClass::Recruit, "", add_server},
      {{.name = "move",
        .target_type = cs::kClientT,
        .args = 1,
        .writes = {},  // + bound_to_prop (client_server_vocabulary)
        .influences = {{cs::kPropAvgLatency, D::Decrease},
                       {cs::kPropMaxLatency, D::Decrease},
                       {cs::kPropBandwidth, D::Increase},
                       {cs::kPropLoad, D::Unknown},
                       {cs::kPropUtilization, D::Unknown}},
        .rewires = true},
       OpClass::Move, "toGroup", move},
      {{.name = "removeServer",
        .target_type = cs::kServerGroupT,
        .args = 0,
        .writes = {cs::kPropReplication},
        .influences = {{cs::kPropReplication, D::Decrease},
                       {cs::kPropLoad, D::Increase},
                       {cs::kPropUtilization, D::Increase}},
        .removes_element = true},
       OpClass::Release, "", remove_server},
  };
  return operators;
}

/// A query function of the style: its checker signature and its
/// implementation.
struct StyleFunction {
  acme::FunctionSig sig;
  const char* params;  ///< parameter names, as the arity error shows them
  EvalValue (*run)(const StyleContext& ctx, Args& args);
};

const std::vector<StyleFunction>& client_server_functions() {
  static const std::vector<StyleFunction> functions = {
      {{"roleOf", 1, model::cs::kClientRoleT}, "client", role_of},
      {{"findGoodSGrp", 2, model::cs::kServerGroupT},
       "client, minBandwidth",
       find_good_sgrp},
      {{"findLessLoadedSGrp", 2, model::cs::kServerGroupT},
       "client, excludeGroup",
       find_less_loaded_sgrp},
      {{"groupOf", 1, model::cs::kServerGroupT}, "client", group_of},
  };
  return functions;
}

}  // namespace

OpClass operator_class(const std::string& name) {
  for (const StyleOperator& op : client_server_operators()) {
    if (op.decl.name == name) return op.op_class;
  }
  return OpClass::Replay;
}

acme::Vocabulary client_server_vocabulary(const StyleConventions& conv) {
  acme::Vocabulary vocabulary;
  for (const StyleOperator& op : client_server_operators()) {
    acme::OperatorEffect decl = op.decl;
    if (op.op_class == OpClass::Move) decl.writes.insert(conv.bound_to_prop);
    vocabulary.operators.push_back(std::move(decl));
  }
  for (const StyleFunction& fn : client_server_functions()) {
    vocabulary.functions.push_back(fn.sig);
  }
  for (const auto& [name, value] : task::task_globals({})) {
    vocabulary.globals.insert(name);
  }
  return vocabulary;
}

void register_client_server_ops(acme::Interpreter& interp,
                                const model::System& system,
                                RuntimeQueries* queries,
                                const StyleConventions& conventions,
                                Bandwidth min_bandwidth,
                                double load_improvement) {
  const auto ctx = std::make_shared<const StyleContext>(StyleContext{
      &system, queries, conventions, min_bandwidth, load_improvement});
  for (const StyleOperator& op : client_server_operators()) {
    interp.register_operator(
        op.decl.name, [ctx, &op](const ElementRef& target, Args& args,
                                 model::Transaction& txn) -> EvalValue {
          acme::check_arity(op.decl.name.c_str(), op.params, op.decl.args,
                            args.size());
          return op.run(*ctx, target, args, txn);
        });
  }
  for (const StyleFunction& fn : client_server_functions()) {
    interp.register_function(
        fn.sig.name,
        [ctx, &fn](Args& args, acme::EvalContext&) -> EvalValue {
          acme::check_arity(fn.sig.name.c_str(), fn.params, fn.sig.args,
                            args.size());
          return fn.run(*ctx, args);
        });
  }
}

}  // namespace arcadia::repair
