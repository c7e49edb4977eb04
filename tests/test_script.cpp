// Repair-script parsing and interpretation: Figure 5 fidelity, commit/abort
// semantics, operator dispatch through transactions, and equivalence of the
// shipped strategies with an independent C++ reference.
#include <gtest/gtest.h>

#include "acme/interpreter.hpp"
#include "acme/script.hpp"
#include "model/types.hpp"
#include "repair/engine.hpp"
#include "repair/scripts.hpp"
#include "repair/style_ops.hpp"
#include "task/task.hpp"

namespace arcadia::acme {
namespace {

namespace cs = model::cs;

TEST(ScriptParserTest, ParsesFigure5Verbatim) {
  Script script = parse_script(figure5_script());
  ASSERT_EQ(script.invariants.size(), 2u);
  EXPECT_EQ(script.invariants[0].name, "r");
  EXPECT_EQ(script.invariants[0].handler, "fixLatency");
  EXPECT_EQ(script.invariants[0].args, std::vector<std::string>{"r"});
  ASSERT_NE(script.find_strategy("fixLatency"), nullptr);
  ASSERT_NE(script.find_tactic("fixServerLoad"), nullptr);
  ASSERT_NE(script.find_tactic("fixBandwidth"), nullptr);
  EXPECT_EQ(script.find_tactic("fixServerLoad")->return_type, "boolean");
  EXPECT_EQ(script.find_tactic("fixBandwidth")->params.size(), 2u);
}

TEST(ScriptParserTest, ParsesExtendedScript) {
  Script script = parse_script(repair::extended_script());
  EXPECT_NE(script.find_strategy("fixLatency"), nullptr);
  EXPECT_NE(script.find_strategy("trimServers"), nullptr);
  EXPECT_NE(script.find_tactic("fixLoadByMove"), nullptr);
  EXPECT_EQ(script.invariants.size(), 2u);
}

TEST(ScriptParserTest, SyntaxErrorsPositioned) {
  EXPECT_THROW(parse_script("strategy s() = { commit; }"), ParseError);
  EXPECT_THROW(parse_script("tactic t() = { let = 3; }"), ParseError);
  EXPECT_THROW(parse_script("unexpected"), ParseError);
  EXPECT_THROW(parse_script("invariant x > 1"), ParseError);  // missing ';'
}

TEST(ScriptParserTest, ElseIfChains) {
  Script script = parse_script(
      "strategy s(x : ClientT) = {"
      "  if (true) { commit repair; }"
      "  else if (false) { abort A; }"
      "  else { abort B; }"
      "}");
  ASSERT_EQ(script.strategies.size(), 1u);
}

// ---- interpretation against the paper's model ----

struct ScriptRig {
  model::System sys{"GridStorage"};
  Script script;
  std::unique_ptr<Interpreter> interp;

  explicit ScriptRig(const char* source = repair::extended_script())
      : script(parse_script(source)) {
    auto& g1 = sys.add_component("ServerGrp1", cs::kServerGroupT);
    g1.set_property("load", model::PropertyValue(9.0));  // overloaded
    g1.set_property("replicationCount", model::PropertyValue(3));
    g1.set_property("utilization", model::PropertyValue(0.9));
    g1.add_port("provide", cs::kProvidePortT);
    g1.representation().add_component("Server1", cs::kServerT);

    auto& g2 = sys.add_component("ServerGrp2", cs::kServerGroupT);
    g2.set_property("load", model::PropertyValue(1.0));
    g2.set_property("replicationCount", model::PropertyValue(2));
    g2.set_property("utilization", model::PropertyValue(0.4));
    g2.add_port("provide", cs::kProvidePortT);

    auto& c = sys.add_component("User3", cs::kClientT);
    c.set_property("averageLatency", model::PropertyValue(5.0));
    c.set_property("maxLatency", model::PropertyValue(2.0));
    c.add_port("request", cs::kRequestPortT);

    auto& conn = sys.add_connector("Conn_User3", cs::kConnT);
    conn.add_role("clientSide", cs::kClientRoleT)
        .set_property("bandwidth", model::PropertyValue(5e3));  // starved
    conn.add_role("serverSide", cs::kServerRoleT);
    sys.attach({"User3", "request", "Conn_User3", "clientSide"});
    sys.attach({"ServerGrp1", "provide", "Conn_User3", "serverSide"});

    interp = std::make_unique<Interpreter>(sys, script);
    repair::register_client_server_ops(
        *interp, sys, /*queries=*/nullptr, repair::StyleConventions{},
        task::PerformanceProfile{}.min_bandwidth,
        repair::RepairEngineConfig{}.load_improvement);
    interp->bind_global("maxServerLoad", EvalValue(6.0));
    interp->bind_global("minBandwidth", EvalValue(1e4));
    interp->bind_global("minUtilization", EvalValue(0.2));
    interp->bind_global("minReplicas", EvalValue(2.0));
  }

  EvalValue client_ref() {
    return EvalValue(ElementRef::of_component(sys, sys.component("User3")));
  }
  EvalValue group_ref(const std::string& g) {
    return EvalValue(ElementRef::of_component(sys, sys.component(g)));
  }
};

TEST(InterpreterTest, FixServerLoadGrowsOverloadedGroup) {
  ScriptRig rig;
  model::Transaction txn(rig.sys);
  StrategyOutcome out =
      rig.interp->run_strategy("fixLatency", {rig.client_ref()}, txn);
  EXPECT_TRUE(out.committed);
  ASSERT_FALSE(out.tactics_run.empty());
  EXPECT_EQ(out.tactics_run[0].first, "fixServerLoad");
  EXPECT_TRUE(out.tactics_run[0].second);
  txn.commit();
  // A server was added to the overloaded group and the count bumped.
  const model::Component& g1 = rig.sys.component("ServerGrp1");
  EXPECT_EQ(g1.property("replicationCount").as_int(), 4);
  EXPECT_EQ(g1.representation_const().components().size(), 2u);
}

TEST(InterpreterTest, FixBandwidthMovesWhenLoadFine) {
  ScriptRig rig;
  // No overload: the bandwidth tactic applies instead.
  rig.sys.component("ServerGrp1")
      .set_property("load", model::PropertyValue(1.0));
  model::Transaction txn(rig.sys);
  StrategyOutcome out =
      rig.interp->run_strategy("fixLatency", {rig.client_ref()}, txn);
  EXPECT_TRUE(out.committed);
  txn.commit();
  // Client now attached to ServerGrp2.
  EXPECT_TRUE(rig.sys.attached("ServerGrp2", "provide", "Conn_User3",
                               "serverSide"));
  EXPECT_FALSE(rig.sys.attached("ServerGrp1", "provide", "Conn_User3",
                                "serverSide"));
  EXPECT_EQ(rig.sys.component("User3").property("boundTo").as_string(),
            "ServerGrp2");
}

TEST(InterpreterTest, NoTacticApplicableAborts) {
  ScriptRig rig;
  rig.sys.component("ServerGrp1").set_property("load",
                                               model::PropertyValue(1.0));
  rig.sys.connector("Conn_User3")
      .role("clientSide")
      .set_property("bandwidth", model::PropertyValue(1e7));  // healthy
  model::Transaction txn(rig.sys);
  StrategyOutcome out =
      rig.interp->run_strategy("fixLatency", {rig.client_ref()}, txn);
  EXPECT_FALSE(out.committed);
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.abort_reason, "NoApplicableTactic");
  EXPECT_EQ(txn.op_count(), 0u);
}

TEST(InterpreterTest, AbortLeavesModelUntouchedAfterRollback) {
  // Figure 5 strict version: fixBandwidth aborts NoServerGroupFound when
  // no better group exists. Remove ServerGrp2 so the lookup fails.
  ScriptRig rig(figure5_script());
  rig.sys.component("ServerGrp1").set_property("load",
                                               model::PropertyValue(1.0));
  rig.sys.remove_component("ServerGrp2");
  model::Transaction txn(rig.sys);
  StrategyOutcome out =
      rig.interp->run_strategy("fixLatency", {rig.client_ref()}, txn);
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.abort_reason, "NoServerGroupFound");
  txn.rollback();
  EXPECT_TRUE(rig.sys.attached("ServerGrp1", "provide", "Conn_User3",
                               "serverSide"));
}

TEST(InterpreterTest, Figure5CommitsViaServerLoad) {
  ScriptRig rig(figure5_script());
  model::Transaction txn(rig.sys);
  StrategyOutcome out =
      rig.interp->run_strategy("fixLatency", {rig.client_ref()}, txn);
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.tactics_run.front().first, "fixServerLoad");
}

TEST(InterpreterTest, TrimServersRemovesDynamicReplica) {
  ScriptRig rig;
  // Mark the group underutilized with a removable dynamic server.
  auto& g1 = rig.sys.component("ServerGrp1");
  g1.set_property("utilization", model::PropertyValue(0.05));
  g1.set_property("replicationCount", model::PropertyValue(3));
  auto& dyn = g1.representation().add_component("ServerX", cs::kServerT);
  dyn.set_property("dynamic", model::PropertyValue(true));
  model::Transaction txn(rig.sys);
  StrategyOutcome out =
      rig.interp->run_strategy("trimServers", {rig.group_ref("ServerGrp1")}, txn);
  EXPECT_TRUE(out.committed);
  txn.commit();
  EXPECT_FALSE(g1.representation_const().has_component("ServerX"));
  EXPECT_EQ(g1.property("replicationCount").as_int(), 2);
}

TEST(InterpreterTest, TrimRespectsMinReplicas) {
  ScriptRig rig;
  auto& g2 = rig.sys.component("ServerGrp2");
  g2.set_property("utilization", model::PropertyValue(0.0));
  // replicationCount already 2 == minReplicas.
  model::Transaction txn(rig.sys);
  StrategyOutcome out =
      rig.interp->run_strategy("trimServers", {rig.group_ref("ServerGrp2")}, txn);
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.abort_reason, "NothingToTrim");
}

TEST(InterpreterTest, UnknownStrategyThrows) {
  ScriptRig rig;
  model::Transaction txn(rig.sys);
  EXPECT_THROW(rig.interp->run_strategy("nope", {}, txn), ScriptError);
}

TEST(InterpreterTest, ArgumentArityChecked) {
  ScriptRig rig;
  model::Transaction txn(rig.sys);
  EXPECT_THROW(rig.interp->run_strategy("fixLatency", {}, txn), ScriptError);
}

TEST(InterpreterTest, RunTacticDirectly) {
  ScriptRig rig;
  model::Transaction txn(rig.sys);
  EXPECT_TRUE(rig.interp->run_tactic("fixServerLoad", {rig.client_ref()}, txn));
  txn.rollback();
  model::Transaction txn2(rig.sys);
  rig.sys.component("ServerGrp1").set_property("load",
                                               model::PropertyValue(0.0));
  EXPECT_FALSE(rig.interp->run_tactic("fixServerLoad", {rig.client_ref()}, txn2));
}

TEST(InterpreterTest, OperatorOutsideTransactionRejected) {
  ScriptRig rig;
  auto expr = parse_expression(
      "(select one g : ServerGroupT in self.Components | true).addServer()");
  EXPECT_THROW(rig.interp->eval(*expr), ScriptError);
}

// ---- script/reference equivalence ----
//
// An independent C++ transcription of the shipped fixLatency and
// trimServers strategies (model-only: no runtime queries), kept as a test
// oracle for the script's decisions. Repairs run only as scripts; this
// reference exists to check them.
namespace reference {

struct TacticContext {
  const model::System& system;
  model::Transaction& txn;
  repair::StyleConventions conventions;
  double max_server_load = 6.0;
  Bandwidth min_bandwidth = Bandwidth::kbps(10);
  double min_utilization = 0.2;
  std::int64_t min_replicas = 2;
  double load_improvement = 2.0;
  /// The element whose constraint fired.
  std::string element;
};

/// Returns true when the tactic applied; throws ScriptError/ModelError on
/// hard failure (treated as abort).
using Tactic = bool (*)(TacticContext&);

/// Guarded tactics run in order; the first that applies commits.
struct Strategy {
  std::vector<std::pair<std::string, Tactic>> tactics;

  StrategyOutcome run(TacticContext& ctx) const {
    StrategyOutcome outcome;
    try {
      for (const auto& [name, tactic] : tactics) {
        const bool applied = tactic(ctx);
        outcome.tactics_run.emplace_back(name, applied);
        if (applied) {
          outcome.committed = true;
          return outcome;
        }
      }
    } catch (const Error& e) {
      outcome.aborted = true;
      outcome.abort_reason = e.what();
      return outcome;
    }
    outcome.aborted = true;
    outcome.abort_reason = "NoApplicableTactic";
    return outcome;
  }
};

double group_load(const model::Component& group) {
  return group.property_or(cs::kPropLoad, model::PropertyValue(0.0)).as_double();
}

/// fixServerLoad: grow every overloaded group connected to the client.
bool fix_server_load(TacticContext& ctx) {
  // Figure 5 lines 17-21: the connected server groups whose load exceeds
  // the threshold.
  std::vector<const model::Component*> loaded;
  for (const model::Component* grp : ctx.system.neighbors(ctx.element)) {
    if (grp->type_name() == cs::kServerGroupT &&
        group_load(*grp) > ctx.max_server_load) {
      loaded.push_back(grp);
    }
  }
  if (loaded.empty()) return false;
  bool grew = false;
  for (const model::Component* grp : loaded) {
    const std::string server = grp->name() + "_srv_new";
    if (grp->has_representation() &&
        grp->representation_const().has_component(server)) {
      continue;
    }
    repair::perform_add_server(ctx.txn, ctx.system, grp->name(), server,
                               ctx.conventions);
    grew = true;
  }
  return grew;
}

/// fixBandwidth: the client's role bandwidth is under min_bandwidth ->
/// move the client to another group.
bool fix_bandwidth(TacticContext& ctx) {
  // Figure 5 lines 30-31: applicable only when the client's connector role
  // reports insufficient bandwidth.
  const model::Connector* conn =
      repair::client_connector(ctx.system, ctx.element, ctx.conventions);
  if (!conn || !conn->has_role(ctx.conventions.client_role)) return false;
  const double bw =
      conn->role(ctx.conventions.client_role)
          .property_or(cs::kPropBandwidth, model::PropertyValue(1.0e12))
          .as_double();
  if (bw >= ctx.min_bandwidth.as_bps()) return false;

  const std::string current =
      repair::group_of_client(ctx.system, ctx.element, ctx.conventions);
  std::string target;
  for (const model::Component* c : ctx.system.components()) {
    if (c->type_name() == cs::kServerGroupT && c->name() != current) {
      target = c->name();
      break;
    }
  }
  if (target.empty()) throw ScriptError("NoServerGroupFound");
  repair::perform_move(ctx.txn, ctx.system, ctx.element, target,
                       ctx.conventions);
  return true;
}

/// fixLoadByMove: shed load by moving the client from an overloaded group
/// to a meaningfully less-loaded one.
bool fix_load_by_move(TacticContext& ctx) {
  const std::string current =
      repair::group_of_client(ctx.system, ctx.element, ctx.conventions);
  if (current.empty()) return false;
  const model::Component& grp = ctx.system.component(current);
  if (group_load(grp) <= ctx.max_server_load) return false;

  std::string target;
  double best = group_load(grp) - ctx.load_improvement;
  for (const model::Component* c : ctx.system.components()) {
    if (c->type_name() != cs::kServerGroupT || c->name() == current) continue;
    if (group_load(*c) < best) {
      best = group_load(*c);
      target = c->name();
    }
  }
  if (target.empty()) return false;
  repair::perform_move(ctx.txn, ctx.system, ctx.element, target,
                       ctx.conventions);
  return true;
}

/// shrinkGroup: release a dynamically-recruited server from an
/// underutilized group.
bool shrink_group(TacticContext& ctx) {
  if (!ctx.system.has_component(ctx.element)) return false;
  const model::Component& grp = ctx.system.component(ctx.element);
  if (grp.type_name() != cs::kServerGroupT) return false;
  const double util =
      grp.property_or(cs::kPropUtilization, model::PropertyValue(1.0))
          .as_double();
  if (util >= ctx.min_utilization) return false;
  const std::int64_t replicas =
      grp.property_or(cs::kPropReplication, model::PropertyValue(0)).as_int();
  if (replicas <= ctx.min_replicas) return false;
  if (!grp.has_representation()) return false;

  std::string victim;
  for (const model::Component* s : grp.representation_const().components()) {
    auto dyn = s->property_or(ctx.conventions.dynamic_prop,
                              model::PropertyValue(false));
    if (dyn.is_bool() && dyn.as_bool()) {
      victim = s->name();
      break;
    }
  }
  if (victim.empty()) return false;
  repair::perform_remove_server(ctx.txn, ctx.system, ctx.element, victim);
  return true;
}

/// The reference for the shipped strategy named `name`.
Strategy strategy(const std::string& name) {
  if (name == "fixLatency") {
    return {{{"fixServerLoad", fix_server_load},
             {"fixBandwidth", fix_bandwidth},
             {"fixLoadByMove", fix_load_by_move}}};
  }
  if (name == "trimServers") return {{{"shrinkGroup", shrink_group}}};
  throw Error("no reference strategy '" + name + "'");
}

}  // namespace reference

struct EquivCase {
  const char* strategy;
  const char* element;
  void (*prepare)(model::System&);
  const char* expected_tactic;  // nullptr = abort
};

/// fixLatency on User3 with ServerGrp1's load and User3's role bandwidth.
template <int kLoad, int kBandwidth>
void latency_case(model::System& sys) {
  sys.component("ServerGrp1")
      .set_property("load", model::PropertyValue(double(kLoad)));
  sys.connector("Conn_User3")
      .role("clientSide")
      .set_property("bandwidth", model::PropertyValue(double(kBandwidth)));
}

/// ServerGrp1 underutilized above minReplicas, with a dynamic replica.
void shrinkable_group(model::System& sys) {
  auto& g1 = sys.component("ServerGrp1");
  g1.set_property("utilization", model::PropertyValue(0.05));
  g1.set_property("replicationCount", model::PropertyValue(3));
  g1.representation()
      .add_component("ServerX", cs::kServerT)
      .set_property("dynamic", model::PropertyValue(true));
}

/// ServerGrp2 idle but already at minReplicas (2).
void group_at_min_replicas(model::System& sys) {
  sys.component("ServerGrp2")
      .set_property("utilization", model::PropertyValue(0.0));
}

class EquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EquivalenceTest, ScriptAndNativeAgree) {
  const EquivCase& p = GetParam();

  // Script path.
  ScriptRig script_rig;
  p.prepare(script_rig.sys);
  model::Transaction stxn(script_rig.sys);
  StrategyOutcome script_out = script_rig.interp->run_strategy(
      p.strategy, {script_rig.group_ref(p.element)}, stxn);
  const std::size_t script_ops = stxn.op_count();
  if (stxn.is_open()) stxn.rollback();

  // Reference path on an identically prepared model.
  ScriptRig native_rig;
  p.prepare(native_rig.sys);
  model::Transaction ntxn(native_rig.sys);
  reference::TacticContext ctx{native_rig.sys, ntxn, {}, 6.0,
                               Bandwidth::bps(1e4),    0.2,  2,  2.0,
                               p.element};
  StrategyOutcome native_out = reference::strategy(p.strategy).run(ctx);
  const std::size_t native_ops = ntxn.op_count();
  if (ntxn.is_open()) ntxn.rollback();

  EXPECT_EQ(script_out.committed, native_out.committed);
  EXPECT_EQ(script_ops, native_ops);
  if (p.expected_tactic) {
    ASSERT_TRUE(script_out.committed);
    ASSERT_TRUE(native_out.committed);
    // The deciding tactic is the last one that ran and succeeded.
    EXPECT_EQ(script_out.tactics_run.back().first, p.expected_tactic);
    EXPECT_EQ(native_out.tactics_run.back().first, p.expected_tactic);
  } else {
    EXPECT_TRUE(script_out.aborted);
    EXPECT_TRUE(native_out.aborted);
    EXPECT_EQ(script_ops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decisions, EquivalenceTest,
    ::testing::Values(
        // Overloaded group -> grow it (server-load repair prioritized).
        EquivCase{"fixLatency", "User3", latency_case<9, 5000>,
                  "fixServerLoad"},
        EquivCase{"fixLatency", "User3", latency_case<9, 10000000>,
                  "fixServerLoad"},
        // Healthy load, starved bandwidth -> move.
        EquivCase{"fixLatency", "User3", latency_case<1, 5000>,
                  "fixBandwidth"},
        // Healthy everything -> no repair.
        EquivCase{"fixLatency", "User3", latency_case<1, 10000000>, nullptr},
        // Underutilized group above minReplicas -> release a replica.
        EquivCase{"trimServers", "ServerGrp1", shrinkable_group,
                  "shrinkGroup"},
        // Underutilized group at minReplicas -> nothing to trim.
        EquivCase{"trimServers", "ServerGrp2", group_at_min_replicas,
                  nullptr}));

}  // namespace
}  // namespace arcadia::acme
