// Environment manager (Table 1), runtime queries, translator, and the
// model builder against the real testbed.
#include <gtest/gtest.h>

#include "model/types.hpp"
#include "runtime/environment.hpp"
#include "runtime/model_builder.hpp"
#include "runtime/queries.hpp"
#include "runtime/translator.hpp"

namespace arcadia::rt {
namespace {

struct Rig {
  sim::Simulator sim;
  sim::ScenarioConfig cfg;
  sim::Testbed tb;
  std::unique_ptr<remos::RemosService> remos;
  std::unique_ptr<SimEnvironmentManager> env;
  std::unique_ptr<SimRuntimeQueries> queries;
  std::unique_ptr<SimTranslator> translator;

  Rig() : tb(sim::build_testbed(sim, cfg)) {
    remos = std::make_unique<remos::RemosService>(sim, *tb.net);
    env = std::make_unique<SimEnvironmentManager>(*tb.app, *tb.topo, *remos);
    queries = std::make_unique<SimRuntimeQueries>(*tb.app, *env, *remos);
    translator = std::make_unique<SimTranslator>(*env);
  }
};

TEST(EnvironmentTest, Table1OperatorsWork) {
  Rig rig;
  sim::GridApp& app = *rig.tb.app;

  // createReqQueue adds a new (empty) group.
  EXPECT_EQ(rig.env->createReqQueue("ServerGrp3"), "ServerGrp3");
  EXPECT_NE(app.find_group("ServerGrp3"), sim::kNoGroup);
  EXPECT_THROW(rig.env->createReqQueue("ServerGrp3"), RuntimeOpError);

  // moveClient retargets future requests.
  rig.env->moveClient("User1", "ServerGrp2");
  EXPECT_EQ(app.client_group(app.find_client("User1")),
            app.find_group("ServerGrp2"));
  EXPECT_THROW(rig.env->moveClient("ghost", "ServerGrp2"), RuntimeOpError);
  EXPECT_THROW(rig.env->moveClient("User1", "ghost"), RuntimeOpError);

  // connect + activate a spare.
  rig.env->connectServer("Server4", "ServerGrp1");
  rig.env->activateServer("Server4");
  EXPECT_TRUE(app.server_active(app.find_server("Server4")));
  EXPECT_GT(rig.env->last_op_cost(), SimTime::zero());

  rig.env->deactivateServer("Server4");
  EXPECT_FALSE(app.server_active(app.find_server("Server4")));
  EXPECT_EQ(rig.env->stats().activations, 1u);
  EXPECT_EQ(rig.env->stats().deactivations, 1u);
}

TEST(EnvironmentTest, FindServerChecksBandwidth) {
  Rig rig;
  auto found = rig.env->findServer("User1", Bandwidth::kbps(10));
  ASSERT_TRUE(found.has_value());
  // Spares are Server4 and Server7; both reachable, best one returned.
  EXPECT_TRUE(*found == "Server4" || *found == "Server7");
  // An absurd threshold finds nothing.
  EXPECT_FALSE(rig.env->findServer("User1", Bandwidth::mbps(1000)).has_value());
}

TEST(EnvironmentTest, RemosGetFlowResolvesMachineNames) {
  Rig rig;
  Bandwidth bw = rig.env->remos_get_flow("m_s1", "m_c3");
  EXPECT_GT(bw.as_mbps(), 5.0);  // quiescent network
  EXPECT_THROW(rig.env->remos_get_flow("nope", "m_c3"), RuntimeOpError);
}

TEST(QueriesTest, FindGoodSgrpPrefersBestBandwidth) {
  Rig rig;
  // C3 starts on SG1; saturate SG1->C3 so SG2 wins.
  rig.tb.net->set_background_rate(rig.tb.comp_sg1,
                                  Bandwidth::mbps(9.99));
  auto found = rig.queries->find_good_sgrp("User3", Bandwidth::kbps(10));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, "ServerGrp2");
  EXPECT_GT(rig.queries->drain_query_cost(), SimTime::zero());
}

TEST(QueriesTest, FindGoodSgrpRespectsThreshold) {
  Rig rig;
  // Both paths saturated: nothing qualifies.
  rig.tb.net->set_background_rate(rig.tb.comp_sg1, Bandwidth::mbps(9.999));
  rig.tb.net->set_background_rate(rig.tb.comp_sg2, Bandwidth::mbps(9.999));
  EXPECT_FALSE(
      rig.queries->find_good_sgrp("User3", Bandwidth::kbps(10)).has_value());
}

TEST(QueriesTest, FindLessLoadedRequiresImprovement) {
  Rig rig;
  sim::GridApp& app = *rig.tb.app;
  // Stuff SG1's queue without any servers pulling.
  for (sim::ServerIdx s : app.active_servers(rig.tb.sg1)) {
    app.deactivate_server(s);
  }
  for (int i = 0; i < 8; ++i) {
    app.issue_request(rig.tb.clients[0], DataSize::bytes(512),
                      DataSize::kilobytes(10));
  }
  rig.sim.run_until(SimTime::seconds(2));
  ASSERT_GT(app.queue_length(rig.tb.sg1), 6u);
  auto found = rig.queries->find_less_loaded_sgrp(
      "User1", "ServerGrp1", Bandwidth::kbps(10), 2.0);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, "ServerGrp2");
  // With an unmeetable improvement requirement, nothing qualifies.
  EXPECT_FALSE(rig.queries
                   ->find_less_loaded_sgrp("User1", "ServerGrp1",
                                           Bandwidth::kbps(10), 100.0)
                   .has_value());
}

TEST(QueriesTest, RemovableTracksRecruited) {
  Rig rig;
  EXPECT_FALSE(rig.queries->find_removable_server("ServerGrp1").has_value());
  rig.env->connectServer("Server4", "ServerGrp1");
  rig.env->activateServer("Server4");
  rig.env->note_recruited("Server4");
  auto found = rig.queries->find_removable_server("ServerGrp1");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, "Server4");
  rig.env->note_released("Server4");
  EXPECT_FALSE(rig.queries->find_removable_server("ServerGrp1").has_value());
}

TEST(TranslatorTest, AddComponentRecruitsServer) {
  Rig rig;
  std::vector<model::OpRecord> records;
  model::OpRecord add;
  add.kind = model::OpKind::AddComponent;
  add.scope = {"ServerGrp1"};
  add.element = "Server4";
  records.push_back(add);
  SimTime cost = rig.translator->apply(records);
  EXPECT_GT(cost, SimTime::zero());
  sim::GridApp& app = *rig.tb.app;
  sim::ServerIdx s4 = app.find_server("Server4");
  EXPECT_TRUE(app.server_active(s4));
  EXPECT_EQ(app.server_group(s4), app.find_group("ServerGrp1"));
  EXPECT_EQ(rig.env->recruited_servers(), std::vector<std::string>{"Server4"});
}

TEST(TranslatorTest, BoundToMovesClient) {
  Rig rig;
  model::OpRecord set;
  set.kind = model::OpKind::SetProperty;
  set.element = "User3";
  set.property = "boundTo";
  set.value = model::PropertyValue("ServerGrp2");
  rig.translator->apply({set});
  sim::GridApp& app = *rig.tb.app;
  EXPECT_EQ(app.client_group(app.find_client("User3")),
            app.find_group("ServerGrp2"));
}

TEST(TranslatorTest, AttachDetachAndOtherPropsIgnored) {
  Rig rig;
  model::OpRecord attach;
  attach.kind = model::OpKind::Attach;
  attach.attachment = {"ServerGrp2", "provide", "Conn_User3", "serverSide"};
  model::OpRecord prop;
  prop.kind = model::OpKind::SetProperty;
  prop.element = "ServerGrp1";
  prop.property = "replicationCount";
  prop.value = model::PropertyValue(4);
  SimTime cost = rig.translator->apply({attach, prop});
  EXPECT_EQ(cost, SimTime::zero());
  EXPECT_EQ(rig.translator->stats().ignored, 2u);
}

TEST(TranslatorTest, RemoveComponentDeactivates) {
  Rig rig;
  rig.env->connectServer("Server4", "ServerGrp1");
  rig.env->activateServer("Server4");
  rig.env->note_recruited("Server4");
  model::OpRecord rm;
  rm.kind = model::OpKind::RemoveComponent;
  rm.scope = {"ServerGrp1"};
  rm.element = "Server4";
  rig.translator->apply({rm});
  sim::GridApp& app = *rig.tb.app;
  EXPECT_FALSE(app.server_active(app.find_server("Server4")));
  EXPECT_TRUE(rig.env->recruited_servers().empty());
}

/// estimate() must price exactly what apply() charges, and apply() must
/// count runtime ops and ignored records as its Table-1 rule says: both
/// classify through repair::op_class_of, and this pins the shared rule.
TEST(TranslatorTest, EstimatePricesWhatApplyCharges) {
  auto record = [](model::OpKind kind, std::string element) {
    model::OpRecord op;
    op.kind = kind;
    op.element = std::move(element);
    return op;
  };
  auto in_group = [](model::OpRecord op) {
    op.scope = {"ServerGrp1"};
    return op;
  };
  auto property = [&](std::string element, std::string name,
                      model::PropertyValue value) {
    model::OpRecord op = record(model::OpKind::SetProperty, std::move(element));
    op.property = std::move(name);
    op.value = std::move(value);
    return op;
  };
  auto wiring = [](model::OpKind kind, std::string group) {
    model::OpRecord op;
    op.kind = kind;
    op.attachment = {std::move(group), "provide", "Conn_User3", "serverSide"};
    return op;
  };
  const model::OpRecord recruit =
      in_group(record(model::OpKind::AddComponent, "Server4"));
  const model::OpRecord release =
      in_group(record(model::OpKind::RemoveComponent, "Server4"));
  const model::OpRecord bookkeeping =
      property("ServerGrp1", "replicationCount", model::PropertyValue(4));

  struct Journal {
    std::string name;
    std::vector<model::OpRecord> records;
    std::uint64_t runtime_ops;
    std::uint64_t ignored;
  };
  const std::vector<Journal> journals = {
      {"recruit", {recruit, bookkeeping}, 2, 1},
      {"release", {release, bookkeeping}, 1, 1},
      {"move",
       {wiring(model::OpKind::Detach, "ServerGrp1"),
        wiring(model::OpKind::Attach, "ServerGrp2"),
        property("User3", "boundTo", model::PropertyValue("ServerGrp2"))},
       1, 2},
      {"ignored",
       {record(model::OpKind::AddComponent, "ServerGrp9"),
        record(model::OpKind::RemoveComponent, "ServerGrp9"), bookkeeping,
        property("User3", "boundTo", model::PropertyValue(3)),
        wiring(model::OpKind::Attach, "ServerGrp2"),
        wiring(model::OpKind::Detach, "ServerGrp2")},
       0, 6},
  };
  for (const Journal& j : journals) {
    SCOPED_TRACE(j.name);
    Rig rig;
    if (j.name == "release") {
      rig.env->connectServer("Server4", "ServerGrp1");
      rig.env->activateServer("Server4");
      rig.env->note_recruited("Server4");
    }
    const SimTime estimated = rig.translator->estimate(j.records);
    const SimTime charged = rig.translator->apply(j.records);
    EXPECT_EQ(estimated, charged);
    EXPECT_EQ(charged > SimTime::zero(), j.runtime_ops > 0);
    const TranslatorStats& stats = rig.translator->stats();
    EXPECT_EQ(stats.runtime_ops, j.runtime_ops);
    EXPECT_EQ(stats.ignored, j.ignored);
  }
}

// ---- model builder ----

TEST(ModelBuilderTest, MirrorsTestbed) {
  Rig rig;
  ModelBuildOptions opts;
  auto sys = build_grid_model(rig.tb, opts);
  EXPECT_EQ(sys->components().size(), 8u);  // 2 groups + 6 clients
  EXPECT_EQ(sys->connectors().size(), 6u);
  EXPECT_EQ(sys->attachments().size(), 12u);
  const model::Component& sg1 = sys->component("ServerGrp1");
  EXPECT_EQ(sg1.property("replicationCount").as_int(), 3);
  EXPECT_EQ(sg1.representation_const().components().size(), 3u);
  // Spares are not part of the architecture.
  EXPECT_FALSE(sg1.representation_const().has_component("Server4"));
  // Every client is attached to SG1 initially.
  for (int c = 1; c <= 6; ++c) {
    EXPECT_TRUE(sys->connected("User" + std::to_string(c), "ServerGrp1"));
  }
}

TEST(ModelBuilderTest, SatisfiesStyleAndStructure) {
  Rig rig;
  ModelBuildOptions opts;
  auto sys = build_grid_model(rig.tb, opts);
  model::Style style = model::client_server_style();
  auto problems = style.check_system(*sys);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(ModelBuilderTest, ProfileAppliedToClients) {
  Rig rig;
  ModelBuildOptions opts;
  opts.max_latency = SimTime::seconds(3);
  auto sys = build_grid_model(rig.tb, opts);
  EXPECT_DOUBLE_EQ(
      sys->component("User1").property("maxLatency").as_double(), 3.0);
}

}  // namespace
}  // namespace arcadia::rt
