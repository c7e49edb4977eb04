#include <gtest/gtest.h>

#include "model/system.hpp"
#include "model/transaction.hpp"
#include "model/types.hpp"
#include "util/deterministic_rng.hpp"

namespace arcadia::model {
namespace {

/// The paper's Figure 2 architecture in miniature: one group with a
/// representation of replicas, one client, one connector.
System make_small_system() {
  System sys("GridStorage");
  Component& grp = sys.add_component("ServerGrp1", cs::kServerGroupT);
  grp.set_property(cs::kPropLoad, PropertyValue(0.0));
  grp.set_property(cs::kPropReplication, PropertyValue(2));
  grp.add_port("provide", cs::kProvidePortT);
  System& rep = grp.representation();
  rep.add_component("Server1", cs::kServerT);
  rep.add_component("Server2", cs::kServerT);

  Component& client = sys.add_component("User1", cs::kClientT);
  client.set_property(cs::kPropAvgLatency, PropertyValue(0.1));
  client.set_property(cs::kPropMaxLatency, PropertyValue(2.0));
  client.add_port("request", cs::kRequestPortT);

  Connector& conn = sys.add_connector("Conn_User1", cs::kConnT);
  conn.add_role("clientSide", cs::kClientRoleT)
      .set_property(cs::kPropBandwidth, PropertyValue(1e7));
  conn.add_role("serverSide", cs::kServerRoleT);
  sys.attach({"User1", "request", "Conn_User1", "clientSide"});
  sys.attach({"ServerGrp1", "provide", "Conn_User1", "serverSide"});
  return sys;
}

TEST(ElementTest, PropertyAccessAndDefaults) {
  Component c("x", cs::kClientT);
  EXPECT_FALSE(c.has_property("p"));
  EXPECT_THROW(c.property("p"), ModelError);
  EXPECT_DOUBLE_EQ(c.property_or("p", PropertyValue(7.0)).as_double(), 7.0);
  c.set_property("p", PropertyValue(1.5));
  EXPECT_DOUBLE_EQ(c.property("p").as_double(), 1.5);
  EXPECT_TRUE(c.clear_property("p"));
  EXPECT_FALSE(c.clear_property("p"));
}

TEST(ElementTest, PortsAndRoles) {
  Component c("x", cs::kClientT);
  c.add_port("request", cs::kRequestPortT);
  EXPECT_TRUE(c.has_port("request"));
  EXPECT_THROW(c.add_port("request", cs::kRequestPortT), ModelError);
  EXPECT_EQ(c.ports().size(), 1u);
  c.remove_port("request");
  EXPECT_FALSE(c.has_port("request"));
  EXPECT_THROW(c.remove_port("request"), ModelError);

  Connector k("k", cs::kConnT);
  k.add_role("r", cs::kClientRoleT);
  EXPECT_TRUE(k.has_role("r"));
  EXPECT_THROW(k.add_role("r", cs::kClientRoleT), ModelError);
}

TEST(SystemTest, ConnectedAndAttached) {
  System sys = make_small_system();
  EXPECT_TRUE(sys.connected("User1", "ServerGrp1"));
  EXPECT_TRUE(sys.connected("ServerGrp1", "User1"));
  EXPECT_TRUE(sys.attached("User1", "request", "Conn_User1", "clientSide"));
  EXPECT_FALSE(sys.attached("User1", "request", "Conn_User1", "serverSide"));
}

/// Reference definition of `System::connected`: some existing connector
/// has an attachment to `a` and one to `b`. Rescans every attachment per
/// connector, which is quadratic but plainly right.
bool reference_connected(const System& sys, const std::string& a,
                         const std::string& b) {
  for (const Connector* conn : sys.connectors()) {
    bool touches_a = false;
    bool touches_b = false;
    for (const Attachment& att : sys.attachments()) {
      if (att.connector != conn->name()) continue;
      if (att.component == a) touches_a = true;
      if (att.component == b) touches_b = true;
    }
    if (touches_a && touches_b) return true;
  }
  return false;
}

/// Every ordered pair over the system's components plus names on neither
/// side, including a == b.
void expect_connected_matches_reference(const System& sys) {
  std::vector<std::string> names = {"Nobody", "", "Conn0"};
  for (const Component* c : sys.components()) names.push_back(c->name());
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      EXPECT_EQ(sys.connected(a, b), reference_connected(sys, a, b))
          << "connected(" << a << ", " << b << ")";
    }
  }
}

TEST(SystemTest, ConnectedMatchesTheNestedLoopDefinition) {
  System sys = make_small_system();
  // A component on two connectors, and one with no attachments.
  Component& grp2 = sys.add_component("ServerGrp2", cs::kServerGroupT);
  grp2.add_port("provide", cs::kProvidePortT);
  sys.add_component("Loner", cs::kClientT).add_port("request",
                                                    cs::kRequestPortT);
  Connector& conn = sys.add_connector("Conn_User1b", cs::kConnT);
  conn.add_role("clientSide", cs::kClientRoleT);
  conn.add_role("serverSide", cs::kServerRoleT);
  sys.component("User1").add_port("request2", cs::kRequestPortT);
  sys.attach({"User1", "request2", "Conn_User1b", "clientSide"});
  sys.attach({"ServerGrp2", "provide", "Conn_User1b", "serverSide"});

  EXPECT_TRUE(sys.connected("User1", "ServerGrp2"));
  EXPECT_TRUE(sys.connected("User1", "User1"));
  EXPECT_FALSE(sys.connected("ServerGrp1", "ServerGrp2"));
  EXPECT_FALSE(sys.connected("Loner", "Loner"));
  EXPECT_FALSE(sys.connected("Nobody", "User1"));
  expect_connected_matches_reference(sys);

  // Releasing a connector leaves its attachments behind; they no longer
  // connect anything.
  auto released = sys.release_connector("Conn_User1b");
  EXPECT_FALSE(sys.connected("User1", "ServerGrp2"));
  EXPECT_TRUE(sys.connected("User1", "ServerGrp1"));
  expect_connected_matches_reference(sys);
}

TEST(SystemTest, ConnectedMatchesTheNestedLoopDefinitionOnRandomSystems) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 104729);
    System sys("Random");
    const int components = 2 + static_cast<int>(rng.uniform_int(7));
    const int connectors = 1 + static_cast<int>(rng.uniform_int(6));
    for (int c = 0; c < components; ++c) {
      Component& comp = sys.add_component("C" + std::to_string(c),
                                          cs::kClientT);
      comp.add_port("p0", cs::kRequestPortT);
      comp.add_port("p1", cs::kRequestPortT);
    }
    for (int k = 0; k < connectors; ++k) {
      Connector& conn = sys.add_connector("Conn" + std::to_string(k),
                                          cs::kConnT);
      for (int r = 0; r < 3; ++r) {
        conn.add_role("r" + std::to_string(r), cs::kClientRoleT);
      }
    }
    const int attachments = static_cast<int>(rng.uniform_int(12));
    for (int i = 0; i < attachments; ++i) {
      try {
        sys.attach({"C" + std::to_string(rng.uniform_int(components)),
                    "p" + std::to_string(rng.uniform_int(2)),
                    "Conn" + std::to_string(rng.uniform_int(connectors)),
                    "r" + std::to_string(rng.uniform_int(3))});
      } catch (const ModelError&) {
        // Duplicate draw; skip it.
      }
    }
    expect_connected_matches_reference(sys);
    // Dangling attachments (a released connector) and a removed component.
    if (rng.bernoulli(0.5)) {
      sys.release_connector("Conn" +
                            std::to_string(rng.uniform_int(connectors)));
    }
    if (rng.bernoulli(0.5)) {
      sys.remove_component("C" + std::to_string(rng.uniform_int(components)));
    }
    expect_connected_matches_reference(sys);
  }
}

TEST(SystemTest, NeighborsAndConnectorsOf) {
  System sys = make_small_system();
  auto neighbors = sys.neighbors("User1");
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0]->name(), "ServerGrp1");
  EXPECT_EQ(sys.connectors_of("User1").size(), 1u);
  EXPECT_EQ(sys.components_on("Conn_User1").size(), 2u);
}

TEST(SystemTest, AttachValidatesEndpoints) {
  System sys = make_small_system();
  EXPECT_THROW(sys.attach({"nope", "request", "Conn_User1", "clientSide"}),
               ModelError);
  EXPECT_THROW(sys.attach({"User1", "nope", "Conn_User1", "clientSide"}),
               ModelError);
  EXPECT_THROW(sys.attach({"User1", "request", "nope", "clientSide"}),
               ModelError);
  EXPECT_THROW(sys.attach({"User1", "request", "Conn_User1", "nope"}),
               ModelError);
  // Duplicate attachment rejected.
  EXPECT_THROW(sys.attach({"User1", "request", "Conn_User1", "clientSide"}),
               ModelError);
}

TEST(SystemTest, RemoveComponentDropsItsAttachments) {
  System sys = make_small_system();
  sys.remove_component("User1");
  EXPECT_FALSE(sys.has_component("User1"));
  EXPECT_EQ(sys.attachments_on("Conn_User1").size(), 1u);  // group side stays
}

TEST(SystemTest, StructuralViolationsDetected) {
  System sys = make_small_system();
  EXPECT_TRUE(sys.structural_violations().empty());
  // Sneak in a dangling attachment by removing the port afterwards.
  sys.component("User1").remove_port("request");
  auto violations = sys.structural_violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("missing port"), std::string::npos);
}

TEST(SystemTest, CloneIsDeepAndEqualShaped) {
  System sys = make_small_system();
  auto copy = sys.clone();
  // Mutating the copy must not affect the original.
  copy->component("User1").set_property(cs::kPropAvgLatency,
                                        PropertyValue(9.0));
  copy->component("ServerGrp1").representation().remove_component("Server1");
  EXPECT_DOUBLE_EQ(sys.component("User1").property(cs::kPropAvgLatency).as_double(),
                   0.1);
  EXPECT_TRUE(sys.component("ServerGrp1")
                  .representation_const()
                  .has_component("Server1"));
}

TEST(StyleTest, ClientServerStyleChecksCleanSystem) {
  System sys = make_small_system();
  Style style = client_server_style();
  auto problems = style.check_system(sys);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

TEST(StyleTest, DetectsMissingRequiredProperty) {
  System sys = make_small_system();
  Style style = client_server_style();
  sys.component("User1").clear_property(cs::kPropMaxLatency);
  auto problems = style.check_system(sys);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("maxLatency"), std::string::npos);
}

TEST(StyleTest, DetectsKindMismatchAndUnknownType) {
  Style style = client_server_style();
  Connector bad("k", cs::kClientT);  // component type on a connector
  EXPECT_FALSE(style.check_element(bad).empty());
  Component unknown("u", "NoSuchT");
  EXPECT_FALSE(style.check_element(unknown).empty());
}

TEST(StyleTest, DetectsPropertyTypeMismatch) {
  Style style = client_server_style();
  Component c("x", cs::kClientT);
  c.set_property(cs::kPropMaxLatency, PropertyValue("two seconds"));
  auto problems = style.check_element(c);
  ASSERT_FALSE(problems.empty());
}

TEST(StyleTest, ApplyDefaultsFillsGaps) {
  Style style = client_server_style();
  Component c("x", cs::kClientT);
  style.apply_defaults(c);
  EXPECT_TRUE(c.has_property(cs::kPropAvgLatency));
  EXPECT_DOUBLE_EQ(c.property(cs::kPropMaxLatency).as_double(), 2.0);
}

TEST(StyleTest, IntAcceptedWhereDoubleDeclared) {
  Style style = client_server_style();
  Component c("x", cs::kClientT);
  c.set_property(cs::kPropMaxLatency, PropertyValue(2));  // int literal
  style.apply_defaults(c);
  EXPECT_TRUE(style.check_element(c).empty());
}

// ---- transactions ----

TEST(TransactionTest, CommitKeepsChanges) {
  System sys = make_small_system();
  Transaction txn(sys);
  txn.add_component({"ServerGrp1"}, "Server3", cs::kServerT);
  txn.set_property({}, ElementKind::Component, "ServerGrp1", "",
                   cs::kPropReplication, PropertyValue(3));
  txn.commit();
  EXPECT_TRUE(sys.component("ServerGrp1")
                  .representation_const()
                  .has_component("Server3"));
  EXPECT_EQ(sys.component("ServerGrp1").property(cs::kPropReplication).as_int(),
            3);
  EXPECT_EQ(txn.records().size(), 2u);
}

TEST(TransactionTest, RollbackRestoresEverything) {
  System sys = make_small_system();
  {
    Transaction txn(sys);
    txn.add_component({"ServerGrp1"}, "Server3", cs::kServerT);
    txn.remove_component({"ServerGrp1"}, "Server1");
    txn.set_property({}, ElementKind::Component, "User1", "",
                     cs::kPropAvgLatency, PropertyValue(5.0));
    txn.detach({"ServerGrp1", "provide", "Conn_User1", "serverSide"});
    txn.rollback();
  }
  const System& rep =
      sys.component("ServerGrp1").representation_const();
  EXPECT_TRUE(rep.has_component("Server1"));
  EXPECT_FALSE(rep.has_component("Server3"));
  EXPECT_DOUBLE_EQ(
      sys.component("User1").property(cs::kPropAvgLatency).as_double(), 0.1);
  EXPECT_TRUE(sys.attached("ServerGrp1", "provide", "Conn_User1", "serverSide"));
}

TEST(TransactionTest, DestructorRollsBackOpenTransaction) {
  System sys = make_small_system();
  {
    Transaction txn(sys);
    txn.add_component("NewComp", cs::kClientT);
  }
  EXPECT_FALSE(sys.has_component("NewComp"));
}

TEST(TransactionTest, UseAfterCommitThrows) {
  System sys = make_small_system();
  Transaction txn(sys);
  txn.commit();
  EXPECT_THROW(txn.add_component("X", cs::kClientT), ModelError);
  EXPECT_THROW(txn.rollback(), ModelError);
}

TEST(TransactionTest, SetPropertyOnRoleAndUndo) {
  System sys = make_small_system();
  {
    Transaction txn(sys);
    txn.set_property({}, ElementKind::Role, "Conn_User1", "clientSide",
                     cs::kPropBandwidth, PropertyValue(5e3));
    EXPECT_DOUBLE_EQ(sys.connector("Conn_User1")
                         .role("clientSide")
                         .property(cs::kPropBandwidth)
                         .as_double(),
                     5e3);
    txn.rollback();
  }
  EXPECT_DOUBLE_EQ(sys.connector("Conn_User1")
                       .role("clientSide")
                       .property(cs::kPropBandwidth)
                       .as_double(),
                   1e7);
}

TEST(TransactionTest, RollbackRemovesNewProperty) {
  System sys = make_small_system();
  {
    Transaction txn(sys);
    txn.set_property({}, ElementKind::Component, "User1", "", "brandNew",
                     PropertyValue(1));
    txn.rollback();
  }
  EXPECT_FALSE(sys.component("User1").has_property("brandNew"));
}

TEST(TransactionTest, InvalidOpLeavesTransactionUsable) {
  System sys = make_small_system();
  Transaction txn(sys);
  EXPECT_THROW(txn.remove_component({}, "ghost"), ModelError);
  // Still open and usable.
  txn.add_component("X", cs::kClientT);
  txn.commit();
  EXPECT_TRUE(sys.has_component("X"));
}

TEST(TransactionTest, RecordsDescribeOps) {
  System sys = make_small_system();
  Transaction txn(sys);
  txn.add_component({"ServerGrp1"}, "Server3", cs::kServerT);
  const OpRecord& rec = txn.records().front();
  EXPECT_EQ(rec.kind, OpKind::AddComponent);
  EXPECT_EQ(rec.scope, std::vector<std::string>{"ServerGrp1"});
  EXPECT_EQ(rec.element, "Server3");
  EXPECT_NE(rec.describe().find("add-component"), std::string::npos);
  txn.rollback();
}

/// Property test: a random interleaving of ops, rolled back, restores the
/// printed form of the system exactly.
class TransactionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TransactionFuzzTest, RandomOpsRollbackToIdentical) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  System sys = make_small_system();
  auto baseline = sys.clone();

  {
    Transaction txn(sys);
    for (int i = 0; i < 30; ++i) {
      switch (rng.uniform_int(6)) {
        case 0:
          try {
            txn.add_component("Dyn" + std::to_string(i), cs::kClientT);
          } catch (const ModelError&) {
          }
          break;
        case 1:
          try {
            txn.add_component({"ServerGrp1"}, "DynS" + std::to_string(i),
                              cs::kServerT);
          } catch (const ModelError&) {
          }
          break;
        case 2:
          txn.set_property({}, ElementKind::Component, "User1", "",
                           cs::kPropAvgLatency,
                           PropertyValue(rng.uniform(0.0, 10.0)));
          break;
        case 3:
          txn.set_property({}, ElementKind::Role, "Conn_User1", "clientSide",
                           cs::kPropBandwidth,
                           PropertyValue(rng.uniform(1e3, 1e7)));
          break;
        case 4:
          try {
            txn.detach({"ServerGrp1", "provide", "Conn_User1", "serverSide"});
          } catch (const ModelError&) {
          }
          break;
        default:
          try {
            txn.attach({"ServerGrp1", "provide", "Conn_User1", "serverSide"});
          } catch (const ModelError&) {
          }
          break;
      }
    }
    txn.rollback();
  }

  // Keep this module-local (no acme dependency): compare shape and the
  // touched properties manually.
  EXPECT_EQ(sys.components().size(), baseline->components().size());
  EXPECT_EQ(sys.attachments().size(), baseline->attachments().size());
  EXPECT_DOUBLE_EQ(
      sys.component("User1").property(cs::kPropAvgLatency).as_double(), 0.1);
  EXPECT_DOUBLE_EQ(sys.connector("Conn_User1")
                       .role("clientSide")
                       .property(cs::kPropBandwidth)
                       .as_double(),
                   1e7);
  EXPECT_EQ(sys.component("ServerGrp1").representation_const().components().size(),
            2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransactionFuzzTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace arcadia::model
