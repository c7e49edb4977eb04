#include "runtime/model_builder.hpp"

#include "model/types.hpp"

namespace arcadia::rt {

namespace cs = model::cs;

namespace {
/// Initial bandwidth property on client roles.
constexpr Bandwidth kInitialBandwidth = Bandwidth::mbps(10);
}  // namespace

std::unique_ptr<model::System> build_grid_model(
    const sim::Testbed& testbed, const ModelBuildOptions& options) {
  const sim::GridApp& app = *testbed.app;
  const sim::Topology& topo = *testbed.topo;
  const repair::StyleConventions& conv = options.conventions;
  auto system = std::make_unique<model::System>("GridStorage");

  // Server groups with their replicas as representation members.
  for (sim::GroupIdx g = 0; g < static_cast<sim::GroupIdx>(app.group_count());
       ++g) {
    model::Component& group =
        system->add_component(app.group_name(g), cs::kServerGroupT);
    group.set_property(cs::kPropLoad, model::PropertyValue(0.0));
    group.set_property(cs::kPropUtilization, model::PropertyValue(0.0));
    group.set_property(cs::kPropLocation,
                       model::PropertyValue(topo.node_name(app.group_node(g))));
    group.add_port(conv.provide_port, cs::kProvidePortT);
    std::int64_t replicas = 0;
    model::System& rep = group.representation();
    for (sim::ServerIdx s : app.active_servers(g)) {
      model::Component& server =
          rep.add_component(app.server_name(s), cs::kServerT);
      server.set_property(cs::kPropIsActive, model::PropertyValue(true));
      server.set_property(cs::kPropLocation,
                          model::PropertyValue(topo.node_name(app.server_node(s))));
      ++replicas;
    }
    group.set_property(cs::kPropReplication, model::PropertyValue(replicas));
  }

  // Clients, each with a dedicated request/reply connector.
  for (sim::ClientIdx c = 0; c < static_cast<sim::ClientIdx>(app.client_count());
       ++c) {
    const std::string client_name = app.client_name(c);
    model::Component& client =
        system->add_component(client_name, cs::kClientT);
    client.set_property(cs::kPropAvgLatency, model::PropertyValue(0.0));
    client.set_property(cs::kPropMaxLatency,
                        model::PropertyValue(options.max_latency.as_seconds()));
    client.set_property(cs::kPropLocation,
                        model::PropertyValue(topo.node_name(app.client_node(c))));
    client.add_port(conv.request_port, cs::kRequestPortT);

    const std::string conn_name = "Conn_" + client_name;
    model::Connector& conn = system->add_connector(conn_name, cs::kConnT);
    model::Role& client_role = conn.add_role(conv.client_role, cs::kClientRoleT);
    client_role.set_property(
        cs::kPropBandwidth,
        model::PropertyValue(kInitialBandwidth.as_bps()));
    conn.add_role(conv.server_role, cs::kServerRoleT);

    system->attach(model::Attachment{client_name, conv.request_port, conn_name,
                                     conv.client_role});
    const sim::GroupIdx g = app.client_group(c);
    if (g != sim::kNoGroup) {
      system->attach(model::Attachment{app.group_name(g), conv.provide_port,
                                       conn_name, conv.server_role});
      client.set_property(conv.bound_to_prop,
                          model::PropertyValue(app.group_name(g)));
    }
  }
  return system;
}

}  // namespace arcadia::rt
