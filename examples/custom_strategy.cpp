// Authoring a custom repair strategy: repairs are scripts in the paper's
// repair language (Figure 5), so a different adaptation policy is a
// different script passed through FrameworkConfig::script_source — no
// engine subclassing, no rewiring, and the manifest journals the source.
//
// The custom script below is "conservative": its fixLatency never recruits
// spare servers (it only moves clients: fixBandwidth, then fixLoadByMove),
// and it leaves out the trimServers invariant, so cost trimming never
// fires. The demo runs the default script and the conservative one and
// compares. Exits 1 unless the conservative run recruits zero servers and
// the default run commits at least one repair.
//
// This is the externalized-adaptation payoff the paper argues for:
// changing the adaptation policy is editing a script, not the application
// or the framework.
#include <iostream>

#include "core/experiment.hpp"
#include "core/report.hpp"

namespace {

using namespace arcadia;

/// Never add servers; rebalance across the groups we already pay for.
const char* kConservativeScript = R"script(
invariant r : averageLatency <= maxLatency !-> fixLatency(r);

strategy fixLatency(badClient : ClientT) = {
  if (fixBandwidth(badClient, roleOf(badClient))) {
    commit repair;
  } else if (fixLoadByMove(badClient)) {
    commit repair;
  } else {
    abort NoApplicableTactic;
  }
}

tactic fixBandwidth(client : ClientT, role : ClientRoleT) : boolean = {
  if (role.bandwidth >= minBandwidth) {
    return false;
  }
  let goodSGrp : ServerGroupT = findGoodSGrp(client, minBandwidth);
  if (goodSGrp != nil) {
    client.move(goodSGrp);
    return true;
  }
  return false;
}

tactic fixLoadByMove(client : ClientT) : boolean = {
  let current : ServerGroupT = groupOf(client);
  if (current == nil) {
    return false;
  }
  if (current.load <= maxServerLoad) {
    return false;
  }
  let target : ServerGroupT = findLessLoadedSGrp(client, current);
  if (target == nil) {
    return false;
  }
  client.move(target);
  return true;
}
)script";

void summarize(const char* name, const core::ExperimentResult& r) {
  std::cout << name << ": fraction above 2 s = " << r.mean_fraction_above()
            << ", repairs committed = " << r.repair_stats.committed
            << ", servers added = " << r.repair_stats.servers_added
            << ", moves = " << r.repair_stats.moves << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Custom repair strategy as a script ===\n\n";

  core::ExperimentOptions defaults = core::options_for("paper-fig6");
  defaults.adaptation = true;
  core::ExperimentResult standard = core::run_experiment(defaults);

  core::ExperimentOptions conservative = defaults;
  conservative.framework.script_source = kConservativeScript;
  core::ExperimentResult cheap = core::run_experiment(conservative);

  summarize("default (grow + move)   ", standard);
  summarize("conservative (move only)", cheap);

  const bool ok = cheap.repair_stats.servers_added == 0 &&
                  standard.repair_stats.committed > 0;
  std::cout << "\nThe conservative script spends zero extra servers"
            << (cheap.repair_stats.servers_added == 0 ? " (verified)" : "")
            << ",\nbut leaves more of the stress phase above the latency "
               "bound:\n\n";
  core::print_load_figure(std::cout, cheap, SimTime::seconds(120));
  if (!ok) {
    std::cerr << "custom_strategy: expected zero recruited servers from the "
                 "move-only script and at least one committed repair from "
                 "the default\n";
    return 1;
  }
  return 0;
}
