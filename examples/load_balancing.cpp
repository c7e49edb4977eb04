// The paper's full experiment as a narrative demo: run the control and the
// repaired system over the 1800 s Figure 7 schedule, print the repair
// timeline as it happens, and finish with the control-vs-repair comparison
// (the headline of Section 5.2).
#include <iostream>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace arcadia;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--verbose") {
      Logger::instance().set_level(LogLevel::Info);
    }
  }

  // The paper's scenario, by catalog name: 1800 s, seed 42.
  core::ExperimentOptions options = core::options_for("paper-fig6");

  std::cout << "=== Grid storage load balancing (Cheng et al., HPDC'02) ===\n";
  std::cout << "Testbed: 5 routers, 11 machines, 10 Mbps links (Figure 6)\n";
  std::cout << "Schedule: quiescent 0-120 s; bandwidth competition vs C3/C4 "
               "120-600 s;\n          20 KB @ 2/s stress 600-1200 s; recovery "
               "1200-1800 s (Figure 7)\n\n";

  std::cout << "--- control run (no adaptation) ---\n";
  core::PairedResults pair = core::run_control_and_repair(options);
  std::cout << "requests: " << pair.control.requests_issued << ", responses: "
            << pair.control.responses_completed << "\n";
  std::cout << "worst queue: " << pair.control.max_queue_length()
            << " requests\n";

  std::cout << "\n--- adaptive run ---\n";
  core::print_repairs(std::cout, pair.repair);

  std::cout << "\n--- latency under repair (Figure 11 content) ---\n";
  core::print_latency_figure(std::cout, pair.repair, SimTime::seconds(120));

  core::print_comparison(std::cout, pair.control, pair.repair);

  std::cout << "\nPaper's conclusion: \"the latency experienced by clients "
               "was less than two\nseconds for most of the time [while] the "
               "control spent a considerable amount\nof time over two "
               "seconds\" — reproduced above.\n";
  return 0;
}
