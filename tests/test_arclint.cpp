// arclint self-test: deliberately seeded violations of every rule must be
// caught, exemptions must work, and mentions in comments/strings must not
// fire. This pins the linter's behaviour so the `arclint_tree` ctest gate
// (and the static-analysis CI lane) stays trustworthy.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using arclint::Finding;
using arclint::lint_source;

std::vector<std::string> rules_hit(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> hit = rules_hit(findings);
  return std::find(hit.begin(), hit.end(), rule) != hit.end();
}

TEST(ArclintTest, ListsAllTenRules) {
  EXPECT_EQ(arclint::rule_ids().size(), 10u);
  EXPECT_TRUE(std::find(arclint::rule_ids().begin(), arclint::rule_ids().end(),
                        "entropy") != arclint::rule_ids().end());
  EXPECT_TRUE(std::find(arclint::rule_ids().begin(), arclint::rule_ids().end(),
                        "tools-parity") != arclint::rule_ids().end());
  EXPECT_TRUE(std::find(arclint::rule_ids().begin(), arclint::rule_ids().end(),
                        "durability-io") != arclint::rule_ids().end());
  EXPECT_TRUE(std::find(arclint::rule_ids().begin(), arclint::rule_ids().end(),
                        "shard-isolation") != arclint::rule_ids().end());
  EXPECT_TRUE(std::find(arclint::rule_ids().begin(), arclint::rule_ids().end(),
                        "one-loop") != arclint::rule_ids().end());
  EXPECT_TRUE(std::find(arclint::rule_ids().begin(), arclint::rule_ids().end(),
                        "one-memo") != arclint::rule_ids().end());
}

// ---- unordered-container -------------------------------------------------

TEST(ArclintTest, CatchesUnorderedMapInSrc) {
  const std::string src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> table;\n";
  const auto findings = lint_source("src/sim/foo.hpp", src);
  ASSERT_EQ(findings.size(), 2u);  // include + declaration
  EXPECT_EQ(findings[0].rule, "unordered-container");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(ArclintTest, CatchesUnorderedSetEverywhereUnderSrc) {
  const std::string src = "std::unordered_set<int> seen;\n";
  EXPECT_TRUE(has_rule(lint_source("src/util/x.hpp", src),
                       "unordered-container"));
  EXPECT_TRUE(has_rule(lint_source("src/model/x.cpp", src),
                       "unordered-container"));
  // Outside src/ the rule does not apply (tools, tests, benches).
  EXPECT_TRUE(lint_source("tools/arclint/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("tests/test_x.cpp", src).empty());
}

TEST(ArclintTest, UnorderedMentionInCommentOrStringIsFine) {
  const std::string src =
      "// replaced a std::unordered_map with util::SymbolMap\n"
      "const char* kDoc = \"std::unordered_set iteration is hash-ordered\";\n";
  EXPECT_TRUE(lint_source("src/sim/foo.hpp", src).empty());
}

// ---- wall-clock ----------------------------------------------------------

TEST(ArclintTest, CatchesWallClockInSimAndRepairOnly) {
  const std::string src =
      "auto t0 = std::chrono::steady_clock::now();\n"
      "auto t1 = std::chrono::system_clock::now();\n";
  const auto findings = lint_source("src/sim/workload.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "wall-clock");
  EXPECT_TRUE(has_rule(lint_source("src/repair/strategy.cpp", src),
                       "wall-clock"));
  // core/ may measure host wall-clock (stats like sweep_wall_s do).
  EXPECT_TRUE(lint_source("src/core/fleet_manager.cpp", src).empty());
}

TEST(ArclintTest, WallClockWordBoundariesHold) {
  // `operand(`, `rand_like_name`, SimTime identifiers: no false positives
  // for either the wall-clock or the entropy rule.
  const std::string src =
      "int operand(int x);\n"
      "double rand_like_name = 0;\n"
      "SimTime time = sim.now();\n";
  EXPECT_TRUE(lint_source("src/sim/foo.cpp", src).empty());
}

// ---- entropy -------------------------------------------------------------

TEST(ArclintTest, CatchesAmbientRandomnessTreeWideUnderSrc) {
  const std::string src =
      "#include <random>\n"
      "std::mt19937 gen(42);\n"
      "int r = rand();\n"
      "std::random_device rd;\n";
  // Unlike wall-clock, entropy applies everywhere under src/ — a stray
  // generator in core/ or monitor/ breaks fault-seed replay just as badly.
  const auto findings = lint_source("src/core/fleet_manager.cpp", src);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "entropy");
  EXPECT_TRUE(has_rule(lint_source("src/sim/workload.cpp", src), "entropy"));
  EXPECT_TRUE(has_rule(lint_source("src/monitor/gauge.cpp", src), "entropy"));
}

TEST(ArclintTest, DeterministicRngHeaderIsTheAllowedHome) {
  const std::string src =
      "std::uint64_t rand();  // not really, but exercise the words\n"
      "int seed_from(std::random_device& rd);\n";
  // The one allow-listed randomness source; everything else draws through
  // arcadia::Rng forks.
  EXPECT_TRUE(lint_source("src/util/deterministic_rng.hpp", src).empty());
  EXPECT_TRUE(has_rule(lint_source("src/util/rng.hpp", src), "entropy"));
}

TEST(ArclintTest, EntropyRuleStopsAtSrcBoundary) {
  const std::string src = "std::mt19937 gen;\n";
  EXPECT_TRUE(lint_source("tests/test_x.cpp", src).empty());
  EXPECT_TRUE(lint_source("tools/arclint/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/bench_x.cpp", src).empty());
}

// ---- raw-mutex -----------------------------------------------------------

TEST(ArclintTest, CatchesRawMutexOutsideAnnotations) {
  const std::string src =
      "#include <mutex>\n"
      "std::mutex mu;\n"
      "std::lock_guard<std::mutex> lock(mu);\n"
      "std::condition_variable cv;\n";
  const auto findings = lint_source("src/events/bus.hpp", src);
  ASSERT_GE(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "raw-mutex");
  // The wrapper layer itself is the one allowed home.
  EXPECT_TRUE(lint_source("src/util/annotations.hpp", src).empty());
}

TEST(ArclintTest, AnnotatedWrappersAreFine) {
  const std::string src =
      "util::Mutex mutex_;\n"
      "util::MutexLock lock(mutex_);\n"
      "util::CondVar cv_;\n"
      "// talk about std::mutex in prose all you like\n";
  EXPECT_TRUE(lint_source("src/events/bus.cpp", src).empty());
}

// ---- hotpath-std-function ------------------------------------------------

TEST(ArclintTest, CatchesStdFunctionOnlyInMarkedFiles) {
  const std::string marked =
      "// arclint: hotpath\n"
      "std::function<void()> cb;\n";
  const std::string unmarked = "std::function<void()> cb;\n";
  const auto findings = lint_source("src/events/notification.hpp", marked);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hotpath-std-function");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_TRUE(lint_source("src/events/notification.hpp", unmarked).empty());
}

TEST(ArclintTest, BadFunctionCallIsNotStdFunction) {
  const std::string src =
      "// arclint: hotpath\n"
      "throw std::bad_function_call();\n";
  EXPECT_TRUE(lint_source("src/util/small_fn.hpp", src).empty());
}

// ---- exemptions ----------------------------------------------------------

TEST(ArclintTest, LineExemptionSilencesOnlyThatLine) {
  const std::string src =
      "std::unordered_map<int, int> a;  // arclint: allow(unordered-container): lookup-only, never iterated\n"
      "std::unordered_map<int, int> b;\n";
  const auto findings = lint_source("src/sim/foo.hpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(ArclintTest, FileExemptionSilencesTheRuleFileWide) {
  const std::string src =
      "// arclint: allow-file(wall-clock): this file timestamps host-side "
      "diagnostics only\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "std::unordered_map<int, int> still_caught;\n";
  const auto findings = lint_source("src/sim/foo.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-container");
}

TEST(ArclintTest, ExemptionForOneRuleDoesNotSilenceAnother) {
  const std::string src =
      "std::mutex mu;  // arclint: allow(wall-clock): wrong rule named\n";
  EXPECT_TRUE(has_rule(lint_source("src/sim/foo.cpp", src), "raw-mutex"));
}

// ---- durability-io -------------------------------------------------------

TEST(ArclintTest, CatchesDirectFileIoUnderSrc) {
  EXPECT_TRUE(has_rule(
      lint_source("src/core/report.cpp", "#include <fstream>\n"),
      "durability-io"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/report.cpp", "std::ofstream out(path);\n"),
      "durability-io"));
  EXPECT_TRUE(has_rule(
      lint_source("src/monitor/gauge.cpp", "FILE* f = fopen(p, \"r\");\n"),
      "durability-io"));
}

TEST(ArclintTest, DurabilityIoSeamAndNonSrcAreExempt) {
  const std::string src = "#include <fstream>\nstd::ifstream in(path);\n";
  // The one seam that owns descriptors is allowed — both header and impl.
  EXPECT_TRUE(lint_source("src/durability/io.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/durability/io.hpp", src).empty());
  // Tools, tests, benches, examples write their own outputs freely.
  EXPECT_TRUE(lint_source("tools/arcviz/main.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/bench_durability.cpp", src).empty());
  // Other durability files still go through the seam.
  EXPECT_TRUE(has_rule(lint_source("src/durability/journal.cpp", src),
                       "durability-io"));
  // <cstdio> alone is stderr logging, not file I/O; only opening a FILE*
  // (fopen/freopen) trips the rule.
  EXPECT_TRUE(lint_source("src/util/log.cpp",
                          "#include <cstdio>\nstd::fprintf(stderr, \"x\");\n")
                  .empty());
}

// ---- shard-isolation -----------------------------------------------------

TEST(ArclintTest, ShardMarkedFileMayNotTouchControlPlane) {
  const std::string src =
      "// arclint: shard\n"
      "#include \"core/fleet_manager.hpp\"\n"
      "void f(arcadia::core::FleetManager& m);\n";
  const auto findings = lint_source("src/sim/shard_thing.hpp", src);
  ASSERT_EQ(findings.size(), 2u);  // quoted include + identifier
  EXPECT_EQ(findings[0].rule, "shard-isolation");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 3u);
}

TEST(ArclintTest, ShardRuleCatchesBusAndPlaneTokens) {
  const std::string marked = "// arclint: shard\n";
  EXPECT_TRUE(has_rule(
      lint_source("src/sim/x.cpp", marked + "arcadia::events::EventBus* b;\n"),
      "shard-isolation"));
  EXPECT_TRUE(has_rule(
      lint_source("src/sim/x.cpp",
                  marked + "durability::DurabilityPlane* p;\n"),
      "shard-isolation"));
  EXPECT_TRUE(has_rule(
      lint_source("src/sim/x.cpp",
                  marked + "#include \"events/bus.hpp\"\n"),
      "shard-isolation"));
  // Longer identifiers containing the token as a substring are not hits.
  EXPECT_TRUE(lint_source("src/sim/x.cpp",
                          marked + "events::LocalEventBus bus;\n")
                  .empty());
}

TEST(ArclintTest, ShardRuleNeedsBothTheMarkerAndSimPath) {
  const std::string offending = "core::FleetManager* mgr;\n";
  // Unmarked sim file: the rule does not apply.
  EXPECT_TRUE(lint_source("src/sim/plain.cpp", offending).empty());
  // Marked file outside src/sim/ (e.g. core itself): not a shard file.
  EXPECT_TRUE(lint_source("src/core/fleet.cpp",
                          "// arclint: shard\n" + offending)
                  .empty());
  // Comment mentions in a marked sim file are stripped before matching.
  EXPECT_TRUE(lint_source("src/sim/doc.hpp",
                          "// arclint: shard\n// not FleetManager's job\n")
                  .empty());
}

TEST(ArclintTest, ShardRuleHonorsAllowDirectives) {
  const std::string src =
      "// arclint: shard\n"
      "core::FleetManager* m;  // arclint: allow(shard-isolation): seam\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", src).empty());
}

// ---- one-memo ------------------------------------------------------------

TEST(ArclintTest, RevisionClockReadOutsideTheCheckerIsASecondMemo) {
  const std::string src =
      "const std::uint64_t now = model::structure_clock();\n"
      "if (model::property_clock () != seen_) dirty = true;\n";
  const auto findings = lint_source("src/core/fleet_manager.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "one-memo");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
  // The checker's memo and the model that keeps the clocks are its homes.
  EXPECT_FALSE(
      has_rule(lint_source("src/repair/constraint.cpp", src), "one-memo"));
  EXPECT_FALSE(has_rule(lint_source("src/model/revision.cpp", src),
                        "one-memo"));
  // Bumping a clock, or naming one in a comment, is not a read.
  EXPECT_FALSE(has_rule(
      lint_source("src/core/x.cpp",
                  "stamp_ = bump_structure_clock();  // structure_clock()\n"),
      "one-memo"));
}

// ---- tools-parity --------------------------------------------------------

// ---- one-loop ------------------------------------------------------------

TEST(ArclintTest, GaugeTopicSubscriptionOutsideFleetManagerIsASecondLoop) {
  const std::string src =
      "sub_ = bus.subscribe(\n"
      "    events::Filter::topic(monitor::topics::kGaugeReportSym),\n"
      "    sink);\n"
      "auto f = events::Filter::topic(topics::kGaugeLifecycleSym);\n";
  const auto findings = lint_source("src/core/arch_manager.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "one-loop");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 4u);
  // The FleetManager is the allow-listed home.
  EXPECT_FALSE(
      has_rule(lint_source("src/core/fleet_manager.cpp", src), "one-loop"));
}

TEST(ArclintTest, OneLoopIgnoresPublishesAndTopicCompares) {
  // Publishing a report, or comparing a topic against one, is not a loop.
  const std::string src =
      "events::Notification n(topics::kGaugeReportSym);\n"
      "return topic == kGaugeReportSym || topic == kGaugeLifecycleSym;\n"
      "bus.subscribe(events::Filter::topic(topics::kProbeLatencySym), f);\n";
  EXPECT_FALSE(has_rule(lint_source("src/fault/faulty_bus.cpp", src),
                        "one-loop"));
  // Outside src/ (tests, benches) rigs may subscribe freely.
  EXPECT_TRUE(lint_source("tests/test_x.cpp",
                          "Filter::topic(topics::kGaugeReportSym);\n")
                  .empty());
}

TEST(ArclintTest, ToolsParityPassesWhenToolIsWiredEverywhere) {
  const std::string cmake =
      "add_test(NAME arclint_tree COMMAND arclint ${CMAKE_CURRENT_SOURCE_DIR})\n"
      "add_test(NAME arcverify_gate COMMAND arcverify)\n";
  const std::string ci =
      "      - name: Run arclint over the tree\n"
      "        run: ./build/tools/arclint/arclint .\n"
      "      - name: Run arcverify\n"
      "        run: ./build/tools/arcverify/arcverify\n";
  EXPECT_TRUE(
      arclint::check_tools_parity({"arclint", "arcverify"}, cmake, ci).empty());
}

TEST(ArclintTest, ToolsParityFlagsMissingCtestRegistration) {
  const std::string cmake = "add_executable(newtool main.cpp)\n";
  const std::string ci = "        run: ./build/tools/newtool/newtool .\n";
  const auto findings = arclint::check_tools_parity({"newtool"}, cmake, ci);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "tools-parity");
  EXPECT_EQ(findings[0].path, "CMakeLists.txt");
}

TEST(ArclintTest, ToolsParityFlagsMissingCiStep) {
  const std::string cmake = "add_test(NAME newtool_gate COMMAND newtool)\n";
  const std::string ci = "jobs:\n  build-and-test:\n";
  const auto findings = arclint::check_tools_parity({"newtool"}, cmake, ci);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "tools-parity");
  EXPECT_EQ(findings[0].path, ".github/workflows/ci.yml");
}

TEST(ArclintTest, ToolsParityMatchesWholeWordsOnly) {
  // "arc" is a prefix of both tool names; a prefix mention is not wiring.
  const std::string cmake = "add_test(NAME gate COMMAND arclinter)\n";
  const std::string ci = "        run: ./build/arclinter .\n";
  const auto findings = arclint::check_tools_parity({"arclint"}, cmake, ci);
  EXPECT_EQ(findings.size(), 2u);
}

// ---- stripping machinery -------------------------------------------------

TEST(ArclintTest, StripPreservesLineNumbers) {
  const std::string src =
      "int a; /* multi\nline\ncomment */ int b;\n"
      "const char* s = \"text\\\"quoted\";\n";
  const std::string stripped = arclint::strip_comments_and_strings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("comment"), std::string::npos);
  EXPECT_EQ(stripped.find("text"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(ArclintTest, StripHandlesRawStrings) {
  const std::string src =
      "const char* adl = R\"adl(std::mutex inside raw string)adl\"; int x;\n";
  const std::string stripped = arclint::strip_comments_and_strings(src);
  EXPECT_EQ(stripped.find("mutex"), std::string::npos);
  EXPECT_NE(stripped.find("int x;"), std::string::npos);
  EXPECT_TRUE(lint_source("src/acme/adl.cpp", src).empty());
}

}  // namespace
