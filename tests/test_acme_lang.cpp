// Lexer, Armani expression parser/evaluator, and ADL round-trip tests.
#include <gtest/gtest.h>

#include "acme/adl.hpp"
#include "acme/evaluator.hpp"
#include "acme/expr_parser.hpp"
#include "acme/lexer.hpp"
#include "model/types.hpp"

namespace arcadia::acme {
namespace {

// ---- lexer ----

TEST(LexerTest, TokenizesOperators) {
  auto tokens = tokenize("a <= b != c !-> d(e) | f && g || !h");
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::Identifier, TokenKind::Le,
                       TokenKind::Identifier, TokenKind::Ne,
                       TokenKind::Identifier, TokenKind::BangArrow,
                       TokenKind::Identifier, TokenKind::LParen,
                       TokenKind::Identifier, TokenKind::RParen,
                       TokenKind::Pipe, TokenKind::Identifier,
                       TokenKind::AndAnd, TokenKind::Identifier,
                       TokenKind::OrOr, TokenKind::Not, TokenKind::Identifier,
                       TokenKind::EndOfFile}));
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = tokenize("3.5 42 1e3 \"hi\\n\"");
  EXPECT_DOUBLE_EQ(tokens[0].number, 3.5);
  EXPECT_DOUBLE_EQ(tokens[1].number, 42.0);
  EXPECT_DOUBLE_EQ(tokens[2].number, 1000.0);
  EXPECT_EQ(tokens[3].text, "hi\n");
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = tokenize("a // line comment\n/* block\ncomment */ b");
  EXPECT_EQ(tokens.size(), 3u);  // a, b, EOF
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[1].line, 3);
}

TEST(LexerTest, PositionsTracked) {
  auto tokens = tokenize("a\n  b");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(LexerTest, ErrorsCarryPositions) {
  try {
    tokenize("ok\n  $");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
  EXPECT_THROW(tokenize("\"unterminated"), ParseError);
  EXPECT_THROW(tokenize("/* unterminated"), ParseError);
}

// ---- expression evaluation over a model ----

struct ExprRig {
  model::System sys{"S"};
  Evaluator evaluator;

  ExprRig() {
    auto& g1 = sys.add_component("G1", model::cs::kServerGroupT);
    g1.set_property("load", model::PropertyValue(8.0));
    g1.add_port("provide", model::cs::kProvidePortT);
    auto& g2 = sys.add_component("G2", model::cs::kServerGroupT);
    g2.set_property("load", model::PropertyValue(2.0));
    g2.add_port("provide", model::cs::kProvidePortT);
    auto& c = sys.add_component("C", model::cs::kClientT);
    c.set_property("averageLatency", model::PropertyValue(3.0));
    c.set_property("maxLatency", model::PropertyValue(2.0));
    c.add_port("request", model::cs::kRequestPortT);
    auto& conn = sys.add_connector("K", model::cs::kConnT);
    conn.add_role("clientSide", model::cs::kClientRoleT)
        .set_property("bandwidth", model::PropertyValue(5e3));
    conn.add_role("serverSide", model::cs::kServerRoleT);
    sys.attach({"C", "request", "K", "clientSide"});
    sys.attach({"G1", "provide", "K", "serverSide"});
  }

  EvalValue eval(const std::string& source) {
    auto expr = parse_expression(source);
    EvalContext ctx(sys);
    return evaluator.evaluate(*expr, ctx);
  }
  bool eval_bool(const std::string& source) { return eval(source).truthy(); }
};

TEST(EvaluatorTest, Arithmetic) {
  ExprRig rig;
  EXPECT_DOUBLE_EQ(rig.eval("1 + 2 * 3").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(rig.eval("(1 + 2) * 3").as_number(), 9.0);
  EXPECT_DOUBLE_EQ(rig.eval("-4 + 10 % 3").as_number(), -3.0);
  EXPECT_DOUBLE_EQ(rig.eval("10 / 4").as_number(), 2.5);
  EXPECT_THROW(rig.eval("1 / 0"), ScriptError);
}

TEST(EvaluatorTest, ComparisonAndLogic) {
  ExprRig rig;
  EXPECT_TRUE(rig.eval_bool("1 < 2 and 2 <= 2"));
  EXPECT_TRUE(rig.eval_bool("1 > 2 or 3 >= 3"));
  EXPECT_TRUE(rig.eval_bool("!(1 == 2)"));
  EXPECT_TRUE(rig.eval_bool("\"abc\" < \"abd\""));
  EXPECT_TRUE(rig.eval_bool("nil == nil"));
  EXPECT_FALSE(rig.eval_bool("1 == nil"));
  EXPECT_TRUE(rig.eval_bool("self.Components == self.Components"));
  EXPECT_FALSE(rig.eval_bool("self.Components == self.Connectors"));
  EXPECT_FALSE(rig.eval_bool("self.Components == nil"));

  // Property values compare like literals: an int property against int and
  // fractional literals, a symbol property against string literals.
  auto& g1 = rig.sys.component("G1");
  g1.set_property("replicationCount", model::PropertyValue(2));
  g1.set_property("host", model::PropertyValue(util::Symbol::intern("Node5")));
  auto on_g1 = [&](const std::string& source) {
    auto expr = parse_expression(source);
    EvalContext ctx(rig.sys);
    ctx.set_context_element(ElementRef::of_component(rig.sys, g1));
    return rig.evaluator.evaluate_bool(*expr, ctx);
  };
  EXPECT_TRUE(on_g1("replicationCount == 2"));
  EXPECT_TRUE(on_g1("replicationCount == 2.0"));
  EXPECT_TRUE(on_g1("replicationCount < 2.5"));
  EXPECT_FALSE(on_g1("replicationCount < 2"));
  EXPECT_TRUE(on_g1("host == \"Node5\""));
  EXPECT_FALSE(on_g1("host == \"Node6\""));
  EXPECT_TRUE(on_g1("host < \"Node6\""));
  EXPECT_FALSE(on_g1("host < \"Node5\""));
  EXPECT_FALSE(on_g1("host == 5"));
}

TEST(EvaluatorTest, TypeErrorTextsArePinned) {
  ExprRig rig;
  rig.sys.component("G1").set_property("replicationCount",
                                       model::PropertyValue(2));
  auto error_of = [&](const std::string& source) -> std::string {
    try {
      rig.eval(source);
    } catch (const ScriptError& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string g1 =
      "(select one g : ServerGroupT in self.Components | g.name == \"G1\")";
  EXPECT_EQ(error_of("\"a\" < 2"),
            "ScriptError: cannot order \"a\" and 2.000000 (line 1)");
  // An int property renders like any number.
  EXPECT_EQ(error_of(g1 + ".replicationCount < \"a\""),
            "ScriptError: cannot order 2.000000 and \"a\" (line 1)");
  EXPECT_EQ(error_of("true < false"),
            "ScriptError: cannot order true and false (line 1)");
  EXPECT_EQ(error_of("-\"x\""), "ScriptError: expected number, got \"x\"");
  EXPECT_EQ(error_of("\"x\" * 2"), "ScriptError: expected number, got \"x\"");
  EXPECT_EQ(error_of("size(1)"), "ScriptError: expected set, got 1.000000");
  EXPECT_EQ(error_of("nil and true"),
            "ScriptError: condition is not boolean: nil");
}

TEST(EvaluatorTest, ShortCircuit) {
  ExprRig rig;
  // The right operand would throw (unbound name) if evaluated.
  EXPECT_FALSE(rig.eval_bool("false and missingName"));
  EXPECT_TRUE(rig.eval_bool("true or missingName"));
  EXPECT_THROW(rig.eval_bool("true and missingName"), ScriptError);
}

TEST(EvaluatorTest, MemberAccessOnModel) {
  ExprRig rig;
  EXPECT_DOUBLE_EQ(rig.eval("size(self.Components)").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(rig.eval("size(self.Connectors)").as_number(), 1.0);
  EXPECT_THROW(rig.eval("self.NoSuchCollection"), ScriptError);
}

TEST(EvaluatorTest, SelectFiltersByTypeAndPredicate) {
  ExprRig rig;
  EXPECT_DOUBLE_EQ(
      rig.eval("size(select g : ServerGroupT in self.Components | true)")
          .as_number(),
      2.0);
  EXPECT_DOUBLE_EQ(
      rig.eval("size(select g : ServerGroupT in self.Components | g.load > 5)")
          .as_number(),
      1.0);
}

TEST(EvaluatorTest, SelectOneReturnsElementOrNil) {
  ExprRig rig;
  EvalValue v = rig.eval(
      "select one g : ServerGroupT in self.Components | g.load > 5");
  ASSERT_TRUE(v.is_element());
  EXPECT_EQ(v.as_element().name(), "G1");
  EXPECT_TRUE(
      rig.eval("select one g : ServerGroupT in self.Components | g.load > 99")
          .is_nil());
}

TEST(EvaluatorTest, ExistsAndForall) {
  ExprRig rig;
  EXPECT_TRUE(rig.eval_bool(
      "exists g : ServerGroupT in self.Components | g.load > 5"));
  EXPECT_FALSE(rig.eval_bool(
      "forall g : ServerGroupT in self.Components | g.load > 5"));
  EXPECT_TRUE(rig.eval_bool(
      "forall g : ServerGroupT in self.Components | g.load > 1"));
  // Vacuous truth over an empty filtered domain.
  EXPECT_TRUE(rig.eval_bool(
      "forall x : NoSuchT in self.Components | false"));
  EXPECT_FALSE(rig.eval_bool(
      "exists x : NoSuchT in self.Components | true"));
}

TEST(EvaluatorTest, ConnectedAndAttachedBuiltins) {
  ExprRig rig;
  EXPECT_TRUE(rig.eval_bool(
      "exists g : ServerGroupT in self.Components | connected(g, "
      "select one c : ClientT in self.Components | true)"));
  EXPECT_FALSE(rig.eval_bool(
      "connected(select one a : ServerGroupT in self.Components | a.name == "
      "\"G2\", select one c : ClientT in self.Components | true)"));
}

TEST(EvaluatorTest, NestedQuantifierOverPorts) {
  ExprRig rig;
  EXPECT_TRUE(rig.eval_bool(
      "exists c : ClientT in self.Components | "
      "exists p : RequestT in c.Ports | true"));
}

TEST(EvaluatorTest, UnqualifiedNamesUseContextElement) {
  ExprRig rig;
  auto expr = parse_expression("averageLatency <= maxLatency");
  EvalContext ctx(rig.sys);
  ctx.set_context_element(
      ElementRef::of_component(rig.sys, rig.sys.component("C")));
  // 3.0 <= 2.0 is false: the paper's latency constraint is violated.
  EXPECT_FALSE(rig.evaluator.evaluate_bool(*expr, ctx));
}

TEST(EvaluatorTest, GlobalsShadowContextProperties) {
  ExprRig rig;
  auto expr = parse_expression("averageLatency <= maxLatency");
  EvalContext ctx(rig.sys);
  ctx.set_context_element(
      ElementRef::of_component(rig.sys, rig.sys.component("C")));
  ctx.bind("maxLatency", EvalValue(10.0));
  EXPECT_TRUE(rig.evaluator.evaluate_bool(*expr, ctx));
}

TEST(EvaluatorTest, MethodCallWithoutHandlerFails) {
  ExprRig rig;
  EXPECT_THROW(
      rig.eval("(select one g : ServerGroupT in self.Components | true)"
               ".addServer()"),
      ScriptError);
}

TEST(EvaluatorTest, StringConcatenation) {
  ExprRig rig;
  EXPECT_EQ(rig.eval("\"a\" + \"b\"").as_string(), "ab");
}

TEST(EvaluatorTest, BuiltinMinMaxAbsContains) {
  ExprRig rig;
  EXPECT_DOUBLE_EQ(rig.eval("min(2, 3)").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(rig.eval("max(2, 3)").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(rig.eval("abs(0 - 4)").as_number(), 4.0);
  EXPECT_TRUE(rig.eval_bool(
      "contains(self.Components, select one c : ClientT in self.Components | "
      "true)"));
}

TEST(ExprParserTest, TrailingInputRejected) {
  EXPECT_THROW(parse_expression("1 + 2 extra"), ParseError);
}

TEST(ExprParserTest, ErrorPositions) {
  try {
    parse_expression("1 +");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
  }
}

// ---- ADL ----

TEST(AdlTest, ParsesGridDescription) {
  auto sys = parse_system(grid_acme_source());
  EXPECT_EQ(sys->name(), "GridStorage");
  EXPECT_TRUE(sys->has_component("ServerGrp1"));
  EXPECT_TRUE(sys->has_component("User3"));
  // Figure 3: three server groups + six users.
  EXPECT_EQ(sys->components().size(), 9u);
  EXPECT_EQ(sys->connectors().size(), 6u);
  EXPECT_EQ(sys->attachments().size(), 12u);
  const model::Component& grp = sys->component("ServerGrp1");
  EXPECT_EQ(grp.property("replicationCount").as_int(), 3);
  EXPECT_TRUE(grp.has_representation());
  EXPECT_TRUE(grp.representation_const().has_component("Server2"));
  EXPECT_DOUBLE_EQ(sys->connector("Conn1")
                       .role("clientSide")
                       .property("bandwidth")
                       .as_double(),
                   1e7);
}

TEST(AdlTest, ParsedSystemSatisfiesStyle) {
  auto sys = parse_system(grid_acme_source());
  model::Style style = model::client_server_style();
  auto problems = style.check_system(*sys);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(AdlTest, RoundTripStable) {
  auto sys = parse_system(grid_acme_source());
  std::string printed = print_system(*sys);
  auto reparsed = parse_system(printed);
  EXPECT_EQ(print_system(*reparsed), printed);
}

TEST(AdlTest, PropertyValueKindsPreserved) {
  auto sys = parse_system(
      "System S = {"
      "  Component C : ClientT = {"
      "    Property b : boolean = true;"
      "    Property i : int = -3;"
      "    Property f : float = 2.5;"
      "    Property s : string = \"hey\";"
      "  };"
      "};");
  const model::Component& c = sys->component("C");
  EXPECT_TRUE(c.property("b").as_bool());
  EXPECT_EQ(c.property("i").as_int(), -3);
  EXPECT_DOUBLE_EQ(c.property("f").as_double(), 2.5);
  EXPECT_EQ(c.property("s").as_string(), "hey");
}

TEST(AdlTest, AttachmentValidationAtParse) {
  EXPECT_THROW(parse_system("System S = { Attachment A.p to K.r; };"),
               ModelError);
}

TEST(AdlTest, MalformedInputPositions) {
  try {
    parse_system("System S = {\n  Component;\n};");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(parse_system("NotASystem X = {};"), ParseError);
  EXPECT_THROW(parse_system("System S = {} trailing;"), ParseError);
}

}  // namespace
}  // namespace arcadia::acme
