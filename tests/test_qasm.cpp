#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "sv/simulator.hpp"

namespace hisim::qasm {
namespace {

TEST(Lexer, BasicTokens) {
  const auto toks = tokenize("h q[0]; // comment\ncx q[0],q[1];");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, TokKind::Identifier);
  EXPECT_EQ(toks[0].text, "h");
  EXPECT_EQ(toks[2].kind, TokKind::LBracket);
  EXPECT_EQ(toks[3].kind, TokKind::Integer);
  EXPECT_EQ(toks.back().kind, TokKind::End);
}

TEST(Lexer, Numbers) {
  const auto toks = tokenize("3.14 42 1e-3 2.5e2");
  EXPECT_EQ(toks[0].kind, TokKind::Real);
  EXPECT_DOUBLE_EQ(toks[0].value, 3.14);
  EXPECT_EQ(toks[1].kind, TokKind::Integer);
  EXPECT_DOUBLE_EQ(toks[1].value, 42.0);
  EXPECT_EQ(toks[2].kind, TokKind::Real);
  EXPECT_DOUBLE_EQ(toks[2].value, 1e-3);
  EXPECT_DOUBLE_EQ(toks[3].value, 250.0);
}

TEST(Lexer, StringAndArrow) {
  const auto toks = tokenize("include \"qelib1.inc\"; measure q -> c;");
  EXPECT_EQ(toks[1].kind, TokKind::String);
  EXPECT_EQ(toks[1].text, "qelib1.inc");
  bool has_arrow = false;
  for (const auto& t : toks) has_arrow |= t.kind == TokKind::Arrow;
  EXPECT_TRUE(has_arrow);
}

TEST(Lexer, RejectsUnknownChar) {
  EXPECT_THROW(tokenize("h q[0]; @"), Error);
}

TEST(Parser, MinimalProgram) {
  const Circuit c = parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
)");
  EXPECT_EQ(c.num_qubits(), 3u);
  ASSERT_EQ(c.num_gates(), 3u);
  EXPECT_EQ(c.gate(0).kind, GateKind::H);
  EXPECT_EQ(c.gate(1).kind, GateKind::CX);
  EXPECT_EQ(c.gate(2).kind, GateKind::RZ);
  EXPECT_NEAR(c.gate(2).params[0].value(), M_PI / 2, 1e-12);
}

TEST(Parser, ExpressionEvaluation) {
  const Circuit c = parse(
      "qreg q[1]; rz(-pi/4 + 2*0.5) q[0]; ry(cos(0)) q[0]; rx(2^3) q[0];");
  EXPECT_NEAR(c.gate(0).params[0].value(), -M_PI / 4 + 1.0, 1e-12);
  EXPECT_NEAR(c.gate(1).params[0].value(), 1.0, 1e-12);
  EXPECT_NEAR(c.gate(2).params[0].value(), 8.0, 1e-12);
}

TEST(Parser, RegisterBroadcast) {
  const Circuit c = parse("qreg q[4]; h q;");
  EXPECT_EQ(c.num_gates(), 4u);
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(c.gate(i).qubits[0], i);
}

TEST(Parser, TwoRegistersFlatten) {
  const Circuit c = parse("qreg a[2]; qreg b[2]; cx a[1],b[0];");
  EXPECT_EQ(c.num_qubits(), 4u);
  EXPECT_EQ(c.gate(0).qubits[0], 1u);
  EXPECT_EQ(c.gate(0).qubits[1], 2u);
}

TEST(Parser, CustomGateExpansion) {
  const Circuit c = parse(R"(
qreg q[2];
gate bell a,b { h a; cx a,b; }
bell q[0],q[1];
)");
  ASSERT_EQ(c.num_gates(), 2u);
  EXPECT_EQ(c.gate(0).kind, GateKind::H);
  EXPECT_EQ(c.gate(1).kind, GateKind::CX);
}

TEST(Parser, ParameterizedCustomGate) {
  const Circuit c = parse(R"(
qreg q[1];
gate rot(t) a { rz(t/2) a; rz(t/2) a; }
rot(pi) q[0];
)");
  ASSERT_EQ(c.num_gates(), 2u);
  EXPECT_NEAR(c.gate(0).params[0].value(), M_PI / 2, 1e-12);
}

TEST(Parser, NestedCustomGates) {
  const Circuit c = parse(R"(
qreg q[2];
gate inner a { h a; }
gate outer a,b { inner a; cx a,b; inner b; }
outer q[0],q[1];
)");
  EXPECT_EQ(c.num_gates(), 3u);
}

TEST(Parser, MeasureAndBarrierCounted) {
  ParseInfo info;
  const Circuit c = parse(
      "qreg q[2]; creg c[2]; h q[0]; barrier q; measure q -> c;", &info);
  EXPECT_EQ(c.num_gates(), 1u);
  EXPECT_EQ(info.num_barrier, 1u);
  EXPECT_EQ(info.num_measure, 1u);
}

TEST(Parser, ErrorsAreInformative) {
  EXPECT_THROW(parse("qreg q[2]; h q[5];"), Error);
  EXPECT_THROW(parse("qreg q[2]; frobnicate q[0];"), Error);
  EXPECT_THROW(parse("qreg q[2]; rz() q[0];"), Error);
  EXPECT_THROW(parse("qreg q[2]; reset q[0];"), Error);
  EXPECT_THROW(parse("OPENQASM 2.0; qreg q[2]; gate g(a) x { rz(a x; }"),
               Error);
  EXPECT_THROW(parse("qreg q[1]; gate g a { h a; g a; } g q[0];"), Error);
  EXPECT_THROW(parse("qreg q[1]; gate h a { h a; } h q[0];"), Error);
  // Integers past `unsigned` are rejected before any narrowing: 2^32 must
  // not wrap to q[0], and a register of 2^32 + 2 qubits must not declare
  // 2. The Error names the literal.
  for (const auto& [program, literal] :
       std::vector<std::pair<std::string, std::string>>{
           {"qreg q[2]; x q[4294967296];", "4294967296"},
           {"qreg q[4294967298];", "4294967298"},
           {"qreg a[4294967295]; qreg b[2];", "2"}}) {
    try {
      (void)parse(program);
      ADD_FAILURE() << program << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + literal + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Writer, RoundTripSimulatesIdentically) {
  Circuit c(4, "rt");
  c.add(Gate::h(0));
  c.add(Gate::cx(0, 1));
  c.add(Gate::rz(2, 0.7));
  c.add(Gate::cp(1, 2, 0.3));
  c.add(Gate::ccx(0, 1, 3));
  c.add(Gate::swap(2, 3));
  c.add(Gate::rzz(0, 3, -0.4));
  c.add(Gate::u3(1, 0.1, 0.2, 0.3));
  const Circuit back = parse(write(c));
  EXPECT_EQ(back.num_qubits(), 4u);
  sv::FlatSimulator sim;
  EXPECT_LT(sim.simulate(c).max_abs_diff(sim.simulate(back)), 1e-9);
}

TEST(Writer, McxLoweredOnWrite) {
  Circuit c(5, "mcx");
  for (Qubit q = 0; q < 5; ++q) c.add(Gate::h(q));
  c.add(Gate::mcx({0, 1, 2, 3, 4}));
  const Circuit back = parse(write(c));
  sv::FlatSimulator sim;
  EXPECT_LT(sim.simulate(c).max_abs_diff(sim.simulate(back)), 1e-8);
}

}  // namespace
}  // namespace hisim::qasm
