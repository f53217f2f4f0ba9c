#include "dist/iqs_baseline.hpp"

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "dist/hisvsim_dist.hpp"
#include "sv/simulator.hpp"

namespace hisim::dist {
namespace {

struct IqsCase {
  std::string name;
  unsigned qubits;
  unsigned p;
};

class IqsMatchesFlat : public ::testing::TestWithParam<IqsCase> {};

TEST_P(IqsMatchesFlat, SameAmplitudes) {
  const IqsCase& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  DistState state(tc.qubits, tc.p);
  IqsBaselineSimulator().run(c, state);
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(state.to_state_vector().max_abs_diff(flat), 1e-10)
      << tc.name << " p=" << tc.p;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, IqsMatchesFlat,
    ::testing::Values(IqsCase{"bv", 9, 2}, IqsCase{"bv", 9, 3},
                      IqsCase{"cat_state", 8, 2}, IqsCase{"qft", 8, 2},
                      IqsCase{"qft", 8, 3}, IqsCase{"ising", 9, 2},
                      IqsCase{"qaoa", 8, 2}, IqsCase{"cc", 9, 3},
                      IqsCase{"qpe", 8, 2}, IqsCase{"qnn", 8, 2},
                      IqsCase{"adder37", 10, 2}, IqsCase{"grover", 7, 2}),
    [](const auto& ti) {
      return ti.param.name + "_p" + std::to_string(ti.param.p);
    });

TEST(Iqs, LocalGatesAreFree) {
  Circuit c(6);  // p=2 -> qubits 4,5 global
  c.add(Gate::h(0));
  c.add(Gate::cx(0, 3));
  c.add(Gate::rz(2, 0.5));
  DistState state(6, 2);
  std::map<std::string, double> m;
  IqsBaselineSimulator().run(c, state, {}, &m);
  EXPECT_EQ(m.at("exchange.bytes"), 0.0);
  EXPECT_EQ(m.at("exchange.count"), 0.0);
}

TEST(Iqs, DiagonalGlobalGatesAreFree) {
  Circuit c(6);
  c.add(Gate::h(5));          // costs one exchange first
  c.add(Gate::rz(5, 0.7));    // diagonal on global qubit: free
  c.add(Gate::cz(4, 5));      // diagonal two-qubit: free
  c.add(Gate::cp(0, 5, 0.3)); // diagonal: free
  DistState state(6, 2);
  std::map<std::string, double> m;
  IqsBaselineSimulator().run(c, state, {}, &m);
  EXPECT_EQ(m.at("exchange.count"), 1.0);
}

TEST(Iqs, GlobalControlLocalTargetIsFree) {
  Circuit c(6);
  c.add(Gate::h(0));
  c.add(Gate::cx(5, 0));  // control global, target local: no comm
  DistState state(6, 2);
  std::map<std::string, double> m;
  IqsBaselineSimulator().run(c, state, {}, &m);
  EXPECT_EQ(m.at("exchange.count"), 0.0);
}

TEST(Iqs, GlobalTargetCostsExchange) {
  Circuit c(6);
  c.add(Gate::h(0));
  c.add(Gate::cx(0, 5));  // target global: pairwise exchange
  DistState state(6, 2);
  std::map<std::string, double> m;
  IqsBaselineSimulator().run(c, state, {}, &m);
  EXPECT_EQ(m.at("exchange.count"), 1.0);
  EXPECT_GT(m.at("exchange.bytes"), 0.0);
}

TEST(Iqs, HisvsimBeatsIqsOnCommForDeepCircuits) {
  // The headline claim: per-part redistribution beats per-gate exchange
  // when many non-diagonal gates target global qubits (bv's oracle CXs all
  // hit the top-qubit ancilla). Diagonal-heavy circuits like qft/qpe are
  // the paper's exception.
  const Circuit c = circuits::bv(9, 0xFF);
  const unsigned p = 2;
  DistState s1(9, p), s2(9, p);
  std::map<std::string, double> iqs, his;
  IqsBaselineSimulator().run(c, s1, {}, &iqs);
  DistOptions opt;
  opt.process_qubits = p;
  execute_plan(compile_plan(c, opt), s2, {}, &his);
  EXPECT_LT(s1.to_state_vector().max_abs_diff(s2.to_state_vector()), 1e-10);
  EXPECT_LT(his.at("exchange.modeled_seconds.sum"),
            iqs.at("exchange.modeled_seconds.sum"));
}

TEST(Iqs, RequiresIdentityLayout) {
  const Circuit c = circuits::bv(6);
  DistState state(6, 2);
  NetworkModel net;
  CommStats stats;
  const RankLayout scrambled =
      RankLayout::for_part(6, 2, {4, 5}, state.layout());
  state.redistribute(scrambled, net, stats);
  EXPECT_THROW(IqsBaselineSimulator().run(c, state), Error);
}

}  // namespace
}  // namespace hisim::dist
