// End-to-end integration: every benchmark family flows through the whole
// stack — QASM round-trip, all three partitioners, single-node
// hierarchical, distributed HiSVSIM with and without a second level, IQS
// baseline — and all paths must agree with the flat reference on the final
// amplitudes.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "hisvsim/engine.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "sv/observables.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

class FullPipeline : public ::testing::TestWithParam<std::string> {};

TEST_P(FullPipeline, AllPathsAgreeOnSuiteCircuit) {
  const std::string name = GetParam();
  const unsigned n = 9;
  const Circuit c = circuits::make_by_name(name, n);
  const sv::StateVector ref = sv::FlatSimulator().simulate(c);

  // 1. QASM round trip.
  {
    const Circuit back = qasm::parse(qasm::write(c));
    EXPECT_LT(sv::FlatSimulator().simulate(back).max_abs_diff(ref), 1e-8)
        << name << " qasm";
  }

  // 2. All strategies, single-node hierarchical.
  unsigned max_arity = 1;
  for (const Gate& g : c.gates()) max_arity = std::max(max_arity, g.arity());
  const unsigned limit = std::max(5u, max_arity);
  for (auto s : {partition::Strategy::Nat, partition::Strategy::Dfs,
                 partition::Strategy::DagP}) {
    Options opt;
    opt.strategy = s;
    opt.limit = limit;
    EXPECT_LT(Engine::compile(c, opt).execute().state.max_abs_diff(ref), 1e-9)
        << name << " " << partition::strategy_name(s);
  }

  // 3. Distributed HiSVSIM, one and two levels, + IQS baseline.
  for (unsigned level2 : {0u, 3u}) {
    if (level2 != 0 && max_arity > level2) continue;
    Options opt;
    opt.target = Target::DistributedSerial;
    opt.process_qubits = 2;
    opt.level2_limit = level2;
    const Result r = Engine::compile(c, opt).execute();
    EXPECT_LT(r.state.max_abs_diff(ref), 1e-9)
        << name << " distributed, level2 " << level2;
    if (level2 != 0) {
      EXPECT_GE(r.inner_parts, r.parts) << name;
    }
  }
  {
    Options opt;
    opt.target = Target::IqsBaseline;
    opt.process_qubits = 2;
    EXPECT_LT(Engine::compile(c, opt).execute().state.max_abs_diff(ref), 1e-9)
        << name << " iqs";
  }

  // 4. Observables stay physical.
  EXPECT_NEAR(ref.norm(), 1.0, 1e-9);
  for (Qubit q = 0; q < n; ++q) {
    sv::PauliString z;
    z.factors = {{q, sv::Pauli::Z}};
    const double ez = sv::expectation(ref, z);
    EXPECT_GE(ez, -1.0 - 1e-9) << name;
    EXPECT_LE(ez, 1.0 + 1e-9) << name;
    EXPECT_NEAR(ez, 1.0 - 2.0 * ref.prob_one(q), 1e-9) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, FullPipeline,
    ::testing::Values("cat_state", "bv", "qaoa", "cc", "ising", "qft", "qnn",
                      "grover", "qpe", "adder37"),
    [](const auto& ti) { return ti.param; });

TEST(Integration, DenseBlocksThenDistributedThenSampling) {
  // The full user workflow on a circuit with dense 2- and 3-qubit
  // Gate::unitary blocks: partition with dagP, run on the simulated
  // cluster, then sample outcomes.
  Circuit c = circuits::ising(10, 3, 21);
  Rng rng(21);
  for (const std::vector<Qubit>& q : std::vector<std::vector<Qubit>>{
           {0, 1}, {2, 7, 9}, {8, 3}, {5, 4, 6}, {9, 0, 1}})
    c.add(Gate::unitary(
        q, testutil::random_unitary(static_cast<unsigned>(q.size()), rng)));
  Options opt;
  opt.target = Target::DistributedSerial;
  opt.process_qubits = 2;
  ExecOptions x;
  x.shots = 200;
  const Result r = Engine::compile(c, opt).execute(x);
  EXPECT_GT(r.parts, 0u);
  EXPECT_LT(r.state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-9);
  EXPECT_EQ(r.samples.size(), 200u);
  for (Index v : r.samples) EXPECT_LT(v, dim(10));
}

TEST(Integration, OverlappedTimeReportedForSuite) {
  for (const char* name : {"bv", "ising", "qaoa"}) {
    const Circuit c = circuits::make_by_name(name, 10);
    Options opt;
    opt.target = Target::DistributedSerial;
    opt.process_qubits = 2;
    const Result r = Engine::compile(c, opt).execute();
    EXPECT_LE(r.metrics.at("step.pipelined_seconds"),
              r.total_seconds() + 1e-9)
        << name;
  }
}

}  // namespace
}  // namespace hisim
