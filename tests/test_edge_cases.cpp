// Edge cases and failure injection across modules: tiny registers, empty
// circuits, adversarial partitions, malformed layouts, and boundary qubit
// positions — the inputs that break naive index arithmetic.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "dist/iqs_baseline.hpp"
#include "hisvsim/engine.hpp"
#include "qasm/parser.hpp"
#include "partition/exact.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace hisim {
namespace {

/// `c` exactly as given on the hierarchical target at `limit`.
Result run_hierarchical(const Circuit& c, unsigned limit,
                        partition::Strategy strategy,
                        const ExecOptions& x = {}) {
  Options o;
  o.limit = limit;
  o.strategy = strategy;
  o.opt_level = 0;
  return Engine::compile(c, o).execute(x);
}

TEST(EdgeCase, OneQubitCircuitAllPaths) {
  Circuit c(1);
  c.add(Gate::h(0));
  c.add(Gate::t(0));
  c.add(Gate::h(0));
  const auto ref = sv::FlatSimulator().simulate(c);
  Options opt;
  opt.limit = 1;
  EXPECT_LT(Engine::compile(c, opt).execute().state.max_abs_diff(ref), 1e-12);
}

TEST(EdgeCase, EmptyCircuitSimulates) {
  const Circuit c(4);
  Options opt;
  opt.limit = 2;
  const auto s = Engine::compile(c, opt).execute().state;
  EXPECT_NEAR(std::abs(s[0] - 1.0), 0.0, 1e-15);
}

TEST(EdgeCase, EmptyCircuitDistributed) {
  const Circuit c(5);
  Options opt;
  opt.target = Target::DistributedSerial;
  opt.process_qubits = 2;
  const auto s = Engine::compile(c, opt).execute().state;
  EXPECT_NEAR(std::abs(s[0] - 1.0), 0.0, 1e-15);
}

TEST(EdgeCase, GateOnHighestQubit) {
  // Index arithmetic on the top bit (sign-extension traps).
  for (unsigned n : {2u, 8u, 16u}) {
    Circuit c(n);
    c.add(Gate::h(n - 1));
    c.add(Gate::cx(n - 1, 0));
    const auto s = sv::FlatSimulator().simulate(c);
    EXPECT_NEAR(s.prob_one(n - 1), 0.5, 1e-10) << n;
    EXPECT_NEAR(s.prob_one(0), 0.5, 1e-10) << n;
  }
}

TEST(EdgeCase, PartHoldingEveryQubit) {
  const Circuit c = circuits::qft(6);
  const dag::CircuitDag d(c);
  const auto parts = partition::partition_nat(d, 6);
  ASSERT_EQ(parts.num_parts(), 1u);
  // One part as wide as the state: nothing to relayout.
  const Result r = run_hierarchical(c, 6, partition::Strategy::Nat);
  EXPECT_EQ(r.parts, 1u);
  EXPECT_LT(r.state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-10);
}

TEST(EdgeCase, SingleQubitParts) {
  // limit 1: every gate is single-qubit -> per-gate parts are legal.
  Circuit c(4);
  for (Qubit q = 0; q < 4; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q < 4; ++q) c.add(Gate::rz(q, 0.3 * (q + 1)));
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = 1;
  for (auto s : {partition::Strategy::Nat, partition::Strategy::Dfs,
                 partition::Strategy::DagP}) {
    opt.strategy = s;
    const auto parts = partition::make_partition(d, opt);
    partition::validate(d, parts);
    const Result r = run_hierarchical(c, 1, s);
    EXPECT_EQ(r.parts, parts.num_parts());
    EXPECT_LT(r.state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-10);
  }
}

TEST(EdgeCase, TwoLocalQubitsExtreme) {
  // Extreme distribution: l = 2 (every rank holds 4 amplitudes); every CX
  // still fits a part exactly.
  Circuit c(4);
  c.add(Gate::h(0));
  c.add(Gate::cx(0, 1));
  c.add(Gate::cx(1, 2));
  c.add(Gate::cx(2, 3));
  Options opt;
  opt.target = Target::DistributedSerial;
  opt.process_qubits = 2;
  EXPECT_LT(Engine::compile(c, opt).execute().state.max_abs_diff(
                sv::FlatSimulator().simulate(c)),
            1e-10);
}

TEST(EdgeCase, OneLocalQubitWithTwoQubitGatesRejected) {
  // l = 1 cannot hold a CX part; the runner must fail loudly, not wedge.
  Circuit c(4);
  c.add(Gate::cx(0, 1));
  Options opt;
  opt.target = Target::DistributedSerial;
  opt.process_qubits = 3;
  EXPECT_THROW(Engine::compile(c, opt), Error);
}

TEST(EdgeCase, IqsAllGlobalGates) {
  // Every gate targets a process qubit: maximal exchange pressure.
  Circuit c(6);
  c.add(Gate::h(4));
  c.add(Gate::h(5));
  c.add(Gate::cx(4, 5));
  c.add(Gate::x(5));
  dist::DistState state(6, 2);
  std::map<std::string, double> m;
  dist::IqsBaselineSimulator().run(c, state, {}, &m);
  EXPECT_LT(state.to_state_vector().max_abs_diff(
                sv::FlatSimulator().simulate(c)),
            1e-10);
  EXPECT_GE(m.at("exchange.count"), 3.0);
}

TEST(EdgeCase, IqsBothGlobalSwap) {
  Circuit c(6);
  c.add(Gate::h(4));
  c.add(Gate::swap(4, 5));
  dist::DistState state(6, 2);
  dist::IqsBaselineSimulator().run(c, state);
  const auto flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(state.to_state_vector().max_abs_diff(flat), 1e-10);
}

TEST(EdgeCase, IqsGenericGlobalGate) {
  // RXX across the local/global boundary exercises the fallback path.
  Circuit c(6);
  c.add(Gate::h(0));
  c.add(Gate::rxx(0, 5, 0.9));
  dist::DistState state(6, 2);
  dist::IqsBaselineSimulator().run(c, state);
  EXPECT_LT(state.to_state_vector().max_abs_diff(
                sv::FlatSimulator().simulate(c)),
            1e-10);
}

TEST(EdgeCase, ExactSolverLimitEqualsMaxArity) {
  Circuit c(5);
  c.add(Gate::ccx(0, 1, 2));
  c.add(Gate::ccx(2, 3, 4));
  c.add(Gate::ccx(0, 3, 4));
  const dag::CircuitDag d(c);
  const auto r = partition::partition_exact(d, 3);
  EXPECT_TRUE(r.proven_optimal);
  partition::validate(d, r.partitioning);
  EXPECT_EQ(r.partitioning.num_parts(), 3u);  // no two CCXs share 3 qubits
}

TEST(EdgeCase, ValidateRejectsCyclicHandCraft) {
  Circuit c(3);
  c.add(Gate::cx(0, 1));  // g0
  c.add(Gate::cx(1, 2));  // g1
  c.add(Gate::cx(0, 1));  // g2
  const dag::CircuitDag d(c);
  partition::Partitioning p;
  p.limit = 2;
  p.parts.resize(2);
  p.parts[0].gates = {0, 2};
  p.parts[0].qubits = {0, 1};
  p.parts[1].gates = {1};
  p.parts[1].qubits = {1, 2};
  p.part_of = {0, 1, 0};
  EXPECT_THROW(partition::validate(d, p), Error);
}

TEST(EdgeCase, HierarchicalWithPrePreparedState) {
  // The hierarchical target must act on the provided state, not reset it.
  Circuit prep(5), body(5);
  prep.add(Gate::x(4));
  body.add(Gate::cx(4, 0));
  sv::StateVector state(5);
  sv::FlatSimulator().run(prep, state);
  ExecOptions x;
  x.initial_state = &state;
  const Result r = run_hierarchical(body, 2, partition::Strategy::Nat, x);
  EXPECT_NEAR(r.state.prob_one(0), 1.0, 1e-12);
  EXPECT_NEAR(r.state.prob_one(4), 1.0, 1e-12);
}

TEST(EdgeCase, DeepCircuitManyParts) {
  // Hundreds of parts: alternating disjoint pairs defeat merging.
  Circuit c(8);
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const Qubit a = static_cast<Qubit>(rng.below(8));
    Qubit b = static_cast<Qubit>(rng.below(8));
    while (b == a) b = static_cast<Qubit>(rng.below(8));
    c.add(Gate::cp(a, b, rng.uniform(-1, 1)));
    c.add(Gate::h(a));
  }
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = 3;
  const auto parts = partition::make_partition(d, opt);
  partition::validate(d, parts);
  const Result r = run_hierarchical(c, 3, opt.strategy);
  EXPECT_EQ(r.parts, parts.num_parts());
  EXPECT_LT(r.state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-9);
}

TEST(EdgeCase, StateVectorTooLargeRejected) {
  EXPECT_THROW(sv::StateVector(40), Error);
}

TEST(EdgeCase, QasmEmptyProgram) {
  const Circuit c = qasm::parse("OPENQASM 2.0;\nqreg q[3];\n");
  EXPECT_EQ(c.num_qubits(), 3u);
  EXPECT_EQ(c.num_gates(), 0u);
}

}  // namespace
}  // namespace hisim
