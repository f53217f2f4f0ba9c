#include "circuit/fusion.hpp"

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "partition/partition.hpp"
#include "sv/hierarchical.hpp"
#include "sv/simulator.hpp"

namespace hisim {
namespace {

TEST(EmbedUnitary, SingleQubitIntoPair) {
  // X on qubit 2 embedded into support {0, 2}: X on bit 1, I on bit 0.
  const Matrix m = embed_unitary(Gate::x(2), {0, 2});
  const Matrix expect = Gate::x(0).matrix().kron(Matrix::identity(2));
  EXPECT_LT(m.max_abs_diff(expect), 1e-14);
}

TEST(EmbedUnitary, KeepsUnitarity) {
  for (const Gate& g : {Gate::h(1), Gate::cx(0, 2), Gate::rzz(0, 1, 0.7),
                        Gate::ccx(0, 1, 2)}) {
    const Matrix m = embed_unitary(g, {0, 1, 2});
    EXPECT_TRUE(m.is_unitary(1e-10)) << g.to_string();
  }
}

TEST(EmbedUnitary, RequiresSupportSuperset) {
  EXPECT_THROW(embed_unitary(Gate::cx(0, 3), {0, 1}), Error);
}

TEST(Fusion, ReducesGateCount) {
  const Circuit c = circuits::qft(8);
  const Circuit f = fuse(c, {.max_qubits = 3, .keep_wide_gates = true});
  EXPECT_LT(f.num_gates(), c.num_gates());
  for (const Gate& g : f.gates()) EXPECT_LE(g.arity(), 3u);
}

TEST(Fusion, SingleGateRunsUntouched) {
  Circuit c(4);
  c.add(Gate::cx(0, 1));
  c.add(Gate::cx(2, 3));  // disjoint support: 4 qubits > 3 -> new run
  const Circuit f = fuse(c, {.max_qubits = 3, .keep_wide_gates = true});
  ASSERT_EQ(f.num_gates(), 2u);
  EXPECT_EQ(f.gate(0).kind, GateKind::CX);
  EXPECT_EQ(f.gate(1).kind, GateKind::CX);
}

struct FuseCase {
  std::string name;
  unsigned qubits;
  unsigned max_qubits;
};

class FusionEquivalence : public ::testing::TestWithParam<FuseCase> {};

TEST_P(FusionEquivalence, SimulatesIdentically) {
  const FuseCase& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  const Circuit f = fuse(c, {.max_qubits = tc.max_qubits,
                             .keep_wide_gates = true});
  sv::FlatSimulator sim;
  EXPECT_LT(sim.simulate(c).max_abs_diff(sim.simulate(f)), 1e-9)
      << tc.name << " k=" << tc.max_qubits;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, FusionEquivalence,
    ::testing::Values(FuseCase{"bv", 8, 2}, FuseCase{"bv", 8, 4},
                      FuseCase{"qft", 7, 3}, FuseCase{"ising", 8, 3},
                      FuseCase{"qaoa", 7, 4}, FuseCase{"cat_state", 8, 2},
                      FuseCase{"qnn", 7, 3}, FuseCase{"qpe", 7, 4},
                      FuseCase{"adder37", 8, 4}, FuseCase{"cc", 8, 3},
                      FuseCase{"grover", 7, 5}),
    [](const auto& ti) {
      return ti.param.name + "_k" + std::to_string(ti.param.max_qubits);
    });

TEST(Fusion, WideGatesPassThrough) {
  Circuit c(6);
  c.add(Gate::h(0));
  c.add(Gate::mcx({0, 1, 2, 3, 4}));
  c.add(Gate::h(0));
  const Circuit f = fuse(c, {.max_qubits = 2, .keep_wide_gates = true});
  bool has_mcx = false;
  for (const Gate& g : f.gates()) has_mcx |= g.kind == GateKind::MCX;
  EXPECT_TRUE(has_mcx);
  sv::FlatSimulator sim;
  EXPECT_LT(sim.simulate(c).max_abs_diff(sim.simulate(f)), 1e-9);
}

TEST(Fusion, ThrowsWhenWideGatesForbidden) {
  Circuit c(6);
  c.add(Gate::mcx({0, 1, 2, 3, 4}));
  EXPECT_THROW(fuse(c, {.max_qubits = 2, .keep_wide_gates = false}), Error);
}

TEST(Fusion, ComposesWithPartitioning) {
  // The paper's orthogonality claim: fusion before partitioning keeps
  // hierarchical simulation exact and typically shrinks the gate count.
  const Circuit c = circuits::ising(9, 3, 4);
  const Circuit f = fuse(c, {.max_qubits = 3, .keep_wide_gates = true});
  const dag::CircuitDag d(f);
  partition::PartitionOptions opt;
  opt.limit = 5;
  const auto parts = partition::make_partition(d, opt);
  partition::validate(d, parts);
  const auto ref = sv::FlatSimulator().simulate(c);
  sv::StateVector state(9);
  for (const partition::Part& p : parts.parts)
    sv::run_part(f, p.gates, p.qubits, state);
  EXPECT_LT(state.max_abs_diff(ref), 1e-9);
}

}  // namespace
}  // namespace hisim
