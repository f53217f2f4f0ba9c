#include "sv/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/bits.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim::sv {
namespace {

using testutil::random_state;

/// Reference implementation: expand the gate to a full 2^n matrix via its
/// local matrix and apply by dense mat-vec. O(4^n) — tiny n only.
StateVector apply_reference(const StateVector& in, const Gate& g) {
  const unsigned n = in.num_qubits();
  const Matrix u = g.matrix();
  const unsigned k = g.arity();
  StateVector out(n);
  out[0] = 0.0;
  for (Index row = 0; row < in.size(); ++row) {
    cplx acc = 0.0;
    // local code of `row` w.r.t. gate qubits
    Index rc = 0;
    for (unsigned j = 0; j < k; ++j)
      rc |= static_cast<Index>(bits::test(row, g.qubits[j])) << j;
    for (Index cc = 0; cc < (Index{1} << k); ++cc) {
      // column index: row with gate-qubit bits replaced by cc
      Index col = row;
      for (unsigned j = 0; j < k; ++j)
        col = bits::with_bit(col, g.qubits[j], bits::test(cc, j));
      acc += u(rc, cc) * in[col];
    }
    out[row] = acc;
  }
  return out;
}

std::vector<Gate> gates_under_test() {
  Rng rng(17);
  const Matrix u4 = testutil::random_unitary(2, rng);
  const Matrix u8 = testutil::random_unitary(3, rng);  // apply_generic
  return {
      Gate::x(2),          Gate::h(0),           Gate::y(3),
      Gate::z(1),          Gate::s(2),           Gate::tdg(0),
      Gate::sx(1),         Gate::rx(3, 0.7),     Gate::ry(0, -1.3),
      Gate::rz(2, 2.1),    Gate::p(1, 0.5),      Gate::u2(0, 0.1, 0.2),
      Gate::u3(3, 1.1, -0.4, 0.9),
      Gate::cx(0, 3),      Gate::cx(3, 0),       Gate::cy(1, 2),
      Gate::cz(2, 0),      Gate::ch(3, 1),       Gate::crx(0, 2, 0.8),
      Gate::cry(2, 3, -0.6), Gate::crz(1, 0, 1.4), Gate::cp(3, 2, 0.3),
      Gate::cu3(1, 3, 0.2, 0.4, -0.9),
      Gate::swap(0, 2),    Gate::swap(3, 1),     Gate::rzz(1, 3, 0.7),
      Gate::rxx(0, 2, -0.4),
      Gate::ccx(0, 1, 3),  Gate::ccx(3, 2, 0),   Gate::cswap(2, 0, 3),
      Gate::mcx({1, 2, 3, 0}),
      Gate::unitary({2, 0}, u4), Gate::unitary({1, 3, 0}, u8),
  };
}

class KernelVsReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelVsReference, MatchesDenseApplication) {
  const Gate g = gates_under_test()[GetParam()];
  StateVector s = random_state(4, 1000 + GetParam());
  const StateVector ref = apply_reference(s, g);
  apply_gate(s, g);
  EXPECT_LT(s.max_abs_diff(ref), 1e-12) << g.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllGates, KernelVsReference,
                         ::testing::Range<std::size_t>(
                             0, gates_under_test().size()));

TEST(Kernels, PreservesNorm) {
  StateVector s = random_state(6, 7);
  for (const Gate& g : gates_under_test()) {
    // remap qubits into 6-qubit range deterministically
    apply_gate(s, g);
    EXPECT_NEAR(s.norm(), 1.0, 1e-10) << g.to_string();
  }
}

TEST(Kernels, HadamardTwiceIsIdentity) {
  StateVector s = random_state(5, 3);
  StateVector orig = s;
  apply_gate(s, Gate::h(2));
  apply_gate(s, Gate::h(2));
  EXPECT_LT(s.max_abs_diff(orig), 1e-12);
}

TEST(Kernels, BellState) {
  StateVector s(2);
  apply_gate(s, Gate::h(0));
  apply_gate(s, Gate::cx(0, 1));
  const double r = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(s[0] - r), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(s[3] - r), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(s[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(s[2]), 0.0, 1e-12);
}

TEST(Kernels, XFlipsBasisState) {
  StateVector s(3);
  apply_gate(s, Gate::x(1));
  EXPECT_NEAR(std::abs(s[0b010] - 1.0), 0.0, 1e-15);
}

TEST(Kernels, GhzProbabilities) {
  StateVector s(3);
  apply_gate(s, Gate::h(0));
  apply_gate(s, Gate::cx(0, 1));
  apply_gate(s, Gate::cx(1, 2));
  for (Qubit q = 0; q < 3; ++q) EXPECT_NEAR(s.prob_one(q), 0.5, 1e-12);
}

TEST(Kernels, FlopsModel) {
  EXPECT_GT(gate_flops(Gate::h(0), 10), 0.0);
  EXPECT_GT(gate_flops(Gate::rz(0, 1.0), 10), 0.0);
  // Pure index permutations compute nothing.
  EXPECT_EQ(gate_flops(Gate::x(0), 10), 0.0);
  EXPECT_EQ(gate_flops(Gate::cx(0, 1), 10), 0.0);
  EXPECT_EQ(gate_flops(Gate::ccx(0, 1, 2), 10), 0.0);
  EXPECT_EQ(gate_flops(Gate::swap(0, 1), 10), 0.0);
  EXPECT_EQ(gate_flops(Gate::cswap(0, 1, 2), 10), 0.0);
  // Controls reduce work by 2^nc (compact enumeration).
  EXPECT_EQ(gate_flops(Gate::crx(0, 1, 0.5), 10),
            gate_flops(Gate::rx(1, 0.5), 10) / 2.0);
  EXPECT_EQ(gate_flops(Gate::cp(0, 1, 0.5), 10),
            gate_flops(Gate::p(1, 0.5), 10) / 2.0);
  // Dense 4x4 blocks: 120 FLOPs per 4 amplitudes = 30 per amplitude.
  EXPECT_EQ(gate_flops(Gate::rxx(0, 1, 0.5), 10), 30.0 * 1024.0);
}

TEST(StateVectorTest, FidelitySelf) {
  const StateVector s = random_state(5, 11);
  EXPECT_NEAR(s.fidelity(s), 1.0, 1e-10);
}

TEST(StateVectorTest, ResetRestoresGround) {
  StateVector s = random_state(4, 13);
  s.reset();
  EXPECT_NEAR(std::abs(s[0] - 1.0), 0.0, 1e-15);
  EXPECT_NEAR(s.norm(), 1.0, 1e-15);
}

}  // namespace
}  // namespace hisim::sv
