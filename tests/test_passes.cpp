// The optimization pass pipeline (src/opt/pass_manager.*): per-pass unit
// tests on hand-built circuits, negative pins for the rewrites that look
// safe but are not, barrier pins for noisy/parameterized structure, and
// the headline differential harness — hundreds of seeded random circuits
// compiled at opt_level 0 and 1 must produce the same state (up to global
// phase) on every target.

#include "opt/pass_manager.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "hisvsim/engine.hpp"
#include "noise/noise_model.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

using passes::cancel_inverses;
using passes::commute_diagonals;
using passes::drop_identities;
using passes::merge_rotations;

constexpr double kTwoPi = 6.283185307179586476925286766559;

const Target kAllTargets[] = {
    Target::Flat,
    Target::Hierarchical,
    Target::DistributedSerial,
    Target::DistributedThreaded,
    Target::IqsBaseline,
};

/// Flat-simulated state of `c` — the semantic yardstick for every pass.
sv::StateVector flat(const Circuit& c) {
  return sv::FlatSimulator().simulate(c);
}

// ---- cancel_inverses -------------------------------------------------

TEST(CancelInverses, AdjacentSelfInversePairsVanish) {
  Circuit c(3);
  c.add(Gate::h(0));
  c.add(Gate::h(0));
  c.add(Gate::x(1));
  c.add(Gate::x(1));
  c.add(Gate::cx(0, 1));
  c.add(Gate::cx(0, 1));
  c.add(Gate::s(2));
  c.add(Gate::sdg(2));
  c.add(Gate::tdg(2));
  c.add(Gate::t(2));
  c.add(Gate::ccx(0, 1, 2));
  c.add(Gate::ccx(1, 0, 2));  // controls are a set: still cancels
  EXPECT_EQ(cancel_inverses(c).num_gates(), 0u);
}

TEST(CancelInverses, CascadesThroughExposedPairs) {
  // h x x h: cancelling the inner x-x exposes the outer h-h pair to the
  // same sweep.
  Circuit c(1);
  c.add(Gate::h(0));
  c.add(Gate::x(0));
  c.add(Gate::x(0));
  c.add(Gate::h(0));
  EXPECT_EQ(cancel_inverses(c).num_gates(), 0u);
}

TEST(CancelInverses, DisjointGatesInBetweenDoNotBlock) {
  Circuit c(2);
  c.add(Gate::h(0));
  c.add(Gate::x(1));
  c.add(Gate::h(0));  // adjacent to the first h on qubit 0
  c.add(Gate::x(1));
  EXPECT_EQ(cancel_inverses(c).num_gates(), 0u);
}

TEST(CancelInverses, GateOnSharedQubitBlocks) {
  // cx·rz(target)·cx: the rz breaks adjacency on the target, and the cx
  // pair must NOT cancel (the classic unsound rewrite).
  Circuit c(2);
  c.add(Gate::cx(0, 1));
  c.add(Gate::rz(1, 0.4));
  c.add(Gate::cx(0, 1));
  EXPECT_TRUE(cancel_inverses(c) == c);
  EXPECT_TRUE(optimize(c, 1) == c);  // the full pipeline agrees
}

TEST(CancelInverses, ControlTargetRolesMustMatch) {
  Circuit c(2);
  c.add(Gate::cx(0, 1));
  c.add(Gate::cx(1, 0));  // roles swapped: not an inverse pair
  EXPECT_EQ(cancel_inverses(c).num_gates(), 2u);

  Circuit sym(2);
  sym.add(Gate::cz(0, 1));
  sym.add(Gate::cz(1, 0));  // cz is symmetric: cancels in either order
  sym.add(Gate::swap(0, 1));
  sym.add(Gate::swap(1, 0));
  EXPECT_EQ(cancel_inverses(sym).num_gates(), 0u);
}

// ---- merge_rotations -------------------------------------------------

TEST(MergeRotations, SameAxisAnglesSum) {
  Circuit c(2);
  c.add(Gate::rz(0, 0.3));
  c.add(Gate::rz(0, 0.5));
  c.add(Gate::cp(0, 1, 0.2));
  c.add(Gate::cp(1, 0, 0.4));  // cp is symmetric in its pair
  const Circuit m = merge_rotations(c);
  ASSERT_EQ(m.num_gates(), 2u);
  EXPECT_EQ(m.gate(0).kind, GateKind::RZ);
  EXPECT_NEAR(m.gate(0).params[0].value(), 0.8, 1e-15);
  EXPECT_EQ(m.gate(1).kind, GateKind::CP);
  EXPECT_NEAR(m.gate(1).params[0].value(), 0.6, 1e-15);
  EXPECT_LT(testutil::max_abs_diff_up_to_phase(flat(c), flat(m)), 1e-12);
}

TEST(MergeRotations, DifferentAxesDoNotMerge) {
  Circuit c(1);
  c.add(Gate::rx(0, 0.3));
  c.add(Gate::rz(0, 0.5));
  EXPECT_TRUE(merge_rotations(c) == c);
}

TEST(MergeRotations, ControlledRotationRolesMustMatch) {
  Circuit c(2);
  c.add(Gate::crz(0, 1, 0.3));
  c.add(Gate::crz(1, 0, 0.5));  // roles swapped: different operators
  EXPECT_TRUE(merge_rotations(c) == c);
}

TEST(MergeRotations, MergedPairThatSumsToZeroThenDrops) {
  Circuit c(2);
  c.add(Gate::rz(0, 1.1));
  c.add(Gate::x(1));  // disjoint: does not block the merge
  c.add(Gate::rz(0, -1.1));
  const Circuit o = optimize(c, 1);
  ASSERT_EQ(o.num_gates(), 1u);
  EXPECT_EQ(o.gate(0).kind, GateKind::X);
}

// ---- drop_identities -------------------------------------------------

TEST(DropIdentities, IdentityAngleRotationsDrop) {
  Circuit c(2);
  c.add(Gate::rz(0, 0.0));
  c.add(Gate::rx(0, kTwoPi));  // -I: identity up to global phase
  c.add(Gate::rzz(0, 1, -kTwoPi));
  c.add(Gate::p(1, 0.0));
  c.add(Gate::cp(0, 1, 2.0 * kTwoPi));
  EXPECT_EQ(drop_identities(c).num_gates(), 0u);
}

TEST(DropIdentities, NonTrivialAnglesAndPlainIdSurvive) {
  Circuit c(1);
  c.add(Gate::rz(0, 0.1));
  c.add(Gate::i(0));  // deliberate idle marker (noise attachment point)
  EXPECT_TRUE(drop_identities(c) == c);
}

TEST(DropIdentities, ControlledRotationAtTwoPiIsNotIdentity) {
  // CRZ(2pi) applies a phase flip controlled on the first qubit — it is
  // NOT the identity. Verify semantically, then pin that only 4pi drops.
  Circuit with(2), without(2);
  with.add(Gate::h(0));
  without.add(Gate::h(0));
  with.add(Gate::crz(0, 1, kTwoPi));
  EXPECT_GT(testutil::max_abs_diff_up_to_phase(flat(with), flat(without)),
            0.1);

  Circuit c(2);
  c.add(Gate::crz(0, 1, kTwoPi));
  EXPECT_TRUE(drop_identities(c) == c);
  EXPECT_TRUE(optimize(c, 1) == c);

  Circuit c4(2);
  c4.add(Gate::crz(0, 1, 2.0 * kTwoPi));
  EXPECT_EQ(drop_identities(c4).num_gates(), 0u);

  // And through the pipeline: two adjacent CRZ(2pi) merge to 4pi, then
  // drop — each alone must stay.
  Circuit pair(2);
  pair.add(Gate::crz(0, 1, kTwoPi));
  pair.add(Gate::crz(0, 1, kTwoPi));
  EXPECT_EQ(optimize(pair, 1).num_gates(), 0u);
}

// ---- commute_diagonals -----------------------------------------------

TEST(CommuteDiagonals, RzOnControlHopsToExposeCancellation) {
  Circuit c(2);
  c.add(Gate::cx(0, 1));
  c.add(Gate::rz(0, 0.7));  // on the control: commutes with the cx
  c.add(Gate::cx(0, 1));
  const Circuit o = optimize(c, 1);
  ASSERT_EQ(o.num_gates(), 1u);
  EXPECT_EQ(o.gate(0).kind, GateKind::RZ);
  EXPECT_LT(flat(o).max_abs_diff(flat(c)), 1e-12);
}

TEST(CommuteDiagonals, RzOnTargetStaysPut) {
  Circuit c(2);
  c.add(Gate::cx(0, 1));
  c.add(Gate::rz(1, 0.7));  // on the target: does NOT commute
  c.add(Gate::cx(0, 1));
  EXPECT_TRUE(commute_diagonals(c) == c);
  EXPECT_TRUE(optimize(c, 1) == c);
}

TEST(CommuteDiagonals, HopsPastDiagonalTwoQubitGates) {
  Circuit c(2);
  c.add(Gate::rz(0, 0.2));
  c.add(Gate::cp(0, 1, 0.3));  // diagonal: the later rz hops past it
  c.add(Gate::rz(0, 0.5));
  const Circuit moved = commute_diagonals(c);
  ASSERT_EQ(moved.num_gates(), 3u);
  EXPECT_EQ(moved.gate(0).kind, GateKind::RZ);
  EXPECT_EQ(moved.gate(1).kind, GateKind::RZ);
  EXPECT_EQ(moved.gate(2).kind, GateKind::CP);
  const Circuit o = optimize(c, 1);
  ASSERT_EQ(o.num_gates(), 2u);  // the two rz merged behind the cp
  EXPECT_NEAR(o.gate(0).params[0].value(), 0.7, 1e-15);
  EXPECT_LT(flat(o).max_abs_diff(flat(c)), 1e-12);
}

// ---- barriers: symbolic parameters and noise slots -------------------

TEST(Barriers, SymbolicGatesBlockEveryRewrite) {
  Circuit c(1);
  const Param th = c.param("theta");
  c.add(Gate::h(0));
  c.add(Gate::rz(0, th));  // unbound symbolic: a barrier on qubit 0
  c.add(Gate::h(0));
  EXPECT_TRUE(optimize(c, 1) == c);

  Circuit two(1);
  const Param phi = two.param("phi");
  two.add(Gate::rz(0, phi));
  two.add(Gate::rz(0, phi));  // symbolic rotations never merge
  EXPECT_TRUE(optimize(two, 1) == two);
}

TEST(Barriers, NoiseSlotsBlockAndSurvive) {
  Circuit c(1);
  c.add(Gate::x(0));
  c.add(Gate::noise_slot(0, 0));
  c.add(Gate::x(0));
  EXPECT_TRUE(optimize(c, 1) == c);
}

TEST(Barriers, NoisyPlanStructureUnchangedByOptLevel) {
  // An instrumented plan's structure — the gate list trajectories
  // substitute into — must be bit-identical at opt_level 0 and 1: every
  // slot is a barrier, so the pipeline must find nothing to rewrite.
  const Circuit c = circuits::noise_calibration(5);
  Options o1;
  o1.target = Target::Flat;
  o1.noise.after_all_gates(noise::Channel::depolarizing(0.05));
  Options o0 = o1;
  o0.opt_level = 0;
  const ExecutionPlan p1 = Engine::compile(c, o1);
  const ExecutionPlan p0 = Engine::compile(c, o0);
  EXPECT_EQ(p0.num_noise_slots(), p1.num_noise_slots());
  EXPECT_TRUE(p0.circuit() == p1.circuit());
  // Same seed, same structure: trajectories replay bit-identically.
  const Result r0 = p0.execute_trajectory(123);
  const Result r1 = p1.execute_trajectory(123);
  ASSERT_EQ(r0.state.size(), r1.state.size());
  for (Index i = 0; i < r0.state.size(); ++i)
    ASSERT_EQ(r0.state[i], r1.state[i]) << "amp " << i;
}

TEST(Barriers, ParameterizedPlanStructureUnchangedByOptLevel) {
  const auto inst = circuits::qaoa_instance(6, 2);
  Options o1;
  o1.target = Target::Hierarchical;
  o1.limit = 4;
  Options o0 = o1;
  o0.opt_level = 0;
  const ExecutionPlan p1 = Engine::compile(inst.circuit, o1);
  const ExecutionPlan p0 = Engine::compile(inst.circuit, o0);
  EXPECT_EQ(p0.param_names(), p1.param_names());
  EXPECT_TRUE(p0.circuit() == p1.circuit());
  ExecOptions x;
  for (const std::string& name : p0.param_names()) x.bindings[name] = 0.37;
  const Result r0 = p0.execute(x);
  const Result r1 = p1.execute(x);
  ASSERT_EQ(r0.state.size(), r1.state.size());
  for (Index i = 0; i < r0.state.size(); ++i)
    ASSERT_EQ(r0.state[i], r1.state[i]) << "amp " << i;
}

// ---- pipeline plumbing: levels, report, json -------------------------

TEST(PassManager, ReportAccountsPerPassRemovals) {
  const Circuit bv = circuits::bv(10);
  const ExecutionPlan plan = Engine::compile(bv, Options{});
  const OptReport& rep = plan.opt_report();
  EXPECT_EQ(rep.opt_level, 1u);
  EXPECT_EQ(rep.gates_before, bv.num_gates());
  EXPECT_EQ(rep.gates_after, plan.circuit().num_gates());
  EXPECT_GT(rep.removed(), 0u);  // bv has h·h pairs on unset secret bits
  ASSERT_EQ(rep.deltas.size(), 4u);
  EXPECT_EQ(rep.deltas[0].pass, "commute-diagonals");
  EXPECT_EQ(rep.deltas[1].pass, "cancel-inverses");
  EXPECT_EQ(rep.deltas[2].pass, "merge-rotations");
  EXPECT_EQ(rep.deltas[3].pass, "drop-identities");
  std::size_t sum = 0;
  for (const PassDelta& d : rep.deltas) sum += d.removed;
  EXPECT_EQ(sum, rep.removed());
}

TEST(PassManager, OptLevelZeroCompilesTheCircuitAsGiven) {
  const Circuit bv = circuits::bv(10);
  Options o;
  o.opt_level = 0;
  const ExecutionPlan plan = Engine::compile(bv, o);
  EXPECT_TRUE(plan.circuit() == bv);
  EXPECT_EQ(plan.opt_report().removed(), 0u);
  EXPECT_EQ(plan.opt_report().gates_before, bv.num_gates());
}

TEST(PassManager, RejectsUnknownLevels) {
  Options o;
  o.opt_level = 2;
  EXPECT_THROW(Engine::compile(circuits::bv(6), o), Error);
  EXPECT_THROW(optimize(circuits::bv(6), 7), Error);
}

TEST(PassManager, UntouchedCircuitsAreFixpoints) {
  // qft offers the pipeline nothing: no adjacent inverse pairs, every cp
  // angle pi/2^k, every diagonal gate multi-qubit. The compiled plan must
  // be bit-for-bit the input circuit (the guarantee the bit-identical
  // engine tests lean on).
  const Circuit q = circuits::qft(8);
  EXPECT_TRUE(optimize(q, 1) == q);
  const Circuit is = circuits::ising(8, 2, 3);
  EXPECT_TRUE(optimize(is, 1) == is);
}

TEST(ResultJson, CarriesOptReportFields) {
  const Result r = Engine::compile(circuits::bv(8), Options{}).execute();
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"opt_level\": 1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"gates_pre_opt\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"opt_passes\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"cancel-inverses\""), std::string::npos) << j;
  EXPECT_GT(r.gates_pre_opt, r.gates);
}

// ---- table1 suite reduction (the bench_passes acceptance bar) --------

TEST(SuiteReduction, MeanGateReductionAtLeastTenPercent) {
  double sum = 0.0;
  int count = 0;
  for (const auto& b : circuits::qasmbench_suite()) {
    const Circuit c = b.make(b.default_qubits);
    const Circuit o = optimize(c, 1);
    const double reduction =
        1.0 - static_cast<double>(o.num_gates()) /
                  static_cast<double>(c.num_gates());
    EXPECT_GE(reduction, 0.0) << b.name;
    sum += reduction;
    ++count;
  }
  ASSERT_GT(count, 0);
  EXPECT_GE(sum / count, 0.10);
}

// ---- the differential-equivalence harness ----------------------------

/// 200 seeded random circuits (knobs planting cancellations, merges, and
/// identity angles), each compiled at opt_level 0 and 1 and executed on
/// every target: the states must agree up to a global phase within 1e-10.
class DifferentialEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialEquivalence, OptimizedPlansMatchUnoptimizedEverywhere) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 101 + 3);
  const unsigned n = 4 + static_cast<unsigned>(rng.below(3));  // 4..6
  testutil::CircuitKnobs knobs;
  knobs.duplicate_prob = 0.25;
  knobs.trivial_angle_prob = 0.10;
  const Circuit c =
      testutil::random_circuit(n, 24 + rng.below(25), seed, knobs);
  const unsigned p = 1 + static_cast<unsigned>(rng.below(2));  // 1..2

  for (Target t : kAllTargets) {
    Options o1;
    o1.target = t;
    o1.limit = 4;
    if (t == Target::DistributedThreaded) o1.level2_limit = 3;
    if (target_is_distributed(t)) o1.process_qubits = p;
    Options o0 = o1;
    o0.opt_level = 0;
    const Result r0 = Engine::compile(c, o0).execute();
    const Result r1 = Engine::compile(c, o1).execute();
    ASSERT_EQ(r0.state.size(), r1.state.size()) << target_name(t);
    EXPECT_LT(testutil::max_abs_diff_up_to_phase(r0.state, r1.state),
              1e-10)
        << target_name(t) << " seed " << seed;
    EXPECT_LE(r1.gates, r0.gates) << target_name(t) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialEquivalence,
                         ::testing::Range<std::uint64_t>(1, 201));

}  // namespace
}  // namespace hisim
