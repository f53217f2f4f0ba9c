// The checked-build layer (common/check.hpp): death tests prove each deep
// validator actually fires on a corrupted artifact, and the pass-through
// suite proves every legitimately compiled plan validates cleanly. The
// validators assert via HISIM_INVARIANT (always armed), so this file runs
// identically with and without -DHISIM_CHECKED=ON — the CMake option only
// decides whether compile()/execute() call them automatically.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "circuits/generators.hpp"
#include "common/check.hpp"
#include "dist/hisvsim_dist.hpp"
#include "hisvsim/engine.hpp"
#include "noise/trajectory.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

constexpr const char* kAbortPrefix = "HISIM invariant violated";

// ---- state-vector norm preservation ---------------------------------------

TEST(CheckedDeath, NormNotPreservedAborts) {
  EXPECT_DEATH(sv::validate_norm_preserved(1.0, 0.5, "test"),
               "norm not preserved");
}

TEST(Checked, NormWithinToleranceAccepted) {
  sv::validate_norm_preserved(1.0, 1.0 + 1e-12, "test");
  sv::validate_norm_preserved(4.0, 4.0 - 1e-10, "scaled");
}

// ---- noise-slot table ------------------------------------------------------

noise::CompiledNoise one_slot_noise() {
  noise::CompiledNoise cn;
  cn.channels.push_back(noise::Channel::bit_flip(0.05));
  cn.slots.push_back(noise::Slot{0, 0});
  return cn;
}

TEST(CheckedDeath, DuplicateNoiseSlotIdAborts) {
  Circuit c(1);
  c.add(Gate::noise_slot(0, 0));
  c.add(Gate::noise_slot(0, 0));
  noise::CompiledNoise cn = one_slot_noise();
  cn.slots.push_back(noise::Slot{0, 0});  // two reserved slots, one id used
  EXPECT_DEATH(noise::validate_slots(c, cn), "appears more than once");
}

TEST(CheckedDeath, MissingNoiseSlotAborts) {
  Circuit c(1);
  c.add(Gate::x(0));  // plan reserved a slot the circuit does not carry
  EXPECT_DEATH(noise::validate_slots(c, one_slot_noise()), kAbortPrefix);
}

TEST(CheckedDeath, NoiseSlotOnWrongQubitAborts) {
  Circuit c(2);
  c.add(Gate::noise_slot(1, 0));  // reserved for qubit 0
  EXPECT_DEATH(noise::validate_slots(c, one_slot_noise()),
               "reserved for qubit");
}

TEST(Checked, ConsistentNoiseSlotsAccepted) {
  Circuit c(1);
  c.add(Gate::x(0));
  c.add(Gate::noise_slot(0, 0));
  noise::validate_slots(c, one_slot_noise());
}

// ---- distributed exchange schedule ----------------------------------------

dist::DistPlan small_plan() {
  dist::DistOptions opt;
  opt.process_qubits = 2;
  opt.part.limit = 4;
  return dist::compile_plan(circuits::qft(6), opt);
}

TEST(Checked, CompiledDistPlanValidates) {
  const dist::DistPlan plan = small_plan();
  ASSERT_GT(plan.steps.size(), 0u);
  dist::validate_plan(plan);
}

TEST(CheckedDeath, ExtraCircuitGateAborts) {
  dist::DistPlan plan = small_plan();
  plan.circuit.add(Gate::x(0));  // steps no longer cover the circuit
  EXPECT_DEATH(dist::validate_plan(plan), "steps carry");
}

TEST(CheckedDeath, DroppedStepAborts) {
  dist::DistPlan plan = small_plan();
  ASSERT_GT(plan.steps.size(), 1u);
  plan.steps.pop_back();  // the dropped step's gates are now lost
  EXPECT_DEATH(dist::validate_plan(plan), "steps carry");
}

TEST(CheckedDeath, CorruptedStepLayoutAborts) {
  dist::DistPlan plan = small_plan();
  ASSERT_GT(plan.steps.size(), 1u);
  // Replace a step's layout with another step's (both are valid
  // permutations, so shape and conservation still hold) — unmapping the
  // step's slot-local gates through the wrong permutation must break the
  // gate-multiset cover.
  const std::size_t a = 0, b = plan.steps.size() - 1;
  ASSERT_NE(plan.steps[a].layout.slot_of(0), plan.steps[b].layout.slot_of(0));
  plan.steps[a].layout = plan.steps[b].layout;
  EXPECT_DEATH(dist::validate_plan(plan), kAbortPrefix);
}

TEST(CheckedDeath, CorruptNoiseSlotTableAborts) {
  dist::DistPlan plan = small_plan();
  ASSERT_GT(plan.steps[0].local.num_gates(), 0u);
  // Point the table at gate 0, which is a real gate, not a NoiseSlot.
  plan.steps[0].noise_slots.emplace_back(0, 0);
  EXPECT_DEATH(dist::validate_plan(plan), "does not match the gate");
}

// ---- per-qubit gate order ---------------------------------------------------

/// qft(19) on 4 ranks with level 2 at 4: 17 local slots, so the steps
/// relayout their moved qubits onto the 16 block slots.
dist::DistPlan level2_plan() {
  dist::DistOptions opt;
  opt.process_qubits = 2;
  opt.level2_limit = 4;
  return dist::compile_plan(circuits::qft(19), opt);
}

bool share_a_qubit(const Gate& a, const Gate& b) {
  return std::ranges::find_first_of(a.qubits, b.qubits) != a.qubits.end();
}

/// Swaps the first two adjacent gates of a step that share a slot.
void swap_dependent_gates(dist::DistPlan& plan) {
  for (dist::DistPlan::Step& s : plan.steps)
    for (std::size_t i = 0; i + 1 < s.local.num_gates(); ++i) {
      const Gate a = s.local.gate(i), b = s.local.gate(i + 1);
      if (share_a_qubit(a, b) && !(a == b)) {
        s.local.set_gate(i, b);
        s.local.set_gate(i + 1, a);
        return;
      }
    }
  ADD_FAILURE() << "no step holds two adjacent dependent gates";
}

/// Swaps the first two adjacent steps whose gates share a qubit.
void swap_dependent_steps(dist::DistPlan& plan) {
  const auto unmapped = [](const dist::DistPlan::Step& s, const Gate& lg) {
    Gate g = lg;
    for (Qubit& q : g.qubits) q = s.layout.qubit_at(q);
    return g;
  };
  for (std::size_t i = 0; i + 1 < plan.steps.size(); ++i)
    for (const Gate& a : plan.steps[i].local.gates())
      for (const Gate& b : plan.steps[i + 1].local.gates())
        if (share_a_qubit(unmapped(plan.steps[i], a),
                          unmapped(plan.steps[i + 1], b))) {
          std::swap(plan.steps[i], plan.steps[i + 1]);
          return;
        }
  ADD_FAILURE() << "no two adjacent steps share a qubit";
}

TEST(Checked, Level2PlanValidates) {
  const dist::DistPlan plan = level2_plan();
  ASSERT_GT(plan.inner_parts, plan.parts);
  std::size_t relayouts = 0;
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const dist::DistPlan::Step& s = plan.steps[si];
    // Every gate's moved qubits sit in the 16-slot block.
    for (const Gate& g : s.local.gates())
      for (Qubit q : g.moved_qubits()) EXPECT_LT(q, 16u) << g.to_string();
    if (si > 0 && !(s.layout == plan.steps[si - 1].layout) &&
        s.layout.shares_process_slots(plan.steps[si - 1].layout))
      ++relayouts;
  }
  EXPECT_GT(relayouts, 0u);
  dist::validate_plan(plan);
}

TEST(CheckedDeath, DependentGatesSwappedInStepAbort) {
  dist::DistPlan plan = small_plan();
  swap_dependent_gates(plan);
  EXPECT_DEATH(dist::validate_plan(plan), "out of circuit order");
}

TEST(CheckedDeath, DependentStepsSwappedAbort) {
  dist::DistPlan plan = small_plan();
  swap_dependent_steps(plan);
  EXPECT_DEATH(dist::validate_plan(plan), "out of circuit order");
}

TEST(CheckedDeath, DependentGatesSwappedInLevel2StepAbort) {
  dist::DistPlan plan = level2_plan();
  swap_dependent_gates(plan);
  EXPECT_DEATH(dist::validate_plan(plan), "out of circuit order");
}

TEST(CheckedDeath, DependentLevel2StepsSwappedAbort) {
  dist::DistPlan plan = level2_plan();
  swap_dependent_steps(plan);
  EXPECT_DEATH(dist::validate_plan(plan), "out of circuit order");
}

// ---- ExecutionPlan::validate ----------------------------------------------

TEST(Checked, EmptyPlanThrowsInsteadOfAborting) {
  // Calling validate() on a default-constructed plan is a caller
  // precondition bug, not a corrupted artifact: it throws hisim::Error.
  EXPECT_THROW(ExecutionPlan().validate(), Error);
}

class CheckedPlans : public ::testing::TestWithParam<Target> {};

TEST_P(CheckedPlans, CompiledPlansValidateAndExecute) {
  const Circuit c = circuits::qft(8);
  const sv::StateVector ref = sv::FlatSimulator().simulate(c);

  Options opt;
  opt.target = GetParam();
  opt.limit = 5;
  if (target_is_distributed(opt.target)) opt.process_qubits = 2;
  // The threaded target also carries second-level partitions to validate.
  if (opt.target == Target::DistributedThreaded) opt.level2_limit = 3;
  const ExecutionPlan plan = Engine::compile(c, opt);
  plan.validate();  // explicit: exercised in every build, not only CHECKED

  const Result r = plan.execute();
  EXPECT_NEAR(r.norm, 1.0, 1e-9);
  EXPECT_LT(r.state.max_abs_diff(ref), 1e-9) << target_name(opt.target);
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, CheckedPlans,
    ::testing::Values(Target::Flat, Target::Hierarchical,
                      Target::DistributedSerial, Target::DistributedThreaded,
                      Target::IqsBaseline),
    [](const auto& ti) {
      std::string name = target_name(ti.param);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Checked, SuiteCircuitsValidateUnderHierarchical) {
  // The Table-I generators at reduced scale, straight through
  // compile + validate + execute. Under -DHISIM_CHECKED=ON compile() also
  // auto-validates and execute() enforces norm preservation.
  for (const char* name : {"cat_state", "bv", "qaoa", "ising", "qnn"}) {
    const Circuit c = circuits::make_by_name(name, 7);
    Options opt;
    opt.limit = 5;
    const ExecutionPlan plan = Engine::compile(c, opt);
    plan.validate();
    const Result r = plan.execute();
    EXPECT_LT(r.state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-9)
        << name;
  }
}

/// The default (hierarchical) target and the IQS baseline: both compile
/// through dist::compile_plan, so both plans go through the validators.
std::vector<Options> hierarchical_and_iqs(unsigned limit) {
  Options hier;
  hier.limit = limit;
  Options iqs;
  iqs.target = Target::IqsBaseline;
  iqs.process_qubits = 2;
  return {hier, iqs};
}

TEST(Checked, DenseBlockAndNoisyPlansValidate) {
  Circuit c = circuits::qft(7);
  Rng rng(7);
  for (const std::vector<Qubit>& q :
       std::vector<std::vector<Qubit>>{{0, 4}, {6, 1, 3}, {2, 5}, {3, 0, 6}})
    c.add(Gate::unitary(
        q, testutil::random_unitary(static_cast<unsigned>(q.size()), rng)));
  for (Options opt : hierarchical_and_iqs(5)) {
    SCOPED_TRACE(target_name(opt.target));
    opt.noise.after_all_gates(noise::Channel::depolarizing(0.01));
    const ExecutionPlan plan = Engine::compile(c, opt);
    EXPECT_GT(plan.num_noise_slots(), 0u);
    plan.validate();
    const NoisyResult nr = plan.execute_trajectories(4);
    EXPECT_EQ(nr.trajectories, 4u);
  }
}

TEST(Checked, ParameterizedPlanValidates) {
  const circuits::QaoaInstance inst = circuits::qaoa_instance(6, 2);
  for (const Options& opt : hierarchical_and_iqs(4)) {
    SCOPED_TRACE(target_name(opt.target));
    const ExecutionPlan plan = Engine::compile(inst.circuit, opt);
    plan.validate();
    ExecOptions eo;
    eo.bindings = inst.uniform_binding(0.4, 0.7);
    const Result r = plan.execute(eo);
    EXPECT_NEAR(r.norm, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace hisim
