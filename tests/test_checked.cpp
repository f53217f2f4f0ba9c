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

// ---- padded level-2 slot lists --------------------------------------------

/// A plan whose steps carry level-2 parts padded to 3 of 4 local slots,
/// and the first (step, inner part) whose padded list leaves a local slot
/// free.
struct PaddedPlan {
  dist::DistPlan plan;
  std::size_t step = 0, part = 0;
  Qubit free_slot = 0;

  std::vector<Qubit>& slots() { return plan.steps[step].padded[part]; }
};

PaddedPlan padded_plan() {
  dist::DistOptions opt;
  opt.process_qubits = 2;
  opt.level2_limit = 3;
  PaddedPlan out{dist::compile_plan(circuits::qft(6), opt)};
  const dist::DistPlan& plan = out.plan;
  EXPECT_EQ(dist::pad_width(plan), 3u);
  for (std::size_t si = 0; si < plan.steps.size(); ++si)
    for (std::size_t i = 0; i < plan.steps[si].padded.size(); ++i) {
      const std::vector<Qubit>& slots = plan.steps[si].padded[i];
      for (Qubit q = 0; q < 4; ++q)
        if (!std::binary_search(slots.begin(), slots.end(), q)) {
          out.step = si;
          out.part = i;
          out.free_slot = q;
          return out;
        }
    }
  ADD_FAILURE() << "no padded list leaves a slot free";
  return out;
}

TEST(Checked, PaddedPlanValidates) {
  PaddedPlan pp = padded_plan();
  EXPECT_EQ(pp.slots().size(), 3u);
  dist::validate_plan(pp.plan);
}

TEST(CheckedDeath, PaddedSlotsMissingWorkingSetAbort) {
  PaddedPlan pp = padded_plan();
  std::vector<Qubit>& slots = pp.slots();
  // Trade a working-set slot for the free one: still sorted, local and
  // three wide, but the part's gates now touch a slot run_part never
  // gathers.
  const Qubit used = pp.plan.steps[pp.step].inner.parts[pp.part].qubits[0];
  std::erase(slots, used);
  slots.insert(std::upper_bound(slots.begin(), slots.end(), pp.free_slot),
               pp.free_slot);
  EXPECT_DEATH(dist::validate_plan(pp.plan), "miss part of its working set");
}

TEST(CheckedDeath, UnsortedPaddedSlotsAbort) {
  PaddedPlan pp = padded_plan();
  std::reverse(pp.slots().begin(), pp.slots().end());
  EXPECT_DEATH(dist::validate_plan(pp.plan), "not strictly ascending");
}

TEST(CheckedDeath, PaddedSlotsWiderThanPadWidthAbort) {
  PaddedPlan pp = padded_plan();
  std::vector<Qubit>& slots = pp.slots();
  slots.insert(std::upper_bound(slots.begin(), slots.end(), pp.free_slot),
               pp.free_slot);
  EXPECT_DEATH(dist::validate_plan(pp.plan), "is padded to 4 slots");
}

TEST(CheckedDeath, PaddedListCountMismatchAborts) {
  PaddedPlan pp = padded_plan();
  pp.plan.steps[pp.step].padded.pop_back();
  EXPECT_DEATH(dist::validate_plan(pp.plan), "padded slot lists for");
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
