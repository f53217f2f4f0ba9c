#include <cstddef>

#include "common/check.hpp"
#include "hisvsim/plan_impl.hpp"

/// ExecutionPlan::validate() — the engine half of the checked-build layer
/// (common/check.hpp; the plan half lives in dist/validate.cpp and checks
/// every target's DistPlan). Like dist::validate_plan,
/// everything here re-derives the plan's contract from first principles:
/// noise slots are re-counted from the gates, and the kernel table is
/// re-tested against the CPU — the validator never trusts the code paths
/// that produced the plan.
namespace hisim {

namespace {

using detail::PlanImpl;

void check_kernels(const PlanImpl& p) {
  HISIM_INVARIANT(p.kernels != nullptr, "plan carries no kernel ops table");
  const sv::KernelTier tier = p.kernels->tier;
  HISIM_INVARIANT(tier != sv::KernelTier::Auto,
                  "plan kernel tier left unresolved (Auto) — compile must "
                  "pin Scalar or Simd");
  HISIM_INVARIANT(tier != sv::KernelTier::Simd || sv::simd_kernels_available(),
                  "plan resolved the Simd kernel tier but this binary/CPU "
                  "does not offer it");
  // The resolved table must be the canonical one for its tier: plans share
  // immutable static tables, never own copies.
  HISIM_INVARIANT(p.kernels == &sv::kernel_ops(tier),
                  "plan kernel table is not the canonical "
                      << sv::kernel_tier_name(tier) << " table");
}

void check_params(const PlanImpl& p) {
  // The plan circuit is the one whose parameters execute() resolves
  // bindings against.
  const std::vector<std::string>& names = p.dplan.circuit.param_names();
  HISIM_INVARIANT(names == p.param_names,
                  "executed circuit declares "
                      << names.size() << " symbolic parameters, plan registry "
                      << "has " << p.param_names.size()
                      << " (or the names/order differ)");
}

}  // namespace

void ExecutionPlan::validate() const {
  HISIM_CHECK_MSG(valid(), "validate() called on an empty ExecutionPlan");
  const PlanImpl& p = *impl_;

  check_kernels(p);
  check_params(p);

  // Reserved noise slots must be dense, unique, and on their reserved
  // qubits in the circuit every execute() walks. Run unconditionally: for
  // a noiseless plan this doubles as "no stray NoiseSlot gates".
  noise::validate_slots(p.dplan.circuit, p.noise);
  dist::validate_plan(p.dplan);
}

}  // namespace hisim
