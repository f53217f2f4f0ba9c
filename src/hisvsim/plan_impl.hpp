#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "dist/hisvsim_dist.hpp"
#include "hisvsim/engine.hpp"
#include "noise/trajectory.hpp"
#include "sv/kernel_dispatch.hpp"

/// Internal: the compiled-plan representation shared by engine.cpp (which
/// builds and executes it) and plan_validate.cpp (which deep-checks it).
/// Not part of the public API — include hisvsim/engine.hpp instead.
namespace hisim::detail {

/// The immutable compiled state an ExecutionPlan shares. Everything here
/// is written once by Engine::compile and only read afterwards — that
/// write-once/read-many lifecycle (not a lock) is the thread-safety
/// argument for concurrent execute()/execute_sweep()/
/// execute_trajectories() on one plan, so no field carries a
/// HISIM_GUARDED_BY capability: there is no mutable shared state to
/// guard. Anything mutable an execute needs (bound circuits, sampled
/// noise ops, per-point Results) lives on that execute's stack; the only
/// locks on the execute path are the worker pool's own (common/
/// parallel.cpp) and the error-capture Mutex in run_indexed_on_pool.
/// Keep it that way: a mutable member added here would need a capability
/// and would serialize every concurrent execute.
struct PlanImpl {
  Options opt;
  /// Symbolic parameter registry of the compiled circuit (id order).
  /// Non-empty iff the plan is parameterized, in which case every execute
  /// resolves ExecOptions::bindings against it and materializes gate
  /// matrices per binding — the plan structure never changes.
  std::vector<std::string> param_names;
  /// Compile-side noise artifact (channel table, reserved slots, readout
  /// confusion). Empty unless the plan was compiled with Options::noise;
  /// the instrumented circuit's NoiseSlot gates reference these slots.
  noise::CompiledNoise noise;
  /// Gate-count accounting of the compile-time optimization pipeline
  /// (all-zero removals when compiled at opt_level 0).
  OptReport opt_report;
  /// Kernel tier resolved once at compile from Options::kernel_tier —
  /// points at an immutable static table, so shared plans stay
  /// thread-safe and a forced-but-unavailable tier fails at compile
  /// instead of mid-execution.
  const sv::KernelOps* kernels = nullptr;
  /// True when every compiled gate is norm-preserving (all kinds are
  /// unitary by construction; Unitary-kind matrices are checked), so an
  /// ideal execution must preserve the initial state's norm. Computed —
  /// and the resulting invariant enforced — only in checked builds.
  bool norm_preserving = false;
  double compile_seconds = 0.0;
  /// Compile-phase breakdown ("compile.*" keys, trace::MetricsRegistry
  /// flat() naming) — written once by compile like every other field, and
  /// merged into each execution's Result::metrics.
  std::map<std::string, double> compile_metrics;

  /// Every target's compiled form. dist::execute_plan runs it for all but
  /// iqs-baseline, whose one-part p = 0 plan feeds the per-gate baseline.
  dist::DistPlan dplan;
};

}  // namespace hisim::detail
