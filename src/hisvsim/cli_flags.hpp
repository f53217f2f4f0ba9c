#pragma once

#include <string>
#include <vector>

#include "dist/backend.hpp"
#include "hisvsim/engine.hpp"
#include "noise/noise_model.hpp"
#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"

/// Flag parsing for the `hisim` CLI, factored into the library so it is
/// unit-testable (tests/test_cli_flags.cpp) and throws hisim::Error with
/// actionable messages instead of silently "fixing" bad input.
namespace hisim::cli {

/// One `--sweep name=start:stop:steps` axis: `steps` evenly spaced values
/// from start to stop inclusive (steps == 1 pins the single value start).
struct SweepSpec {
  std::string name;
  double start = 0.0;
  double stop = 0.0;
  unsigned steps = 0;
};

struct Flags {
  unsigned qubits = 14;
  unsigned limit = 0;
  /// Circuit optimization level (--opt-level=0|1); matches
  /// Options::opt_level, default on. Values > 1 are rejected.
  unsigned opt_level = 1;
  /// Process qubits p: --ranks=R requires R = 2^p. R = 1 gives p = 0,
  /// which (matching the old CLI) means single-node execution.
  unsigned ranks_p = 0;
  unsigned level2 = 0;
  /// Apply-kernel tier (--kernel=auto|scalar|simd); matches
  /// Options::kernel_tier. Unknown names are rejected at parse time,
  /// simd on a host without the SIMD build/CPU support fails at compile.
  sv::KernelTier kernel = sv::KernelTier::Auto;
  std::size_t shots = 0;
  bool json = false;
  bool exact = false;
  std::string dot;
  /// Chrome-trace output path (--trace=out.json): enables the trace
  /// session for the run and writes the collected spans + metrics there
  /// (loadable in Perfetto / chrome://tracing; see common/trace.hpp).
  /// Empty = tracing off. The CLI validates writability before running.
  std::string trace;
  partition::Strategy strategy = partition::Strategy::DagP;
  dist::BackendKind backend = dist::BackendKind::Serial;
  bool has_backend = false;  // --backend= given explicitly
  /// Explicit --target= wins; otherwise derived (see effective_target).
  /// A target that contradicts --ranks/--backend/--level2 is rejected.
  bool has_target = false;
  Target target = Target::Hierarchical;
  /// Fixed parameter values from repeated --bind name=value flags.
  ParamBinding bindings;
  /// Sweep axes from repeated --sweep name=start:stop:steps flags; the run
  /// executes their cartesian product (see sweep_points). A name may not
  /// be both bound and swept, nor repeated.
  std::vector<SweepSpec> sweeps;
  /// Noise channels from repeated --noise kind=value flags, in flag
  /// order. Kinds: depolarizing | bitflip | phaseflip | damping (channel
  /// after every gate on each touched qubit) and readout (confusion
  /// probability applied to sampled shots, p01 = p10 = value). Requires
  /// --trajectories; the value must be a probability in [0, 1].
  std::vector<std::pair<std::string, double>> noise;
  /// Number of stochastic trajectories (--trajectories=N). 0 = ideal run.
  std::size_t trajectories = 0;
  /// Base of the per-trajectory seed stream (--noise-seed=N).
  std::uint64_t noise_seed = 0x7261;
  /// Pauli-string observables from repeated --observable flags (parsed by
  /// sv::PauliString::parse at run time).
  std::vector<std::string> observables;
};

/// Parses `args` (flags only, no program/command words). Throws
/// hisim::Error on an unknown flag, a malformed number, an unknown
/// strategy/backend/target name, or a --ranks value that is not a power
/// of two (ranks map to 2^p simulated processes — a non-power-of-two
/// count has no p and used to be silently rounded up).
///
/// --bind and --sweep are repeatable and accept both `--bind name=value`
/// (two arguments) and `--bind=name=value`. Contradictions — a parameter
/// both bound and swept, or given twice — are rejected here; a parameter
/// the plan declares but the flags leave unbound is rejected at execute
/// with an Error naming it.
Flags parse_flags(const std::vector<std::string>& args);

/// The execute_sweep input for `f`: the cartesian product of the sweep
/// axes (last axis fastest), each point also carrying every --bind value.
/// Empty when no --sweep was given (plain single execution).
std::vector<ParamBinding> sweep_points(const Flags& f);

/// The target a `hisim run` uses: the explicit --target if given, else
/// derived from the other flags — distributed-serial/-threaded (per
/// --backend) when --ranks is set, hierarchical otherwise. Throws when a
/// flag has no effect on the target (--backend or --level2 without a
/// distributed one) or an explicit target lacks a flag it needs (e.g. a
/// distributed target without --ranks).
Target effective_target(const Flags& f);

/// The noise model described by the --noise flags (empty when none).
/// Throws hisim::Error on a probability outside [0, 1] — same
/// reject-bad-input policy as the rest of the parser.
noise::NoiseModel noise_model(const Flags& f);

/// Engine options equivalent to `f` for a `hisim run` invocation
/// (includes the --noise model, so noisy plans compile their slots).
Options engine_options(const Flags& f);

}  // namespace hisim::cli
