#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "dist/dist_state.hpp"
#include "dist/hisvsim_dist.hpp"
#include "noise/noise_model.hpp"
#include "opt/pass_manager.hpp"
#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/observables.hpp"
#include "sv/state_vector.hpp"

/// The compile-once / run-many public API of HiSVSIM.
///
/// The paper's core claim is that partitioning cost is *amortized* over
/// execution. This header is that claim as an API: Engine::compile() pays
/// the full compile cost — partitioning, wide-gate lowering,
/// rank-layout planning, the exchange schedule — exactly once and returns
/// an immutable ExecutionPlan; ExecutionPlan::execute() runs it as many
/// times as the workload needs (shots, QAOA parameter points, concurrent
/// requests), each run paying only amplitude movement and gate
/// application. Plans are cheaply copyable handles to shared immutable
/// state and safe to execute concurrently from multiple threads.
///
/// Compiling a *parameterized* circuit (Circuit::param + symbolic gate
/// factories) stretches the amortization across whole sweep workloads:
/// every compile artifact depends only on circuit structure, so the plan
/// is built once and each sweep point is a pure execute — pass the point's
/// angles via ExecOptions::bindings, or a whole batch of points to
/// ExecutionPlan::execute_sweep(), which fans out over the worker pool.
namespace hisim {

/// Where and how a compiled circuit executes. Every target compiles to one
/// dist::DistPlan and only chooses p, the level-1 limit and the level-2
/// limit; all but iqs-baseline run it through dist::execute_plan.
/// Single-node targets hold one dense state vector on one rank (p = 0);
/// distributed targets shard it over 2^p simulated ranks
/// (Options::process_qubits).
enum class Target {
  /// (p = 0, level 1 = n, no level 2): one part holding every gate,
  /// applied to the full vector.
  Flat,
  /// (p = 0, level 1 = n, level 2 = Options::limit): the level-2 parts of
  /// Alg. 1, each run block by block after an in-place relayout.
  Hierarchical,
  /// Per-part redistribution executor with the synchronous exchange
  /// backend (reference; deterministic timing).
  DistributedSerial,
  /// Same executor with the threaded backend: exchange data movement
  /// overlaps shard-local compute, overlap is measured.
  DistributedThreaded,
  /// (p = 0, level 1 = n, no level 2), as flat, with its one part's gates
  /// applied by the IQS-style fixed-layout baseline on 2^process_qubits
  /// shards (one pairwise exchange per gate that mixes a process qubit) —
  /// the paper's comparison arm.
  IqsBaseline,
};

/// "flat" | "hierarchical" | "distributed-serial" | "distributed-threaded"
/// | "iqs-baseline".
const char* target_name(Target t);
/// Inverse of target_name(); throws hisim::Error on anything else.
Target parse_target(const std::string& name);
/// True for the three sharded-state targets.
bool target_is_distributed(Target t);
/// The distributed target that runs on the given exchange backend — the
/// one mapping shared by the CLI and the benches.
Target target_for_backend(dist::BackendKind kind);

/// Compile-time configuration: everything the plan depends on.
struct Options {
  Target target = Target::Hierarchical;
  partition::Strategy strategy = partition::Strategy::DagP;
  /// Working-set limit Lm. 0 = auto: the local qubit count (n - p) when
  /// distributed, otherwise the cache limit sv::kCacheQubits (16 qubits).
  /// Capped at the circuit width. Flat and iqs-baseline ignore it; on
  /// hierarchical it is the level-2 limit of the one-rank plan, whose
  /// level 1 holds the whole circuit. It bounds a part's working set; the
  /// block its moved qubits are relayouted into stays sv::kCacheQubits
  /// wide (1 MiB) at any limit, and a part that moves more qubits than
  /// that runs its other gates over the whole state.
  unsigned limit = 0;
  /// Second-level (cache) limit of the distributed-serial/-threaded
  /// targets: each part is re-partitioned at this limit and runs its
  /// inner parts shard-locally (paper Sec. IV), relayouted like
  /// hierarchical parts. 0 = auto: sv::kCacheQubits. A value >= n - p
  /// (a level as wide as a shard) turns level 2 off. Nonzero on any other
  /// target throws at compile.
  unsigned level2_limit = 0;
  /// Number of process ("rank") qubits; 2^p simulated ranks. Required
  /// (> 0) for the distributed targets, ignored otherwise.
  unsigned process_qubits = 0;
  std::uint64_t seed = 0x5eed;
  /// Circuit optimization level: 0 compiles the circuit exactly as given,
  /// 1 (default) runs the canonicalization pipeline (opt/pass_manager.hpp)
  /// before partitioning — inverse-pair cancellation, same-axis rotation
  /// merging, identity-angle drops, diagonal commutation. NoiseSlot and
  /// unbound symbolic gates are barriers, so noisy and parameterized plans
  /// keep their structure regardless of level. Anything > 1 throws.
  unsigned opt_level = 1;
  /// Apply-kernel tier for every gate execution under this plan (see
  /// sv/kernel_dispatch.hpp). Auto resolves once at compile to SIMD when
  /// the binary and CPU support it (overridable via the HISIM_KERNEL
  /// environment variable), Scalar otherwise; forcing Simd on a host
  /// without AVX2 makes compile() throw. All tiers agree within strict
  /// rounding equivalence, so this is a performance knob, not a
  /// correctness one.
  sv::KernelTier kernel_tier = sv::KernelTier::Auto;
  /// Noise model compiled into the plan: identity "noise slots" are
  /// reserved in the circuit structure after every matching gate, so
  /// partitioning, lowering, and the exchange schedule account for them
  /// exactly once. A plain execute() of a noisy plan runs the ideal
  /// circuit (slots are exact no-ops); stochastic trajectories sample
  /// concrete operators into the slots via execute_trajectories().
  noise::NoiseModel noise;
  /// Starts a trace session (common/trace.hpp) when compile() begins, so
  /// compile and every subsequent execute record spans. Off by default:
  /// disabled tracing costs one relaxed atomic load per instrumentation
  /// site. The CLI --trace flag and the HISIM_TRACE environment variable
  /// are the other two ways to enable collection; retrieve the trace with
  /// trace::TraceSession::chrome_json() / write().
  bool trace = false;
};

/// Per-execution configuration: everything the plan does *not* depend on.
struct ExecOptions {
  /// Starting state; nullptr = |0...0>. Must have the plan's qubit count.
  const sv::StateVector* initial_state = nullptr;
  /// Measurement shots drawn from the final state (deterministic for a
  /// fixed shot_seed). 0 = none.
  std::size_t shots = 0;
  std::uint64_t shot_seed = 0xC11;
  /// Pauli-string observables evaluated on the final state; one value per
  /// entry lands in Result::observables. Each must act on distinct qubits
  /// of the register (PauliString::check), or execute throws before it
  /// simulates.
  std::vector<sv::PauliString> observables;
  /// Values for the plan's symbolic parameters (see Circuit::param), by
  /// name. A parameterized plan requires every parameter bound — an
  /// unbound parameter, an unknown name, or a non-finite value throws
  /// hisim::Error naming the parameter. Must be empty for concrete plans.
  ParamBinding bindings;
  /// When false, Result::state is left empty — report-only runs (e.g. the
  /// benches) then skip the O(2^n) full-state gather on the sharded
  /// targets entirely (unless shots/observables require it). norm is
  /// still reported.
  bool want_state = true;
  /// Analytic network model charged during distributed execution. The
  /// plan does not depend on it, so sweeping network parameters (latency
  /// / bandwidth sensitivity) is a pure execute loop over one plan.
  dist::NetworkModel net;
};

/// Report of one execution: the plan's identity, this execution's
/// outputs, and `metrics` — the one place its measured and modeled numbers
/// live. to_json() is the single definition of the report fields the CLI
/// and the benches print.
struct Result {
  // -- circuit / configuration identity ------------------------------
  std::string circuit;
  unsigned qubits = 0;
  std::size_t gates = 0;           // as compiled (after optimization)
  Target target = Target::Hierarchical;
  partition::Strategy strategy = partition::Strategy::DagP;
  unsigned opt_level = 1;
  std::size_t gates_pre_opt = 0;   // before optimization (== gates at 0)
  /// Per-pass removed-gate counts, pipeline order; empty at opt_level 0.
  std::vector<PassDelta> opt_passes;
  /// Resolved kernel tier the run executed with ("scalar" | "simd").
  std::string kernel;
  std::size_t parts = 0;
  std::size_t inner_parts = 0;
  unsigned ranks = 0;              // 0 for single-node targets

  // -- outputs --------------------------------------------------------
  double norm = 0.0;
  sv::StateVector state;           // final state (gathered when sharded)
  std::vector<Index> samples;      // ExecOptions::shots outcomes
  std::vector<double> observables; // one per ExecOptions::observables
  /// The parameter values this execution was bound with (copied from
  /// ExecOptions::bindings), so sweep outputs are self-describing; empty
  /// for concrete plans. Serialized by to_json() as "params".
  ParamBinding params;

  /// Every measured or modeled number of the execution, in
  /// trace::MetricsRegistry flat naming (`module.noun`; distributions
  /// expand to `.count/.min/.max/.sum/.mean`). The plan's compile-phase
  /// breakdown ("compile.*") is merged with what the target's executor
  /// recorded; docs/ARCHITECTURE.md ("Metric keys") lists the keys per
  /// target. Serialized by to_json() as "metrics".
  std::map<std::string, double> metrics;

  /// Modeled serial total read from `metrics`: apply.seconds.sum +
  /// exchange.modeled_seconds.sum on the sharded targets (compute plus
  /// slowest-host comm), apply + relayout seconds otherwise.
  double total_seconds() const;
  /// The k most frequent shot outcomes, count-descending — the one
  /// definition shared by to_json() and the CLI's text report.
  std::vector<std::pair<double, Index>> top_counts(std::size_t k) const;

  /// Serializes every report field above (not the state or raw samples;
  /// the 16 most frequent samples as "top_counts") as a JSON object. The
  /// one place report fields are defined.
  std::string to_json() const;
};

/// Per-call configuration of a Monte-Carlo trajectory run.
struct TrajectoryOptions {
  /// Per-trajectory execution settings: bindings, observables, initial
  /// state, and network model apply to every trajectory; `shots` draws
  /// that many measurement shots *per trajectory* (pooled, with readout
  /// error applied, into NoisyResult::counts). `exec.shot_seed` and
  /// `exec.want_state` are ignored — each trajectory derives its own
  /// shot/readout streams from its trajectory seed (replayable), and
  /// per-trajectory states are never retained (replay one via
  /// ExecutionPlan::execute_trajectory when the state is needed).
  ExecOptions exec;
  /// Root of the per-trajectory seed stream: trajectory t runs under
  /// noise::trajectory_seed(seed, t), recorded in NoisyResult::seeds.
  std::uint64_t seed = 0x7261;
};

/// Aggregated report of one execute_trajectories() run. Observable
/// statistics use the weighted estimator <psi~|P|psi~> per trajectory
/// (psi~ unnormalized), whose mean is an unbiased estimate of
/// Tr(P eps(rho)) under both Pauli and Kraus-unraveled channels; for
/// purely Pauli models every weight is exactly 1.
struct NoisyResult {
  std::string circuit;
  unsigned qubits = 0;
  Target target = Target::Hierarchical;
  std::size_t trajectories = 0;
  std::size_t noise_slots = 0;        // reserved insertion points per run
  std::size_t shots_per_trajectory = 0;

  /// Per-trajectory seeds, in trajectory order: feeding seeds[t] to
  /// execute_trajectory() replays trajectory t bit-identically (state,
  /// samples, and readout corruption included).
  std::vector<std::uint64_t> seeds;
  /// Per-trajectory weights ||psi~||^2 (the ideal run's norm — 1 up to
  /// fp rounding — for Pauli-only models; E[weight] = 1 for
  /// trace-preserving Kraus unravelings, with variance that grows with
  /// the number of non-unitary slots — attach damping channels to
  /// specific gates/qubits rather than blanket-instrumenting).
  std::vector<double> weights;
  double total_weight = 0.0;
  double mean_weight = 0.0;

  /// One entry per TrajectoryOptions::exec.observables: mean, sample
  /// standard deviation, and standard error over the trajectories.
  std::vector<double> observable_means;
  std::vector<double> observable_stddevs;
  std::vector<double> observable_stderrs;

  /// Pooled shot histogram: outcome -> weighted count (weight 1 per shot
  /// for Pauli-only models), readout confusion already applied.
  std::map<Index, double> counts;

  /// The parameter values every trajectory was bound with and the base
  /// of the seed stream (TrajectoryOptions::seed) — together with the
  /// plan's Options these make the report re-runnable, the same
  /// self-describing convention as Result::params.
  ParamBinding params;
  std::uint64_t noise_seed = 0;

  double compile_seconds = 0.0;  // copied from the plan
  double execute_seconds = 0.0;  // wall clock of the whole trajectory fan-out

  /// The k heaviest pooled outcomes, weight-descending — the one
  /// definition shared by to_json() and the CLI's text report.
  std::vector<std::pair<double, Index>> top_counts(std::size_t k) const;

  /// Report fields (not the raw seeds/weights vectors) as a JSON object,
  /// in the same style as Result::to_json().
  std::string to_json() const;
};

namespace detail {
struct PlanImpl;
}

/// An immutable compiled circuit: cheap to copy (shared handle), safe to
/// execute from many threads concurrently. Obtain via Engine::compile().
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Runs the plan once. Every call starts from |0...0> (or
  /// opts.initial_state), so executions are independent and repeatable:
  /// the same plan and ExecOptions yield bit-identical states. No
  /// partitioning, lowering, or layout planning happens here — for a
  /// parameterized plan only the gate matrices are materialized against
  /// opts.bindings (which must then cover every parameter).
  Result execute(const ExecOptions& opts = {}) const;

  /// Runs the plan once per sweep point, concurrently over the worker
  /// pool, and returns one Result per point in input order. Each point is
  /// an independent execute() with opts.bindings replaced by that point
  /// (everything else in `opts` — shots, observables, want_state — applies
  /// to every point; prefer want_state = false for large sweeps, which
  /// would otherwise hold every point's full state in memory at once).
  /// Every point is validated against the plan's parameters up front, so
  /// a malformed binding throws on the calling thread before any work
  /// starts.
  std::vector<Result> execute_sweep(std::span<const ParamBinding> points,
                                    const ExecOptions& opts = {}) const;

  /// Runs `num` stochastic noise trajectories through this plan,
  /// concurrently over the worker pool, and returns the aggregate.
  /// Each trajectory samples one concrete operator per reserved noise
  /// slot from its own seed (noise::trajectory_seed(opts.seed, t)) and
  /// executes the plan with those operators substituted — structure
  /// (partitioning, lowering, exchange schedule) is shared across all
  /// trajectories and the partitioner is never re-invoked. Requires a
  /// plan compiled with Options::noise (throws otherwise).
  NoisyResult execute_trajectories(std::size_t num,
                                   const TrajectoryOptions& opts = {}) const;

  /// Runs the single trajectory identified by `seed` and returns its full
  /// Result (state included unless opts.want_state is off). Result::norm
  /// is the trajectory weight; samples carry the readout corruption.
  /// Bit-identical for a fixed seed — the replay arm of the seeds
  /// recorded in NoisyResult.
  Result execute_trajectory(std::uint64_t seed,
                            const ExecOptions& opts = {}) const;

  /// Deep structural validation of the compiled plan (the checked-build
  /// layer; see common/check.hpp). Verifies that the partitioning covers
  /// every gate exactly once with an acyclic part graph, that the
  /// distributed exchange schedule keeps every part qubit local and
  /// conserves every shard's amplitudes across each layout permutation,
  /// that reserved noise-slot ids are dense and unique, and that the
  /// resolved kernel tier agrees with what the CPU offers. Violations
  /// abort with the failed invariant; preconditions (an empty plan) throw
  /// hisim::Error. Builds configured with -DHISIM_CHECKED=ON run this
  /// automatically at the end of every Engine::compile(); it is public so
  /// tests and long-lived services can re-assert plan integrity at will.
  void validate() const;

  bool valid() const { return impl_ != nullptr; }
  /// True when the plan was compiled under a non-empty Options::noise.
  bool noisy() const;
  /// Number of reserved noise-insertion points in the compiled circuit.
  std::size_t num_noise_slots() const;
  /// The symbolic parameters the compiled circuit declares (binding keys
  /// for execute/execute_sweep), in registration order. Empty for
  /// concrete plans.
  const std::vector<std::string>& param_names() const;
  bool parameterized() const { return !param_names().empty(); }
  const Options& options() const;
  Target target() const;
  /// The kernel tier the plan resolved at compile time — never Auto:
  /// always the concrete Scalar or Simd table every execute() will use.
  sv::KernelTier kernel_tier() const;
  /// The circuit as executed (optimized per Options::opt_level, lowered
  /// when wide gates required it).
  const Circuit& circuit() const;
  /// Gate-count accounting of the compile-time optimization pipeline
  /// (zero removals when the plan was compiled at opt_level 0).
  const OptReport& opt_report() const;
  std::size_t num_parts() const;
  std::size_t num_inner_parts() const;
  unsigned num_ranks() const;       // 0 for single-node targets
  double compile_seconds() const;
  double partition_seconds() const;

 private:
  friend class Engine;
  explicit ExecutionPlan(std::shared_ptr<const detail::PlanImpl> impl)
      : impl_(std::move(impl)) {}
  /// execute() with one trajectory's sampled slot operators substituted
  /// (empty span = ideal execution). The single execution path every
  /// public entry point funnels into.
  Result execute_impl(const ExecOptions& opts,
                      std::span<const Gate> noise_ops) const;
  std::shared_ptr<const detail::PlanImpl> impl_;
};

/// Stateless compiler front end: validates Options against the circuit,
/// then partitions, lowers, and plans layouts once.
class Engine {
 public:
  explicit Engine(Options opt = {}) : opt_(std::move(opt)) {}

  const Options& options() const { return opt_; }

  /// Compiles `c` under this engine's options.
  ExecutionPlan compile(const Circuit& c) const;

  /// One-shot convenience: Engine(opt).compile(c).
  static ExecutionPlan compile(const Circuit& c, const Options& opt);

 private:
  Options opt_;
};

}  // namespace hisim
