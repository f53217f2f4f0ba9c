#pragma once

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "dist/backend.hpp"
#include "dist/dist_state.hpp"
#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"

namespace hisim::dist {

/// Pipelined-total estimate (paper Sec. V-C) over per-part (modeled comm,
/// measured compute) pairs: while a rank computes part i it can already
/// receive the exchange for part i+1, so
///   T = comm_1 + sum_i max(compute_i, comm_{i+1})   (comm_{k+1} = 0).
/// Returns `fallback` when no per-part times were recorded. The definition
/// behind hisim::Result::total_seconds_overlapped().
double pipelined_total_seconds(
    std::span<const std::pair<double, double>> part_times, double fallback);

/// What execute_plan measures in one distributed run: compute and
/// exchange wall-clock time, modeled network time, and the per-part
/// (comm, compute) pairs the modeled overlap estimate is built from. Part
/// counts and partitioning time are properties of the DistPlan.
struct DistRunReport {
  /// Measured wall-clock span of the shard-local apply phase, summed over
  /// parts (first rank starting to compute → last rank finished; the
  /// per-rank loop may fan out over the worker pool). Directly comparable
  /// to IqsRunReport::compute_seconds, which brackets the same kind of
  /// region.
  double compute_seconds = 0.0;
  CommStats comm;                // modeled network cost, all exchanges
  /// One (modeled comm seconds, measured compute seconds) pair per part,
  /// in execution order. Parts whose qubits were already local have a
  /// zero comm entry.
  std::vector<std::pair<double, double>> part_times;

  /// Measured wall-clock seconds exchange data movement was in flight,
  /// summed over exchanges (as reported by the CommBackend handles).
  double measured_comm_seconds = 0.0;
  /// Measured wall-clock seconds of the whole exchange+apply pipeline,
  /// summed over parts. With an async backend this is less than
  /// measured_comm_seconds + compute_seconds whenever compute on arrived
  /// shards proceeded while the rest of the exchange was in flight.
  double measured_wall_seconds = 0.0;
  /// Measured wall-clock seconds during which exchange data movement and
  /// shard-local compute were *simultaneously* in progress (intersection
  /// of the comm and compute windows, summed over parts). Zero for a
  /// synchronous backend, and never exceeds either measured_comm_seconds
  /// or compute_seconds — hence never their sum.
  double measured_overlap_seconds = 0.0;

  /// Flat per-phase metrics (trace::MetricsRegistry::flat() of the run's
  /// registry): per-step distributions of the scalar fields above plus
  /// exchange counters ("exchange.count", "exchange.bytes",
  /// "exchange.messages"). The scalar fields themselves are *queried from*
  /// the same registry — one accounting source — and keep their exact
  /// to_json names and semantics.
  std::map<std::string, double> metrics;
};

/// Compile-time configuration of a distributed run.
struct DistOptions {
  /// p: the run uses 2^p virtual ranks; each shard holds 2^(n-p)
  /// amplitudes. Must match the DistState the plan executes on.
  unsigned process_qubits = 0;
  /// First-level partitioning configuration. A limit of 0 (or one
  /// larger than n - p) is clamped to the local qubit count.
  partition::PartitionOptions part;
  /// Nonzero enables a second, cache-sized partitioning level inside
  /// every part (paper Sec. IV multi-level).
  unsigned level2_limit = 0;
};

/// Compiled form of one distributed run: everything that does not depend
/// on amplitude values — the (possibly lowered) circuit, the partitioning,
/// the per-part target layouts (the exchange schedule), the part gates
/// remapped onto local slots, and the optional cache-sized second-level
/// partitioning — computed once and reusable across any number of
/// executions. Immutable after compile_plan(); safe to share between
/// threads executing concurrently on separate DistStates.
struct DistPlan {
  unsigned num_qubits = 0;
  unsigned process_qubits = 0;   // p: 2^p virtual ranks
  unsigned level2_limit = 0;     // nonzero = steps carry inner partitions
  Circuit circuit;               // lowered when wide gates required it
  RankLayout initial_layout;     // layout the exchange schedule starts from
  std::size_t inner_parts = 0;   // total second-level parts across steps
  double partition_seconds = 0;  // partitioning share of compile_seconds
  double compile_seconds = 0;    // full wall-clock cost of compile_plan()

  /// One entry per first-level part, in execution order.
  struct Step {
    RankLayout layout;   // post-exchange layout (== previous when no move)
    /// The part's gates with qubits remapped to local slots under
    /// `layout` — ready for a direct shard-local apply. May still carry
    /// symbolic parameters; execute_plan materializes them per binding.
    Circuit local;
    /// Second-level partitioning of `local` (empty when level2_limit == 0).
    /// Gate indices stay valid across binding: materialization preserves
    /// gate count and order.
    partition::Partitioning inner;
    /// Precomputed: any gate of `local` carries a symbolic parameter, so
    /// executing this step requires per-binding materialization.
    bool parametric = false;
    /// Reserved noise slots of `local`: (gate index, slot id) pairs, found
    /// once at compile. Sampled trajectory operators are single-qubit and
    /// substitute onto the slot gate's already-local position, so noisy
    /// execution reuses the exchange schedule untouched.
    std::vector<std::pair<std::size_t, unsigned>> noise_slots;
  };
  std::vector<Step> steps;

  std::size_t num_parts() const { return steps.size(); }
};

/// Deep validator (see common/check.hpp): aborts unless `plan` upholds the
/// full exchange-schedule contract — every layout a consistent n/p-shaped
/// permutation whose slot_of/qubit_at maps invert each other, every
/// amplitude conserved across each consecutive layout pair (each (rank,
/// offset) destination hit exactly once — no shard byte lost or
/// duplicated), every step gate acting only on local slots, the steps'
/// slot-remapped gates unmapping (via each step's layout) to exactly the
/// plan circuit's gate multiset, reserved noise slots consistent between
/// circuit and steps, and inner partitionings valid for their step
/// sub-circuits. Checked builds run this from ExecutionPlan::validate();
/// tests corrupt a copied plan's schedule and assert the abort.
void validate_plan(const DistPlan& plan);

/// Compiles the paper's distributed hierarchical simulator (Sec. V) for
/// `c` under `opt`: partition the circuit so every part fits in one rank's
/// shard, and plan per part the redistribution that makes its qubits local
/// on every rank — at most one collective exchange per part, where the
/// IQS-style baseline pays one pairwise exchange per gate that mixes a
/// process qubit. `initial` is the layout the target state will carry
/// when execution starts; nullptr = identity. Throws if an arity-2 gate
/// exceeds the local qubit count.
DistPlan compile_plan(const Circuit& c, const DistOptions& opt,
                      const RankLayout* initial = nullptr);

/// Runs a compiled plan on `state` (whose layout must equal
/// plan.initial_layout). Repeatable: only amplitudes move; no partitioning
/// or layout planning happens here. Per step, the exchange runs through
/// `backend` (nullptr = serial_backend()) and is charged against `net`;
/// then every rank applies the step's slot-local gates to its own shard,
/// as a real MPI rank would between exchanges. With an async backend
/// (ThreadedBackend) a rank starts as soon as its shard has arrived: the
/// comm/compute overlap of Sec. V-C, measured rather than modeled.
///
/// `param_values` is the binding context for a parameterized plan (values
/// indexed by the source circuit's param ids, as produced by
/// resolve_binding): each parametric step's local sub-circuit is
/// materialized against it just before the shard-local apply — the
/// exchange schedule, layouts, and inner partitions are reused as-is.
/// Executing a parametric step with no covering value throws hisim::Error
/// naming the parameter.
///
/// `noise_ops` is one trajectory's sampled operator per noise slot
/// (indexed by slot id, each on canonical qubit 0; see
/// noise/trajectory.hpp). Steps with reserved slots substitute their
/// operators during the same per-step materialization — like bindings,
/// this overlaps the exchange, and since every sampled operator is
/// single-qubit on a slot the plan already made local, the exchange
/// schedule is byte-identical to the ideal run. Empty = ideal execution
/// (slots apply as identities).
///
/// `kernels` selects the apply-kernel tier for every shard-local gate
/// (nullptr = the Auto-resolved default; see sv/kernel_dispatch.hpp).
DistRunReport execute_plan(const DistPlan& plan, DistState& state,
                           const NetworkModel& net,
                           CommBackend* backend = nullptr,
                           std::span<const double> param_values = {},
                           std::span<const Gate> noise_ops = {},
                           const sv::KernelOps* kernels = nullptr);

}  // namespace hisim::dist
