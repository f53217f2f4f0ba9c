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

/// Compile-time configuration of a distributed run.
struct DistOptions {
  /// p: the run uses 2^p virtual ranks; each shard holds 2^(n-p)
  /// amplitudes. Must match the DistState the plan executes on. p = 0 is
  /// one node: the flat and hierarchical targets compile with it.
  unsigned process_qubits = 0;
  /// First-level partitioning configuration. A limit of 0 (or one
  /// larger than n - p) is clamped to the local qubit count.
  partition::PartitionOptions part;
  /// Nonzero enables a second, cache-sized partitioning level inside
  /// every part (paper Sec. IV multi-level), at this limit capped at
  /// n - p. 0 = off; the engine resolves its own 0 (auto) to
  /// sv::kCacheQubits before it gets here.
  unsigned level2_limit = 0;
};

/// Compiled form of one distributed run: everything that does not depend
/// on amplitude values — the (possibly lowered) circuit, the partitioning,
/// and the steps it becomes, each a layout plus the gates applied under
/// it — computed once and reusable across any number of executions.
/// Immutable after compile_plan(); safe to share between threads
/// executing concurrently on separate DistStates.
struct DistPlan {
  unsigned num_qubits = 0;
  unsigned process_qubits = 0;   // p: 2^p virtual ranks
  unsigned level2_limit = 0;     // nonzero = one step per level-2 part
  Circuit circuit;               // lowered when wide gates required it
  std::size_t parts = 0;         // first-level parts
  std::size_t inner_parts = 0;   // second-level parts across all parts
  double partition_seconds = 0;  // both levels' partitioning wall time

  /// A layout and the gates applied under it, in execution order, from
  /// RankLayout::identity(n, p). With level 2 off, one step per part,
  /// whose layout makes the part's qubits local. With level 2, one step
  /// per second-level part, whose layout also puts the part's moved
  /// qubits (Gate::moved_qubits) on the lowest min(sv::kCacheQubits,
  /// n - p) slots, apply_gates' block; it changes process slots only
  /// where a first-level part starts.
  struct Step {
    RankLayout layout;
    /// The part's gates with qubits remapped to local slots under
    /// `layout` — ready for a direct shard-local apply. May still carry
    /// symbolic parameters; materialize() binds them per execution.
    Circuit local;
    /// Precomputed: any gate of `local` carries a symbolic parameter, so
    /// executing this step requires per-binding materialization.
    bool parametric = false;
    /// Reserved noise slots of `local`: (gate index, slot id) pairs, found
    /// once at compile. Sampled trajectory operators are single-qubit and
    /// substitute onto the slot gate's already-local position, so noisy
    /// execution reuses the schedule untouched.
    std::vector<std::pair<std::size_t, unsigned>> noise_slots;
  };
  std::vector<Step> steps;

  std::size_t num_parts() const { return parts; }
};

/// Deep validator (see common/check.hpp): aborts unless `plan` upholds the
/// full schedule contract — every layout a consistent n/p-shaped
/// permutation whose slot_of/qubit_at maps invert each other, every
/// amplitude conserved across each consecutive layout pair (each (rank,
/// offset) destination hit exactly once — no shard byte lost or
/// duplicated), every step gate acting only on local slots, the steps'
/// slot-remapped gates unmapping (via each step's layout) to exactly the
/// plan circuit's gate multiset, the gates touching each qubit unmapping
/// in the plan circuit's order (a schedule may reorder only gates that
/// share no qubit), and reserved noise slots consistent between circuit
/// and steps. Checked builds run this from ExecutionPlan::validate();
/// tests corrupt a copied plan's schedule and assert the abort.
void validate_plan(const DistPlan& plan);

/// Compiles the paper's hierarchical simulator (Secs. IV and V) for `c`
/// under `opt`: partition the circuit so every part fits in one rank's
/// shard, and plan per part the redistribution that makes its qubits local
/// on every rank — at most one collective exchange per part, where the
/// IQS-style baseline pays one pairwise exchange per gate that mixes a
/// process qubit. With a level-2 limit, each part is partitioned again
/// and each second-level part is a step (see DistPlan::Step): Alg. 1's
/// cache-resident inner state vectors are apply_gates' blocks. A part
/// that moves more qubits than the block holds brings that many; its
/// other gates take apply_gates' whole-state path. A level-1 limit of
/// n or more (only possible at p = 0) makes the whole circuit one part
/// without building the DAG or calling the partitioner. Throws unless
/// p < n, and if an arity-2 gate exceeds the local qubit count.
DistPlan compile_plan(Circuit c, const DistOptions& opt);

/// The circuit `step` applies in one execution: its slot-local gates with
/// symbolic parameters bound to `param_values` (indexed by the source
/// circuit's param ids, as produced by resolve_binding) and the
/// trajectory's sampled `noise_ops` (indexed by slot id, each on canonical
/// qubit 0; see noise/trajectory.hpp) substituted onto its reserved noise
/// slots. Returns step.local itself when the step needs neither, else the
/// copy built in `storage`. Gate count and order are preserved. Throws
/// hisim::Error naming an unbound parameter, or for a slot with no
/// sampled operator.
const Circuit& materialize(const DistPlan::Step& step,
                           std::span<const double> param_values,
                           std::span<const Gate> noise_ops, Circuit& storage);

/// Runs a compiled plan on `state`, which must carry the identity layout
/// the schedule starts from. Repeatable: only amplitudes move. Per step,
/// amplitudes move to the step's layout — by an exchange through
/// `backend` (nullptr = serial_backend()), charged against `net`, when
/// process slots change, else by DistState::relayout in place — and every
/// rank then applies the step's gates to its own shard through
/// sv::apply_gates, as a real MPI rank would between exchanges. With an
/// async backend (ThreadedBackend) a rank starts as soon as its shard has
/// arrived: the comm/compute overlap of Sec. V-C, measured rather than
/// modeled. One rank (p = 0) ends back on the identity layout, so that
/// its shard is the state.
///
/// `param_values` (the binding of a parameterized plan) and `noise_ops`
/// (one trajectory's sampled slot operators; empty = ideal execution,
/// slots apply as identities) reach each step through materialize(), just
/// after its exchange is launched, so binding overlaps data movement. The
/// schedule and layouts are reused as-is: every sampled operator is
/// single-qubit on a slot the plan already made local, so a noisy run's
/// exchanges are byte-identical to the ideal run's.
///
/// `kernels` selects the apply-kernel tier for every shard-local gate
/// (nullptr = the Auto-resolved default; see sv/kernel_dispatch.hpp).
///
/// The run's measurements are written into `metrics` (nullptr records
/// nothing) from the calling thread. A plan with a second level adds
/// relayout.seconds and relayout.bytes; one rank adds apply.seconds, the
/// sum of its steps' apply windows. More ranks add the exchange totals
/// (exchange.count, .bytes, .messages, exchange.modeled_avg_seconds); one
/// sample per step of
/// exchange.modeled_seconds, apply.seconds (first rank starting to last
/// rank finished) and step.wall_seconds, plus, for steps that exchanged,
/// exchange.measured_seconds and exchange.overlap_seconds (the
/// intersection of the comm and compute windows), each flattened to
/// `.count/.min/.max/.sum/.mean`; and step.pipelined_seconds, the paper's
/// Sec. V-C estimate over the per-step (modeled comm, apply) pairs:
/// T = comm_1 + sum_i max(apply_i, comm_{i+1}), comm_{k+1} = 0.
/// docs/ARCHITECTURE.md ("Metric keys") lists every target's keys.
void execute_plan(const DistPlan& plan, DistState& state,
                  const NetworkModel& net,
                  std::map<std::string, double>* metrics = nullptr,
                  CommBackend* backend = nullptr,
                  std::span<const double> param_values = {},
                  std::span<const Gate> noise_ops = {},
                  const sv::KernelOps* kernels = nullptr);

}  // namespace hisim::dist
