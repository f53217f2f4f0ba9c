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
  std::size_t inner_parts = 0;   // total second-level parts across steps
  double partition_seconds = 0;  // both levels' partitioning wall time

  /// One entry per first-level part, in execution order; the exchange
  /// schedule starts from RankLayout::identity(n, p).
  struct Step {
    RankLayout layout;   // post-exchange layout (== previous when no move)
    /// The part's gates with qubits remapped to local slots under
    /// `layout` — ready for a direct shard-local apply. May still carry
    /// symbolic parameters; materialize() binds them per execution.
    Circuit local;
    /// Second-level partitioning of `local` (empty when level2_limit == 0).
    /// Gate indices stay valid across binding: materialization preserves
    /// gate count and order.
    partition::Partitioning inner;
    /// Per inner part, the local slots sv::run_part gathers: the part's
    /// working set plus the lowest free slots, up to pad_width(plan) slots
    /// (a wider part keeps its working set). Kept beside `inner`, whose
    /// Part::qubits stay exactly the working set partition::validate
    /// checks.
    std::vector<std::vector<Qubit>> padded;
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

/// The width compile_plan pads every narrower level-2 part of `plan` to:
/// min(level2_limit, n - p, sv::kCacheQubits). Padding past the cache
/// limit would only make inner vectors outgrow the L2 they are sized for.
unsigned pad_width(const DistPlan& plan);

/// Deep validator (see common/check.hpp): aborts unless `plan` upholds the
/// full exchange-schedule contract — every layout a consistent n/p-shaped
/// permutation whose slot_of/qubit_at maps invert each other, every
/// amplitude conserved across each consecutive layout pair (each (rank,
/// offset) destination hit exactly once — no shard byte lost or
/// duplicated), every step gate acting only on local slots, the steps'
/// slot-remapped gates unmapping (via each step's layout) to exactly the
/// plan circuit's gate multiset, reserved noise slots consistent between
/// circuit and steps, inner partitionings valid for their step
/// sub-circuits, and one padded slot list per inner part: strictly
/// ascending local slots holding the part's working set, pad_width(plan)
/// wide unless the working set is wider. Checked builds run this from
/// ExecutionPlan::validate(); tests corrupt a copied plan's schedule and
/// assert the abort.
void validate_plan(const DistPlan& plan);

/// Compiles the paper's hierarchical simulator (Secs. IV and V) for `c`
/// under `opt`: partition the circuit so every part fits in one rank's
/// shard, and plan per part the redistribution that makes its qubits local
/// on every rank — at most one collective exchange per part, where the
/// IQS-style baseline pays one pairwise exchange per gate that mixes a
/// process qubit. A level-1 limit of n or more (only possible at p = 0)
/// makes the whole circuit one part without building the DAG or calling
/// the partitioner. Throws unless p < n, and if an arity-2 gate exceeds
/// the local qubit count.
DistPlan compile_plan(Circuit c, const DistOptions& opt);

/// The circuit `step` applies in one execution: its slot-local gates with
/// symbolic parameters bound to `param_values` (indexed by the source
/// circuit's param ids, as produced by resolve_binding) and the
/// trajectory's sampled `noise_ops` (indexed by slot id, each on canonical
/// qubit 0; see noise/trajectory.hpp) substituted onto its reserved noise
/// slots. Returns step.local itself when the step needs neither, else the
/// copy built in `storage`. Gate count and order are preserved, so
/// step.inner's gate indices stay valid. Throws hisim::Error naming an
/// unbound parameter, or for a slot with no sampled operator.
const Circuit& materialize(const DistPlan::Step& step,
                           std::span<const double> param_values,
                           std::span<const Gate> noise_ops, Circuit& storage);

/// Runs a compiled plan on `state`, which must carry the identity layout
/// the schedule starts from. Repeatable: only amplitudes move; no partitioning
/// or layout planning happens here. Per step, the exchange runs through
/// `backend` (nullptr = serial_backend()) and is charged against `net`;
/// then every rank applies the step's slot-local gates to its own shard,
/// as a real MPI rank would between exchanges: through sv::run_part per
/// level-2 part, or, with level 2 off, through sv::apply_gates, which
/// takes a shard wider than sv::kCacheQubits block by block. With an
/// async backend
/// (ThreadedBackend) a rank starts as soon as its shard has arrived: the
/// comm/compute overlap of Sec. V-C, measured rather than modeled.
///
/// `param_values` (the binding of a parameterized plan) and `noise_ops`
/// (one trajectory's sampled slot operators; empty = ideal execution,
/// slots apply as identities) reach each step through materialize(), just
/// after its exchange is launched, so binding overlaps data movement. The
/// exchange schedule, layouts, and inner partitions are reused as-is:
/// every sampled operator is single-qubit on a slot the plan already made
/// local, so a noisy run's exchanges are byte-identical to the ideal run's.
///
/// `kernels` selects the apply-kernel tier for every shard-local gate
/// (nullptr = the Auto-resolved default; see sv/kernel_dispatch.hpp).
///
/// The run's measurements are written into `metrics` (nullptr records
/// nothing) from the calling thread: the exchange totals (exchange.count,
/// .bytes, .messages, exchange.modeled_avg_seconds); one sample per step
/// of exchange.modeled_seconds, apply.seconds (first rank starting to
/// last rank finished) and step.wall_seconds, plus, for steps that
/// exchanged, exchange.measured_seconds and exchange.overlap_seconds (the
/// intersection of the comm and compute windows), each flattened to
/// `.count/.min/.max/.sum/.mean`; and step.pipelined_seconds, the paper's
/// Sec. V-C estimate over the per-step (modeled comm, apply) pairs:
/// T = comm_1 + sum_i max(apply_i, comm_{i+1}), comm_{k+1} = 0.
/// One rank (p = 0) records none of these: its level-2 parts add
/// sv::run_part's keys, and its steps without level-2 parts add their
/// apply window to a plain apply.seconds. docs/ARCHITECTURE.md ("Metric
/// keys") lists every target's keys.
void execute_plan(const DistPlan& plan, DistState& state,
                  const NetworkModel& net,
                  std::map<std::string, double>* metrics = nullptr,
                  CommBackend* backend = nullptr,
                  std::span<const double> param_values = {},
                  std::span<const Gate> noise_ops = {},
                  const sv::KernelOps* kernels = nullptr);

}  // namespace hisim::dist
