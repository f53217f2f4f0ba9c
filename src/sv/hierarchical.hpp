#pragma once

#include <map>
#include <string>

#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Inner-vector budget in qubits: 2^21 amplitudes (32 MiB), an LLC-sized
/// working set. The engine's auto limit is this width, and run_part keeps
/// its per-thread inner vectors within it.
inline constexpr unsigned kInnerBudgetQubits = 21;

/// run_part's choice of path for a part of `part_width` qubits with
/// `cosets` = 2^(n − part_width) cosets on `threads` threads (1 inside a
/// pool region). True (fan out): there are at least `threads` cosets and
/// `threads` inner vectors of 2^part_width amplitudes fit the budget, so
/// each thread gathers, applies and scatters its own contiguous block of
/// cosets. False (split copy): one inner vector, with each gather and
/// scatter split over the pool. Either way the inner vectors take at most
/// the larger of the budget and one 2^part_width vector.
bool fans_out(unsigned part_width, Index cosets, unsigned threads);

/// Hierarchical simulator implementing Algorithm 1: for each part, for
/// every assignment of the qubits outside the part, gather the matching
/// amplitudes into an inner state vector, run the part's gates there (with
/// qubits remapped to inner slots), and scatter the results back.
class HierarchicalSimulator {
 public:
  /// `parts` must be a valid partitioning of `c`. Each part runs through
  /// run_part, which adds its accounting to `metrics` (nullptr records
  /// nothing). `ops` selects the kernel tier for the inner applies
  /// (nullptr = the Auto-resolved default).
  void run(const Circuit& c, const partition::Partitioning& parts,
           StateVector& state,
           std::map<std::string, double>* metrics = nullptr,
           const KernelOps* ops = nullptr) const;

  StateVector simulate(const Circuit& c,
                       const partition::Partitioning& parts,
                       std::map<std::string, double>* metrics = nullptr) const;
};

/// Executes one part against `outer`: the gather-execute-scatter cycle of
/// Algorithm 1, over the part's cosets on the path fans_out() picks.
/// Bit-identical on every path and thread count: each amplitude sees the
/// same gate sequence and the copies are exact. `gates` are indices into
/// `c`; `part_qubits` must be the sorted working set of those gates.
/// Exposed for reuse by the distributed executor's second level (each
/// shard runs its step's inner parts through it); called from inside a
/// pool region, it runs inline with one inner vector.
///
/// Adds the part's accounting to `metrics` (nullptr records nothing), so
/// keys sum over a run's parts: gather.seconds, apply.seconds and
/// scatter.seconds (the workers' stopwatch sums scaled to the part's wall
/// time, so they never add up to more than the run's wall time);
/// sv.outer_bytes_moved (gather reads and scatter writes the whole outer
/// vector); sv.inner_bytes_touched (bytes the gates process inside the
/// cache-sized inner vectors); sv.flops.
void run_part(const Circuit& c, std::span<const std::size_t> gates,
              std::span<const Qubit> part_qubits, StateVector& outer,
              std::map<std::string, double>* metrics = nullptr,
              const KernelOps* ops = nullptr);

}  // namespace hisim::sv
