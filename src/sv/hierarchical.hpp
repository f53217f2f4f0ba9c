#pragma once

#include <map>
#include <span>
#include <string>

#include "circuit/circuit.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// run_part's choice of path for a part of `part_width` qubits with
/// `cosets` = 2^(n − part_width) cosets on `threads` threads (1 inside a
/// pool region). True (fan out): there are at least `threads` cosets and
/// `threads` inner vectors of 2^part_width amplitudes fit a memory budget
/// of 2^21 amplitudes (32 MiB; a cap on memory, not a part limit), so
/// each thread gathers, applies and scatters its own contiguous block of
/// cosets. False (split copy): one inner vector, with each gather and
/// scatter split over the pool. Either way the inner vectors take at most
/// the larger of the budget and one 2^part_width vector.
bool fans_out(unsigned part_width, Index cosets, unsigned threads);

/// Executes one part against `outer`: the gather-execute-scatter cycle of
/// Algorithm 1 (for every assignment of the qubits outside the part, gather
/// the matching amplitudes into an inner vector, run the part's gates there
/// with qubits remapped to inner slots, and scatter the results back), over
/// the part's cosets on the path fans_out() picks. The gates run through
/// apply_gates, so an inner vector wider than kCacheQubits takes its runs
/// of block-local gates block by block. Bit-identical on every
/// path and thread count: each amplitude sees the same gate sequence and
/// the copies are exact. `gates` are indices into `c`; `part_qubits` must
/// be strictly ascending and hold the working set of those gates; extra
/// qubits widen the inner vector (a padded part), so there are fewer
/// cosets and longer contiguous runs. dist::execute_plan runs every
/// level-2 part through it with the plan's padded slot list: on the
/// hierarchical target's one rank, and on each shard of the distributed
/// targets. Called from inside a pool region, it runs inline with one
/// inner vector.
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
