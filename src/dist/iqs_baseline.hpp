#pragma once

#include <map>
#include <string>

#include "circuit/circuit.hpp"
#include "dist/dist_state.hpp"
#include "sv/kernel_dispatch.hpp"

namespace hisim::dist {

/// Intel-QS-style distributed baseline (the paper's Fig. 7/8 comparison
/// arm): the amplitude layout is *fixed* to the identity — qubit q at slot
/// q, the top p qubits selecting the rank — for the whole run, and every
/// gate is classified per the standard scheme:
///  * all operands local                    -> rank-local apply, free
///  * diagonal (any operands)               -> per-rank phase sweep, free
///  * global controls, local mixing qubits  -> conditional local apply, free
///  * a *mixing* operand on a process qubit -> pairwise halves exchange
///    between the 2^|G| ranks differing in those bits, one event per gate
/// Deep circuits that repeatedly target a process qubit therefore pay one
/// exchange per gate, which is exactly the traffic HiSVSIM's one
/// redistribution per part amortizes away.
class IqsBaselineSimulator {
 public:
  /// Runs `c` on `state`, which must carry the identity layout (throws
  /// otherwise — this baseline never relayouts). The layout is unchanged
  /// on return. Pass the same `net` given to dist::execute_plan when
  /// comparing the two on a non-default interconnect. Ranks and pairwise
  /// exchange groups run one after another on the calling thread; each
  /// gate's kernels use the pool. `kernels` selects the apply-kernel tier
  /// (nullptr = the Auto-resolved default).
  ///
  /// Writes into `metrics` (nullptr records nothing) the keys
  /// dist::execute_plan uses for the same quantities: apply.seconds.sum
  /// (every gate's compute, exchange groups included), exchange.count,
  /// exchange.bytes, exchange.messages, exchange.modeled_seconds.sum
  /// (slowest-host cost summed over exchanges) and
  /// exchange.modeled_avg_seconds.
  void run(const Circuit& c, DistState& state, const NetworkModel& net = {},
           std::map<std::string, double>* metrics = nullptr,
           const sv::KernelOps* kernels = nullptr) const;
};

}  // namespace hisim::dist
