#pragma once

#include "circuit/circuit.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Reference flat simulator: applies every gate directly to the full state
/// vector (no partitioning), one pass per gate through apply_gate. Ground
/// truth for all correctness tests, the blocked runs of apply_gates
/// included, and the non-hierarchical arm of the Table II comparison.
class FlatSimulator {
 public:
  /// Applies all gates of `c` to `state` (sizes must match). `ops`
  /// selects the kernel tier (nullptr = the Auto-resolved default).
  void run(const Circuit& c, StateVector& state,
           const KernelOps* ops = nullptr) const;

  /// Convenience: simulate from |0..0>.
  StateVector simulate(const Circuit& c) const;
};

}  // namespace hisim::sv
