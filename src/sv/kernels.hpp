#pragma once

#include "circuit/gate.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Applies `gate` to `state` in place. Dispatches per GateKind:
///  * X / CX / CCX / MCX / SWAP / CSWAP — pure index permutations: no
///    arithmetic at all, compact enumeration of only the touched subset
///    (size/2^(nc+1) pairs, size/4 for SWAP, size/8 for CSWAP)
///  * diagonal gates      — phase sweeps through the tier's diagonal
///    kernels (1q / controlled / general), exact-1.0 phases skipped
///  * single-qubit dense  — the tier's 2x2 pair kernel (Fig. 1 pattern)
///  * controlled 2x2      — compact enumeration over control-satisfied
///    pair bases only (size >> (1+nc))
///  * 2-qubit dense       — the tier's unrolled 4x4 kernel (fused blocks,
///    RXX, raw 2q unitaries)
///  * generic k-qubit     — gather 2^k amplitudes, multiply, scatter
/// `ops` selects the kernel tier (see kernel_dispatch.hpp); the default
/// resolves KernelTier::Auto once. All kernels parallelize over amplitude
/// blocks via parallel::for_range.
void apply_gate(StateVector& state, const Gate& gate,
                const KernelOps& ops = kernel_ops());

/// Counts the floating-point work of one gate application on an n-qubit
/// state, matching what the kernels above actually execute:
///  * permutation kinds (X/CX/CCX/MCX/SWAP/CSWAP) move amplitudes without
///    arithmetic — 0 FLOPs;
///  * diagonal gates: one complex multiply (6 FLOPs) per touched
///    amplitude, controls dividing the touched count by 2^nc;
///  * dense 2x2: 28 FLOPs per enumerated pair (paper Sec. III-A), pairs
///    divided by 2^nc for controlled kinds;
///  * dense 2-qubit blocks: 120 FLOPs per 4-amplitude block (the unrolled
///    4x4 kernel: 16 complex multiplies + 12 adds);
///  * generic k-qubit: 8*2^k*2^k - 2*2^k per block.
/// Used by the traffic/efficiency models.
double gate_flops(const Gate& gate, unsigned num_qubits);

}  // namespace hisim::sv
