#pragma once

#include <span>

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
///  * 2-qubit dense       — the tier's unrolled 4x4 kernel (RXX, raw 2q
///    unitaries)
///  * generic k-qubit     — gather 2^k amplitudes, multiply, scatter
/// `ops` selects the kernel tier (see kernel_dispatch.hpp); the default
/// resolves KernelTier::Auto once. All kernels parallelize over amplitude
/// blocks via parallel::for_range.
void apply_gate(StateVector& state, const Gate& gate,
                const KernelOps& ops = kernel_ops());

/// Applies `gates` to `state` in order, with the bits apply_gate() gives
/// one gate at a time, in fewer passes over a state larger than the
/// cache. The state is cut into contiguous blocks of 2^kCacheQubits
/// amplitudes (1 MiB). Every maximal run of two or more block-local gates
/// is applied block by block, one pool task per block (inline inside a
/// pool region): all of the run's gates act on a block before the next
/// block is read. Gates outside runs are applied by apply_gate().
///  * Block-local: every qubit the gate moves amplitudes along (a target,
///    a swapped pair, a dense gate's qubits) is below kCacheQubits.
///    Controls and the qubits of diagonal gates may lie anywhere; inside a
///    block a qubit at or above kCacheQubits is fixed by the block's
///    index. A control whose bit is 0 skips the gate, one whose bit is 1
///    drops out, and a diagonal qubit selects the phases.
///  * ZZ triple: cx(a, b) · D(b) · cx(a, b), with D a concrete one-qubit
///    diagonal (not I or an unfilled noise slot) and the two cx gates
///    identical, counts as one block-local diagonal that multiplies each
///    amplitude by D's phase for bit a XOR bit b, wherever a and b lie.
///    It is the ZZ term of QAOA and Ising cost layers.
///  * Bit-identity: every amplitude gets the same multiplications in the
///    same order as under apply_gate() gate by gate, exact-1.0 phases
///    skipped as there, on either tier and at any thread count.
/// States of kCacheQubits qubits or fewer take the plain gate-by-gate
/// loop.
void apply_gates(StateVector& state, std::span<const Gate> gates,
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
