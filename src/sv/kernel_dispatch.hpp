#pragma once

#include <span>
#include <string>

#include "common/types.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Which apply-kernel implementation backs sv::apply_gate.
///
///  * Scalar — portable std::complex loops, compiled for the baseline ISA.
///  * Simd   — AVX2 split-accumulate kernels (two complex doubles per
///             256-bit vector). Only selectable when the binary was built
///             with the AVX2 translation unit *and* the running CPU
///             reports AVX2 (checked once via CPUID at first use).
///  * Auto   — Simd when available, Scalar otherwise. The default.
///
/// Every tier computes bit-identical results for permutation and diagonal
/// gates and results within strict rounding equivalence (identical
/// operation order, no FMA contraction) for dense kernels — so Auto is
/// always safe and `--kernel=scalar` exists for A/B debugging, not
/// correctness.
enum class KernelTier { Auto, Scalar, Simd };

/// Parses "auto" | "scalar" | "simd" (throws hisim::Error otherwise).
KernelTier parse_kernel_tier(const std::string& name);

/// Lower-case tier name ("auto" only before resolution; resolved ops
/// tables always report "scalar" or "simd").
const char* kernel_tier_name(KernelTier tier);

/// Vectorizable kernel entry points. One immutable table per tier; the
/// dispatcher in kernels.cpp routes each GateKind to an entry (or to a
/// tier-invariant permutation/generic path that needs no table).
///
/// Conventions shared by all entries:
///  * `s` is any power-of-two span of amplitudes, bit q of an offset into
///    it being qubit q: a whole state, or one block of it (apply_gates).
///    Entries read only its data() and size().
///  * matrices are row-major spans of cplx (4 entries for 2x2, 16 for 4x4)
///  * `sorted_bits` lists *all* participating bit positions (controls +
///    target) in ascending order — the compact-enumeration primitive walks
///    `size >> sorted_bits.size()` bases and re-inserts zeros at those
///    positions, so only control-satisfied amplitudes are ever touched
///  * `cmask` is the OR of the control bits (already satisfied in every
///    enumerated base index)
struct KernelOps {
  KernelTier tier;
  const char* name;

  /// Dense 2x2 on qubit q: |size|/2 pair updates.
  void (*apply_1q)(std::span<cplx> s, Qubit q, const cplx* u2x2);

  /// Diagonal 2x2 on qubit q: amplitudes with bit q clear scale by d0, set
  /// by d1. Entries equal to exactly 1.0 are skipped (not multiplied) so
  /// S/T/P touch only half the state.
  void (*apply_1q_diag)(std::span<cplx> s, Qubit q, cplx d0, cplx d1);

  /// Controlled dense 2x2: compact enumeration over
  /// size >> (1 + num_controls) pairs.
  void (*apply_ctrl_1q)(std::span<cplx> s,
                        std::span<const Qubit> sorted_bits, Index cmask,
                        Qubit target, const cplx* u2x2);

  /// Controlled diagonal 2x2 (CZ/CRZ/CP): compact enumeration, exact-1.0
  /// entries skipped. `sorted_bits` holds at least one control besides
  /// `target` (the simd tier's bit-0 path walks the other bits).
  void (*apply_ctrl_diag)(std::span<cplx> s,
                          std::span<const Qubit> sorted_bits, Index cmask,
                          Qubit target, cplx d0, cplx d1);

  /// General k-qubit diagonal: amplitude i scales by phases[code(i)] where
  /// code gathers the bits of i at qs. Exact-1.0 phases skipped.
  void (*apply_diag)(std::span<cplx> s, std::span<const Qubit> qs,
                     std::span<const cplx> phases);

  /// Dense 4x4 on (qa, qb), local bit 0 = qa, bit 1 = qb. Fully unrolled —
  /// no per-block gather/scatter buffers. Target of RXX and raw 2-qubit
  /// unitaries.
  void (*apply_2q)(std::span<cplx> s, Qubit qa, Qubit qb, const cplx* u4x4);
};

/// The scalar tier (always available).
const KernelOps& scalar_kernel_ops();

/// True when the binary contains the AVX2 kernels *and* this CPU supports
/// AVX2. Evaluated once (CPUID) and cached.
bool simd_kernels_available();

/// Resolves a tier to its ops table.
///  * Scalar → scalar table.
///  * Simd   → AVX2 table; throws hisim::Error when unavailable (so
///             `--kernel=simd` fails loudly instead of silently degrading).
///  * Auto   → the HISIM_KERNEL environment override when set
///             ("scalar" | "simd" | "auto"), else Simd-if-available.
const KernelOps& kernel_ops(KernelTier tier = KernelTier::Auto);

}  // namespace hisim::sv
