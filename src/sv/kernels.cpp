#include "sv/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"

// for_each_run, under this TU's own namespace (see kernels_scalar.inl).
#define HISIM_KERNEL_NS perm_impl
#include "sv/kernels_scalar.inl"
#undef HISIM_KERNEL_NS

namespace hisim::sv {
namespace {

std::vector<Qubit> sorted_qubits(const std::vector<Qubit>& qs) {
  std::vector<Qubit> sorted(qs);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// ---- permutation kernels ---------------------------------------------------
// Pure index moves: no arithmetic, so no per-tier variants — every tier is
// bit-identical here by construction.

/// Swaps two amplitudes as 16-byte blocks: one load and one store each,
/// where std::swap on std::complex moves each double on its own.
void swap_amp(cplx* x, cplx* y) {
  unsigned char t[sizeof(cplx)];
  std::memcpy(t, x, sizeof t);
  std::memcpy(x, y, sizeof t);
  std::memcpy(y, t, sizeof t);
}

/// Every permutation kind swaps amplitude i|da with i|db over the bases i
/// of the compact enumeration over `sorted_bits` with the controls
/// (`cmask`) set: X and CX/CCX/MCX swap target halves (da = 0, db = the
/// target bit), SWAP and CSWAP the (1,0)/(0,1) amplitudes (da, db = the
/// two swapped bits). Bases come in runs of 2^b contiguous amplitudes, b
/// the gate's lowest qubit, so each run swaps two contiguous ranges.
void swap_runs(StateVector& s, std::span<const Qubit> sorted_bits,
               Index cmask, Index da, Index db) {
  cplx* a = s.data();
  parallel::for_range(
      0, s.size() >> sorted_bits.size(), [&](Index lo, Index hi) {
        perm_impl::for_each_run(
            lo, hi, sorted_bits, cmask, [a, da, db](Index i, Index len) {
              cplx* p = a + (i | da);
              cplx* q = a + (i | db);
              for (Index k = 0; k < len; ++k) swap_amp(p + k, q + k);
            });
      });
}

// ---- generic k-qubit dense kernel ------------------------------------------
// Gather/scatter through per-chunk buffers; shared by every tier (the
// k >= 3 dense case is rare after fusion caps runs at 2-3 qubits).

void apply_generic(StateVector& s, const std::vector<Qubit>& qs,
                   const Matrix& u) {
  const unsigned k = static_cast<unsigned>(qs.size());
  HISIM_CHECK_MSG(k <= 16, "generic kernel limited to 16-qubit gates");
  const Index kdim = Index{1} << k;
  Index mask = 0;
  for (Qubit q : qs) mask |= Index{1} << q;
  // offset[t]: contribution of local pattern t to the global index.
  std::vector<Index> offset(kdim);
  for (Index t = 0; t < kdim; ++t) {
    Index off = 0;
    for (unsigned j = 0; j < k; ++j)
      if (bits::test(t, j)) off |= Index{1} << qs[j];
    offset[t] = off;
  }
  const Index outer = s.size() >> k;
  const Index inv = ~mask & (s.size() - 1);
  cplx* a = s.data();
  parallel::for_range(
      0, outer,
      [&](Index lo, Index hi) {
        std::vector<cplx> in(kdim), out(kdim);
        for (Index m = lo; m < hi; ++m) {
          const Index base = bits::deposit(m, inv);
          for (Index t = 0; t < kdim; ++t) in[t] = a[base | offset[t]];
          for (Index r = 0; r < kdim; ++r) {
            cplx acc = 0.0;
            for (Index t = 0; t < kdim; ++t) acc += u(r, t) * in[t];
            out[r] = acc;
          }
          for (Index t = 0; t < kdim; ++t) a[base | offset[t]] = out[t];
        }
      },
      /*grain=*/Index{1} << std::max(0, 12 - static_cast<int>(k)));
}

/// Diagonal phase table for the diagonal kinds.
std::vector<cplx> diagonal_phases(const Gate& g) {
  const Matrix m = g.matrix();
  std::vector<cplx> ph(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) ph[i] = m(i, i);
  return ph;
}

void apply_gate_on(StateVector& state, const Gate& g,
                   const std::vector<Qubit>& qs, const KernelOps& ops) {
  for (Qubit q : qs) HISIM_CHECK(q < state.num_qubits());
  // Per-apply twin of the plan-level tier check (plan_validate.cpp): a
  // Simd table must never reach dispatch on a host that cannot run it.
  HISIM_DCHECK_MSG(ops.tier != KernelTier::Simd || simd_kernels_available(),
                   "simd kernel table dispatched on a host without AVX2");
  // Exact identities: the id gate and an unfilled noise slot. Skipping
  // them (rather than sweeping a diagonal of ones) keeps instrumented
  // plans bit-identical to — and as fast as — their ideal circuits when
  // no trajectory operator is substituted.
  if (g.kind == GateKind::I || g.kind == GateKind::NoiseSlot) return;
  // Pure permutations first: never touch the ops table (and MCX skips
  // matrix materialization entirely, so wide controls carry no 2^k cost).
  switch (g.kind) {
    case GateKind::X: case GateKind::CX: case GateKind::CCX:
    case GateKind::MCX: {  // controls first, target last
      Index cmask = 0;
      for (unsigned i = 0; i + 1 < qs.size(); ++i) cmask |= Index{1} << qs[i];
      swap_runs(state, sorted_qubits(qs), cmask, 0, Index{1} << qs.back());
      return;
    }
    case GateKind::SWAP: case GateKind::CSWAP: {  // control, then the pair
      const std::size_t k = qs.size();
      if (qs[k - 2] == qs[k - 1]) return;
      const Index cmask = k == 3 ? Index{1} << qs[0] : 0;
      swap_runs(state, sorted_qubits(qs), cmask, Index{1} << qs[k - 2],
                Index{1} << qs[k - 1]);
      return;
    }
    default:
      break;
  }
  if (g.is_diagonal()) {
    const unsigned nc = g.num_controls();
    if (nc > 0) {  // CZ / CRZ / CP
      const Matrix t = g.target_matrix();
      const std::vector<Qubit> sorted = sorted_qubits(qs);
      Index cmask = 0;
      for (unsigned i = 0; i < nc; ++i) cmask |= Index{1} << qs[i];
      ops.apply_ctrl_diag(state, sorted, cmask, qs.back(), t(0, 0), t(1, 1));
    } else if (g.arity() == 1) {
      const Matrix m = g.matrix();
      ops.apply_1q_diag(state, qs[0], m(0, 0), m(1, 1));
    } else {  // RZZ
      ops.apply_diag(state, qs, diagonal_phases(g));
    }
    return;
  }
  if (g.arity() == 2 && g.num_controls() == 0) {  // RXX, raw 2q unitaries
    const Matrix m = g.matrix();
    ops.apply_2q(state, qs[0], qs[1], m.data().data());
    return;
  }
  if (g.kind == GateKind::Unitary) {
    if (g.arity() == 1) {  // raw 1q operators (incl. sampled Kraus ops)
      const Matrix m = g.matrix();
      ops.apply_1q(state, qs[0], m.data().data());
    } else {
      apply_generic(state, qs, g.matrix());
    }
    return;
  }
  const unsigned nc = g.num_controls();
  if (nc == 0) {
    const Matrix m = g.target_matrix();
    ops.apply_1q(state, qs[0], m.data().data());
  } else {
    const Matrix m = g.target_matrix();
    const std::vector<Qubit> sorted = sorted_qubits(qs);
    Index cmask = 0;
    for (unsigned i = 0; i < nc; ++i) cmask |= Index{1} << qs[i];
    ops.apply_ctrl_1q(state, sorted, cmask, qs.back(), m.data().data());
  }
}

}  // namespace

void apply_gate(StateVector& state, const Gate& gate, const KernelOps& ops) {
  apply_gate_on(state, gate, gate.qubits, ops);
}

void apply_gate_remapped(StateVector& state, const Gate& gate,
                         std::span<const Qubit> slot_of,
                         const KernelOps& ops) {
  std::vector<Qubit> qs(gate.qubits.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    HISIM_CHECK(gate.qubits[i] < slot_of.size());
    qs[i] = slot_of[gate.qubits[i]];
  }
  apply_gate_on(state, gate, qs, ops);
}

double gate_flops(const Gate& gate, unsigned num_qubits) {
  if (gate.kind == GateKind::I || gate.kind == GateKind::NoiseSlot)
    return 0.0;  // applied as exact no-ops by the kernels
  switch (gate.kind) {
    // Pure index permutations: amplitudes move, nothing is computed.
    case GateKind::X: case GateKind::CX: case GateKind::CCX:
    case GateKind::MCX: case GateKind::SWAP: case GateKind::CSWAP:
      return 0.0;
    default:
      break;
  }
  const double amps = static_cast<double>(dim(num_qubits));
  if (gate.is_diagonal()) {
    // One complex multiply (6 FLOPs) per touched amplitude; controls cut
    // the touched count by 2^nc (compact enumeration).
    const unsigned nc = gate.num_controls();
    return 6.0 * amps / static_cast<double>(Index{1} << nc);
  }
  const unsigned nc = gate.num_controls();
  if (nc > 0 || gate.arity() == 1) {
    // One 2x2 matrix-vector multiply = 28 FLOPs (paper Sec. III-A);
    // controls reduce the enumerated pair count by 2^nc.
    return 28.0 * (amps / 2.0) / static_cast<double>(Index{1} << nc);
  }
  if (gate.arity() == 2) {
    // Unrolled 4x4 kernel: 16 complex multiplies (6) + 12 complex adds
    // (2) = 120 FLOPs per 4-amplitude block (fused 2q runs, RXX).
    return 120.0 * (amps / 4.0);
  }
  // k-qubit dense: 2^k x 2^k matvec per block: 8*2^k*2^k - 2*2^k FLOPs.
  const unsigned k = gate.arity();
  const double kd = static_cast<double>(Index{1} << k);
  return (amps / kd) * (8.0 * kd * kd - 2.0 * kd);
}

}  // namespace hisim::sv
