#include "sv/kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
void swap_runs(std::span<cplx> s, std::span<const Qubit> sorted_bits,
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
// Gather/scatter through per-chunk buffers; shared by every tier. Only
// dense Unitary-kind gates (Gate::unitary, Gate::kraus) of three or more
// qubits reach it.

void apply_generic(std::span<cplx> s, std::span<const Qubit> qs,
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

// ---- gates on blocks -------------------------------------------------------

/// Up to 64 qubits, stored inline: resolving a gate allocates nothing but
/// its matrix, which keeps the per-call cost of narrow applies down.
struct QubitList {
  std::array<Qubit, 64> q{};
  std::size_t size = 0;

  void push_back(Qubit x) { q[size++] = x; }
  Qubit back() const { return q[size - 1]; }
  Qubit operator[](std::size_t i) const { return q[i]; }
  std::span<const Qubit> view() const { return {q.data(), size}; }
  void sort() { std::sort(q.begin(), q.begin() + size); }
};

/// A gate as one kernel call on a block of 2^w amplitudes whose qubits at
/// or above w are fixed by the block's position in the state; the whole
/// state is one block with w = n. resolve() builds it once per gate (the
/// matrix, the phases and the bit lists); apply_block() runs it on every
/// block. Every kernel the dispatch picks performs, per amplitude, the
/// multiplications of the full-width call in the same order, so blocks and
/// whole states get the same bits.
struct BlockGate {
  enum class Kernel { None, Swap, Dense, Dense2, Generic, Phase };
  Kernel kernel = Kernel::None;
  /// Controls at or above w: blocks without all of them set skip the gate.
  Index need = 0;
  /// Controls below w.
  Index cmask = 0;
  /// The controls below w plus the walked qubits below w (Swap: the moved
  /// pair or target; Dense: the target; Phase: the core), ascending.
  QubitList bits;
  /// Swap: amplitude i|da trades places with i|db.
  Index da = 0, db = 0;
  /// The gate's qubits after its controls. Dense: the target; Dense2 and
  /// Generic: every qubit; Phase: the core, the one or two qubits whose
  /// bits index the phases in `u`.
  QubitList qs;
  /// Dense: the 2x2 and Dense2 the 4x4 matrix, row-major. Phase: one
  /// phase per core code, bit j of the code being core qubit j.
  std::array<cplx, 16> u{};
  Matrix m;  // Generic
};

/// Adds `controls` to `r`: those at or above w to `need`, the others to
/// `cmask` and `bits`.
void add_controls(BlockGate& r, std::span<const Qubit> controls, unsigned w) {
  for (Qubit c : controls) {
    if (c >= w) {
      r.need |= Index{1} << c;
    } else {
      r.cmask |= Index{1} << c;
      r.bits.push_back(c);
    }
  }
}

/// Fills in `r` for `g` on blocks of 2^w amplitudes (every moved qubit
/// of `g` must be below w), `bits` still unsorted, and returns the kernel
/// to call.
BlockGate::Kernel fill(BlockGate& r, const Gate& g, unsigned w) {
  const std::vector<Qubit>& qs = g.qubits;
  const std::size_t k = qs.size();
  switch (g.kind) {
    // Exact identities: the id gate and an unfilled noise slot. Skipping
    // them (rather than sweeping a diagonal of ones) keeps instrumented
    // plans bit-identical to — and as fast as — their ideal circuits when
    // no trajectory operator is substituted.
    case GateKind::I: case GateKind::NoiseSlot:
      return BlockGate::Kernel::None;
    // Pure permutations: never touch the ops table (and MCX skips matrix
    // materialization entirely, so wide controls carry no 2^k cost).
    case GateKind::X: case GateKind::CX: case GateKind::CCX:
    case GateKind::MCX:  // controls first, target last
      add_controls(r, std::span(qs).first(k - 1), w);
      r.bits.push_back(qs.back());
      r.db = Index{1} << qs.back();
      return BlockGate::Kernel::Swap;
    case GateKind::SWAP: case GateKind::CSWAP:  // control, then the pair
      if (qs[k - 2] == qs[k - 1]) return BlockGate::Kernel::None;
      add_controls(r, std::span(qs).first(k - 2), w);
      r.bits.push_back(qs[k - 2]);
      r.bits.push_back(qs[k - 1]);
      r.da = Index{1} << qs[k - 2];
      r.db = Index{1} << qs[k - 1];
      return BlockGate::Kernel::Swap;
    default:
      break;
  }
  const unsigned nc = g.num_controls();
  add_controls(r, std::span(qs).first(nc), w);
  for (std::size_t j = nc; j < k; ++j) r.qs.push_back(qs[j]);
  if (g.is_diagonal()) {  // 1q phases, CZ / CRZ / CP, RZZ
    const Matrix d = nc > 0 ? g.target_matrix() : g.matrix();
    for (std::size_t i = 0; i < d.rows(); ++i) r.u[i] = d(i, i);
    for (Qubit q : r.qs.view())
      if (q < w) r.bits.push_back(q);
    return BlockGate::Kernel::Phase;
  }
  if (k == 2 && nc == 0) {  // RXX, raw 2q unitaries
    const Matrix m = g.matrix();
    std::copy(m.data().begin(), m.data().end(), r.u.begin());
    return BlockGate::Kernel::Dense2;
  }
  if (g.kind == GateKind::Unitary && k > 2) {
    r.m = g.matrix();
    return BlockGate::Kernel::Generic;
  }
  // 2x2 on the target: 1q kinds, raw 1q operators (incl. sampled Kraus
  // ops) and the controlled kinds.
  r.bits.push_back(qs.back());
  const Matrix m = g.kind == GateKind::Unitary ? g.matrix() : g.target_matrix();
  std::copy(m.data().begin(), m.data().end(), r.u.begin());
  return BlockGate::Kernel::Dense;
}

BlockGate resolve(const Gate& g, unsigned w) {
  BlockGate r;
  r.kernel = fill(r, g, w);
  r.bits.sort();
  return r;
}

/// A Phase gate on the block at `base`: the core qubits at or above w
/// pick the block's phases out of `u`, and the kernel walks the rest.
void apply_phase(const BlockGate& r, std::span<cplx> s, Index base,
                 unsigned w, const KernelOps& ops) {
  std::size_t fixed = 0, free_bit = 0;
  Qubit free_q = 0;
  unsigned num_free = 0;
  for (std::size_t j = 0; j < r.qs.size; ++j) {
    if (r.qs[j] >= w) {
      fixed |= std::size_t{bits::test(base, r.qs[j])} << j;
    } else {
      free_q = r.qs[j];
      free_bit = std::size_t{1} << j;
      ++num_free;
    }
  }
  if (num_free == 2) {  // RZZ or a ZZ triple with both qubits below w
    ops.apply_diag(s, r.qs.view(), std::span(r.u).first(4));
    return;
  }
  if (num_free == 1) {
    const cplx d0 = r.u[fixed], d1 = r.u[fixed | free_bit];
    if (r.cmask == 0)
      ops.apply_1q_diag(s, free_q, d0, d1);
    else
      ops.apply_ctrl_diag(s, r.bits.view(), r.cmask, free_q, d0, d1);
    return;
  }
  // Every core qubit is fixed: one phase for the amplitudes whose
  // controls below w are set, with the highest such control as a target
  // whose 0 side keeps an exact 1 (the controlled kernel needs a control
  // besides its target).
  const cplx d = r.u[fixed];
  const cplx one{1.0, 0.0};
  if (r.bits.size == 0) {
    ops.apply_1q_diag(s, w - 1, d, d);
  } else if (r.bits.size == 1) {
    ops.apply_1q_diag(s, r.bits[0], one, d);
  } else {
    const Qubit t = r.bits.back();
    ops.apply_ctrl_diag(s, r.bits.view(), r.cmask & ~(Index{1} << t), t, one,
                        d);
  }
}

/// Applies `r` to the block `s` of 2^w amplitudes whose first amplitude
/// has index `base` in the state.
void apply_block(const BlockGate& r, std::span<cplx> s, Index base,
                 unsigned w, const KernelOps& ops) {
  if ((base & r.need) != r.need) return;
  switch (r.kernel) {
    case BlockGate::Kernel::None:
      return;
    case BlockGate::Kernel::Swap:
      swap_runs(s, r.bits.view(), r.cmask, r.da, r.db);
      return;
    case BlockGate::Kernel::Dense:
      if (r.cmask == 0)
        ops.apply_1q(s, r.qs[0], r.u.data());
      else
        ops.apply_ctrl_1q(s, r.bits.view(), r.cmask, r.qs[0], r.u.data());
      return;
    case BlockGate::Kernel::Dense2:
      ops.apply_2q(s, r.qs[0], r.qs[1], r.u.data());
      return;
    case BlockGate::Kernel::Generic:
      apply_generic(s, r.qs.view(), r.m);
      return;
    case BlockGate::Kernel::Phase:
      apply_phase(r, s, base, w, ops);
      return;
  }
}

/// True when gates[i..i+2] is cx(a, b) · D(b) · cx(a, b), D a concrete
/// one-qubit diagonal other than I or an unfilled noise slot: the ZZ idiom
/// of QAOA and Ising cost layers. It multiplies amplitude i by D's phase
/// for bit a XOR bit b of i.
bool is_zz_triple(std::span<const Gate> gates, std::size_t i) {
  if (i + 2 >= gates.size()) return false;
  const Gate& cx = gates[i];
  const Gate& d = gates[i + 1];
  return cx.kind == GateKind::CX && gates[i + 2].kind == GateKind::CX &&
         gates[i + 2].qubits == cx.qubits && d.arity() == 1 &&
         d.qubits[0] == cx.qubits[1] && d.is_diagonal() &&
         d.kind != GateKind::I && d.kind != GateKind::NoiseSlot &&
         !d.is_parametric();
}

/// The triple at gates[i] as one Phase gate on the core (a, b), which is
/// block-local wherever a and b lie.
BlockGate resolve_zz(std::span<const Gate> gates, std::size_t i) {
  const Matrix d = gates[i + 1].matrix();
  BlockGate r;
  r.kernel = BlockGate::Kernel::Phase;
  r.qs.push_back(gates[i].qubits[0]);
  r.qs.push_back(gates[i].qubits[1]);
  r.u = {d(0, 0), d(1, 1), d(1, 1), d(0, 0)};  // code bit 0 = a, bit 1 = b
  return r;
}

// ---- relayout --------------------------------------------------------------

/// One in-place pass of an involution of index bits: bit s of every index
/// goes to bit inv[s] (inv[inv[s]] == s), so amplitudes i and inv(i)
/// trade places. Bits below the lowest one inv moves pass through, so the
/// trades move runs of 2^r contiguous amplitudes, the run with the lower
/// index moving both. Returns the number of amplitudes moved.
Index swap_bit_pairs(std::span<cplx> s, std::span<const Qubit> inv) {
  // The pairs (b, inv[b]), b < inv[b], as masks of both bits, the pair of
  // the lowest moved bit r last.
  std::array<Index, 32> pairs{};
  std::size_t k = 0;
  for (Qubit b = static_cast<Qubit>(inv.size()); b-- > 0;)
    if (inv[b] > b) pairs[k++] = (Index{1} << b) | (Index{1} << inv[b]);
  if (k == 0) return 0;
  const unsigned r = static_cast<unsigned>(std::countr_zero(pairs[k - 1]));
  const Index len = Index{1} << r;
  cplx* a = s.data();
  parallel::for_range(
      0, s.size() >> r,
      [&](Index lo, Index hi) {
        for (Index m = lo; m < hi; ++m) {
          const Index i = m << r;
          Index j = i;
          for (std::size_t t = 0; t < k; ++t) {
            const Index bits = i & pairs[t];
            if (bits != 0 && bits != pairs[t]) j ^= pairs[t];
          }
          if (i < j)
            for (Index x = 0; x < len; ++x) swap_amp(a + i + x, a + j + x);
        }
      },
      std::max(Index{1}, parallel::kDefaultGrain >> r));
  // An index stays where every pair holds equal bits.
  return s.size() - (s.size() >> k);
}

void check_operands(const Gate& g, unsigned n, const KernelOps& ops) {
  HISIM_CHECK(g.arity() <= 64);
  for (Qubit q : g.qubits) HISIM_CHECK(q < n);
  // Per-apply twin of the plan-level tier check (plan_validate.cpp): a
  // Simd table must never reach dispatch on a host that cannot run it.
  HISIM_DCHECK_MSG(ops.tier != KernelTier::Simd || simd_kernels_available(),
                   "simd kernel table dispatched on a host without AVX2");
}

}  // namespace

void apply_gate(StateVector& state, const Gate& g, const KernelOps& ops) {
  const unsigned n = state.num_qubits();
  check_operands(g, n, ops);
  apply_block(resolve(g, n), {state.data(), state.size()}, 0, n, ops);
}

void apply_gates(StateVector& state, std::span<const Gate> gates,
                 const KernelOps& ops) {
  const unsigned n = state.num_qubits();
  if (n <= kCacheQubits) {
    for (const Gate& g : gates) apply_gate(state, g, ops);
    return;
  }
  for (const Gate& g : gates) check_operands(g, n, ops);
  constexpr unsigned w = kCacheQubits;
  // Gates one item of a run covers: 3 for a ZZ triple, 1 for another
  // block-local gate, 0 when the gate at i is not block-local.
  const auto item = [&](std::size_t i) -> std::size_t {
    if (is_zz_triple(gates, i)) return 3;
    return i < gates.size() &&
                   std::ranges::all_of(gates[i].moved_qubits(),
                                       [](Qubit q) { return q < w; })
               ? 1
               : 0;
  };
  std::vector<BlockGate> run;
  std::size_t i = 0;
  while (i < gates.size()) {
    std::size_t end = i;
    while (const std::size_t len = item(end)) end += len;
    if (end - i < 2) {  // no run: one pass either way
      apply_gate(state, gates[i], ops);
      ++i;
      continue;
    }
    run.clear();
    for (std::size_t j = i; j < end;) {
      if (is_zz_triple(gates, j)) {
        run.push_back(resolve_zz(gates, j));
        j += 3;
      } else {
        run.push_back(resolve(gates[j++], w));
      }
    }
    cplx* a = state.data();
    parallel::for_range(
        0, state.size() >> w,
        [&](Index lo, Index hi) {
          for (Index b = lo; b < hi; ++b) {
            const std::span<cplx> block(a + (b << w), Index{1} << w);
            for (const BlockGate& r : run)
              apply_block(r, block, b << w, w, ops);
          }
        },
        /*grain=*/1);
    i = end;
  }
}

Index permute_qubits(StateVector& state, std::span<const Qubit> to) {
  const unsigned n = state.num_qubits();
  HISIM_CHECK(to.size() == n);
  // Each cycle c_0 -> c_1 -> ... -> c_{m-1} of `to` (c_{i+1} = to[c_i],
  // indices mod m) is the reflection c_i -> c_{-i} followed by the
  // reflection c_i -> c_{1-i}; a 2-cycle needs only the second.
  std::vector<Qubit> first(n), second(n), cycle;
  std::vector<bool> seen(n, false);
  for (Qubit s = 0; s < n; ++s) {
    if (seen[s]) continue;
    cycle.clear();
    for (Qubit c = s; cycle.empty() || c != s; c = to[c]) {
      HISIM_CHECK_MSG(c < n && !seen[c], "slot map is not a permutation");
      seen[c] = true;
      cycle.push_back(c);
    }
    const std::size_t m = cycle.size();
    for (std::size_t i = 0; i < m; ++i) {
      first[cycle[i]] = cycle[(m - i) % m];
      second[cycle[i]] = cycle[(m + 1 - i) % m];
    }
  }
  const std::span<cplx> s(state.data(), state.size());
  return swap_bit_pairs(s, first) + swap_bit_pairs(s, second);
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
    // (2) = 120 FLOPs per 4-amplitude block (RXX, raw 2q unitaries).
    return 120.0 * (amps / 4.0);
  }
  // k-qubit dense: 2^k x 2^k matvec per block: 8*2^k*2^k - 2*2^k FLOPs.
  const unsigned k = gate.arity();
  const double kd = static_cast<double>(Index{1} << k);
  return (amps / kd) * (8.0 * kd * kd - 2.0 * kd);
}

}  // namespace hisim::sv
