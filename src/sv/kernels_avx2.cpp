// AVX2 kernel tier. Interleaved std::complex<double> layout, two complex
// amplitudes per 256-bit vector, split-accumulate complex multiply
// (mul / mul / addsub — no FMA), compiled with -mavx2 -ffp-contract=off
// via per-TU CMake source properties. Nothing else in the binary is built
// with AVX2 flags; this table is only reachable after the CPUID check in
// kernel_dispatch.cpp, so the binary stays runnable on pre-AVX2 hosts.
//
// Determinism: every vector recipe below performs, per amplitude, exactly
// the operation sequence of the canonical scalar bodies in
// kernels_scalar.inl (see the contract comment there). The same bodies
// are instantiated in this TU (namespace avx2_fb) and used verbatim for
// what vectors cannot reach: single-amplitude runs and remainders, and
// the 4x4 kernel at gate bit 0.
//
// Position independence: the cost per amplitude should not depend much
// on which qubits a gate touches, since a step's gates may sit on any
// slot, the lowest included. Dense and diagonal 1q gates on qubits 1-3
// walk whole 2^(q+1)-amplitude blocks (for_each_block). The controlled
// kernels, and 1q gates on qubits >= 4 as controlled gates without
// controls, step from run to run with avx2_fb::for_each_run at every
// lowest gate bit. At bit 0, where runs are single amplitudes, the
// controlled and the general diagonal instead walk runs of two-amplitude
// vectors and scale them per lane (ctrl_diag_bit0, diag_bit0).

#include "sv/kernel_dispatch.hpp"

#if defined(HISIM_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>

#include "common/bits.hpp"
#include "common/parallel.hpp"

#define HISIM_KERNEL_NS avx2_fb
#include "sv/kernels_scalar.inl"
#undef HISIM_KERNEL_NS

namespace hisim::sv {
namespace {

namespace fb = avx2_fb;

/// Element-wise complex constant, duplicated real/imag parts.
struct CVec {
  __m256d re, im;
};

CVec cvec_broadcast(cplx c) {
  return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/// Lanes 0-1 carry `lo`, lanes 2-3 carry `hi` (one constant per complex).
CVec cvec_lanes(cplx lo, cplx hi) {
  return {_mm256_setr_pd(lo.real(), lo.real(), hi.real(), hi.real()),
          _mm256_setr_pd(lo.imag(), lo.imag(), hi.imag(), hi.imag())};
}

/// (a0, a1) * c element-wise for interleaved complexes:
///   even lane: re*c.re - im*c.im, odd lane: im*c.re + re*c.im
/// — exactly the canonical cmul() recipe, via addsub.
__m256d cmul_vc(__m256d v, const CVec& c) {
  const __m256d sw = _mm256_permute_pd(v, 0x5);  // (im, re, im, re)
  return _mm256_addsub_pd(_mm256_mul_pd(v, c.re), _mm256_mul_pd(sw, c.im));
}

double* amp(cplx* a, Index i) { return reinterpret_cast<double*>(a + i); }

/// One 2x2 column-mix step on two complexes per stream. Forced inline:
/// the short-run control paths below execute it once per enumerated run,
/// where a call boundary would cost as much as the arithmetic.
[[gnu::always_inline]] inline void pair_vec_step(double* p0, double* p1,
                                                 const CVec& c00,
                                                 const CVec& c01,
                                                 const CVec& c10,
                                                 const CVec& c11) {
  const __m256d v0 = _mm256_loadu_pd(p0);
  const __m256d v1 = _mm256_loadu_pd(p1);
  _mm256_storeu_pd(p0, _mm256_add_pd(cmul_vc(v0, c00), cmul_vc(v1, c01)));
  _mm256_storeu_pd(p1, _mm256_add_pd(cmul_vc(v0, c10), cmul_vc(v1, c11)));
}

/// For gate qubit q in 1..3: calls body.template operator()<Q>(p), Q = q,
/// on every block of 2^(Q+1) amplitudes, p the block's first double. A
/// block's low half holds the i0 side of its 2^Q pairs and its high half
/// the i1 side, so the walk pays no per-run bookkeeping and the constant
/// block size lets the compiler unroll `body`. Each pool chunk covers
/// `chunk_amps` amplitudes.
template <class Body>
void for_each_block(std::span<cplx> s, Qubit q, Index chunk_amps,
                    const Body& body) {
  double* a = amp(s.data(), 0);
  const auto walk = [&]<Qubit Q>() {
    constexpr Index kBlock = Index{1} << (Q + 1);
    parallel::for_range(
        0, s.size() / kBlock,
        [&](Index lo, Index hi) {
          // Local copies, so the body's constants and the pointer live in
          // registers rather than being reloaded after every store.
          const Body local = body;
          double* p = a + 2 * kBlock * lo;
          for (Index blk = lo; blk < hi; ++blk, p += 2 * kBlock)
            local.template operator()<Q>(p);
        },
        chunk_amps / kBlock);
  };
  switch (q) {
    case 1: walk.template operator()<1>(); break;
    case 2: walk.template operator()<2>(); break;
    default: walk.template operator()<3>(); break;
  }
}

// Defined below; 1q gates on qubits >= 4 run on them.
void a2_apply_ctrl_1q(std::span<cplx> s,
                      std::span<const Qubit> sorted_bits, Index cmask,
                      Qubit target, const cplx* u);
void a2_apply_ctrl_diag(std::span<cplx> s,
                        std::span<const Qubit> sorted_bits, Index cmask,
                        Qubit target, cplx d0, cplx d1);

// ---- dense 2x2 -------------------------------------------------------------

/// The shared dense-pair stream: amplitudes [p0, p0 + 2*count) mix with
/// [p1, p1 + 2*count) through the broadcast 2x2 columns. Unrolled twice —
/// the four output vectors per iteration are independent chains, so the
/// multiplies overlap instead of serializing on the loop counter. Forced
/// inline, like pair_vec_step: the controlled kernel runs it once per run.
[[gnu::always_inline]] inline void dense_pair_stream(
    double* p0, double* p1, Index count, const CVec& c00, const CVec& c01,
    const CVec& c10, const CVec& c11) {
  Index done = 0;
  for (; done + 4 <= count; done += 4, p0 += 8, p1 += 8) {
    const __m256d v0a = _mm256_loadu_pd(p0);
    const __m256d v1a = _mm256_loadu_pd(p1);
    const __m256d v0b = _mm256_loadu_pd(p0 + 4);
    const __m256d v1b = _mm256_loadu_pd(p1 + 4);
    _mm256_storeu_pd(p0, _mm256_add_pd(cmul_vc(v0a, c00), cmul_vc(v1a, c01)));
    _mm256_storeu_pd(p1, _mm256_add_pd(cmul_vc(v0a, c10), cmul_vc(v1a, c11)));
    _mm256_storeu_pd(p0 + 4,
                     _mm256_add_pd(cmul_vc(v0b, c00), cmul_vc(v1b, c01)));
    _mm256_storeu_pd(p1 + 4,
                     _mm256_add_pd(cmul_vc(v0b, c10), cmul_vc(v1b, c11)));
  }
  for (; done + 2 <= count; done += 2, p0 += 4, p1 += 4)
    pair_vec_step(p0, p1, c00, c01, c10, c11);
}

void a2_apply_1q(std::span<cplx> s, Qubit q, const cplx* u) {
  const Index half = s.size() >> 1;
  cplx* a = s.data();
  if (q == 0) {
    // Pairs are adjacent: one vector holds a full (a0, a1) pair. Split it
    // into (a0, a0) / (a1, a1) and apply per-lane column constants.
    const CVec cl = cvec_lanes(u[0], u[2]);  // (u00, u10)
    const CVec cr = cvec_lanes(u[1], u[3]);  // (u01, u11)
    parallel::for_range(0, half, [&](Index lo, Index hi) {
      Index m = lo;
      for (; m + 2 <= hi; m += 2) {
        double* p = amp(a, m << 1);
        const __m256d va = _mm256_loadu_pd(p);
        const __m256d vb = _mm256_loadu_pd(p + 4);
        const __m256d xa = _mm256_permute2f128_pd(va, va, 0x00);  // (a0, a0)
        const __m256d ya = _mm256_permute2f128_pd(va, va, 0x11);  // (a1, a1)
        const __m256d xb = _mm256_permute2f128_pd(vb, vb, 0x00);
        const __m256d yb = _mm256_permute2f128_pd(vb, vb, 0x11);
        _mm256_storeu_pd(p, _mm256_add_pd(cmul_vc(xa, cl), cmul_vc(ya, cr)));
        _mm256_storeu_pd(p + 4,
                         _mm256_add_pd(cmul_vc(xb, cl), cmul_vc(yb, cr)));
      }
      for (; m < hi; ++m) {
        double* p = amp(a, m << 1);
        const __m256d v = _mm256_loadu_pd(p);
        const __m256d x = _mm256_permute2f128_pd(v, v, 0x00);
        const __m256d y = _mm256_permute2f128_pd(v, v, 0x11);
        _mm256_storeu_pd(p, _mm256_add_pd(cmul_vc(x, cl), cmul_vc(y, cr)));
      }
    });
    return;
  }
  if (q <= 3) {
    const CVec c00 = cvec_broadcast(u[0]), c01 = cvec_broadcast(u[1]);
    const CVec c10 = cvec_broadcast(u[2]), c11 = cvec_broadcast(u[3]);
    for_each_block(s, q, 2 * parallel::kDefaultGrain,
                   [=]<Qubit Q>(double* p) {
                     constexpr Index kPairs = Index{1} << Q;
                     dense_pair_stream(p, p + 2 * kPairs, kPairs, c00, c01,
                                       c10, c11);
                   });
    return;
  }
  // q >= 4: runs of 2^q pairs, as for a controlled gate with no controls.
  const std::array<Qubit, 1> bits = {q};
  a2_apply_ctrl_1q(s, bits, 0, q, u);
}

// ---- diagonal 2x2 ----------------------------------------------------------

/// Multiplies amplitudes [i, end) by the broadcast constant `cd`;
/// per-amplitude arithmetic identical to the scalar tier. Forced inline:
/// the controlled kernel runs it once per run, down to one amplitude.
[[gnu::always_inline]] inline void scale_run(cplx* a, Index i, Index end,
                                             const CVec& cd, cplx d) {
  double* p = amp(a, i);
  for (; i + 8 <= end; i += 8, p += 16) {
    _mm256_storeu_pd(p, cmul_vc(_mm256_loadu_pd(p), cd));
    _mm256_storeu_pd(p + 4, cmul_vc(_mm256_loadu_pd(p + 4), cd));
    _mm256_storeu_pd(p + 8, cmul_vc(_mm256_loadu_pd(p + 8), cd));
    _mm256_storeu_pd(p + 12, cmul_vc(_mm256_loadu_pd(p + 12), cd));
  }
  for (; i + 2 <= end; i += 2, p += 4)
    _mm256_storeu_pd(p, cmul_vc(_mm256_loadu_pd(p), cd));
  for (; i < end; ++i) a[i] = fb::cmul(a[i], d);
}

/// Multiplies `count` vectors from p by the per-lane constant `cd`, then
/// blends back the original lanes KEEP selects: a lane whose phase is
/// exactly 1 (or that the gate does not touch) stays a bitwise no-op, as
/// the scalar tier's skip requires.
template <int KEEP>
[[gnu::always_inline]] inline void scale_lanes(double* p, Index count,
                                               const CVec& cd) {
  for (Index v = 0; v < count; ++v, p += 4) {
    const __m256d x = _mm256_loadu_pd(p);
    __m256d o = cmul_vc(x, cd);
    if constexpr (KEEP != 0) o = _mm256_blend_pd(o, x, KEEP);
    _mm256_storeu_pd(p, o);
  }
}

void a2_apply_1q_diag(std::span<cplx> s, Qubit q, cplx d0, cplx d1) {
  const bool skip0 = fb::is_one(d0), skip1 = fb::is_one(d1);
  if (skip0 && skip1) return;
  cplx* a = s.data();
  if (q == 0) {
    // Alternating d0/d1 per amplitude: one lane-mixed constant, with an
    // exact blend of the original lanes wherever the phase is exactly 1
    // (a skip in the scalar tier must stay a bitwise no-op here too).
    const CVec cd = cvec_lanes(d0, d1);
    const auto run = [&]<int KEEP>() {
      parallel::for_range(0, s.size() >> 1, [&](Index lo, Index hi) {
        scale_lanes<KEEP>(amp(a, lo << 1), hi - lo, cd);
      });
    };
    if (skip0)
      run.template operator()<0b0011>();
    else if (skip1)
      run.template operator()<0b1100>();
    else
      run.template operator()<0>();
    return;
  }
  if (q <= 3) {
    const CVec c0 = cvec_broadcast(d0), c1 = cvec_broadcast(d1);
    for_each_block(s, q, parallel::kDefaultGrain, [=]<Qubit Q>(double* p) {
      constexpr Index kVecs = Index{1} << (Q - 1);  // vectors per half
      if (!skip0) scale_lanes<0>(p, kVecs, c0);
      if (!skip1) scale_lanes<0>(p + 4 * kVecs, kVecs, c1);
    });
    return;
  }
  // q >= 4: runs of 2^q amplitudes, as for a controlled gate with no
  // controls.
  const std::array<Qubit, 1> bits = {q};
  a2_apply_ctrl_diag(s, bits, 0, q, d0, d1);
}

// ---- controlled 2x2 --------------------------------------------------------

void a2_apply_ctrl_1q(std::span<cplx> s,
                      std::span<const Qubit> sorted_bits, Index cmask,
                      Qubit target, const cplx* u) {
  const Index tb = Index{1} << target;
  cplx* a = s.data();
  const CVec c00 = cvec_broadcast(u[0]), c01 = cvec_broadcast(u[1]);
  const CVec c10 = cvec_broadcast(u[2]), c11 = cvec_broadcast(u[3]);
  parallel::for_range(
      0, s.size() >> sorted_bits.size(), [&](Index lo, Index hi) {
        // Both pair sides of a run are dense: i0 up, and tb above it.
        fb::for_each_run(lo, hi, sorted_bits, cmask, [=](Index i0, Index len) {
          dense_pair_stream(amp(a, i0), amp(a, i0 | tb), len, c00, c01, c10,
                            c11);
          if (len & 1) {
            const Index last = i0 + (len - 1);
            fb::pair_update(a, last, last | tb, u);
          }
        });
      });
}

/// a2_apply_ctrl_diag with a gate bit on qubit 0, where every run is one
/// amplitude. A vector (a[2p], a[2p+1]) holds both values of bit 0, so
/// this steps over runs of pair indices p instead — for_each_run over the
/// other gate bits and controls, shifted down one — and scales whole
/// vectors per lane, blending back the lanes the gate leaves alone.
void ctrl_diag_bit0(std::span<cplx> s, std::span<const Qubit> sorted_bits,
                    Index cmask, Qubit target, cplx d0, cplx d1) {
  const bool skip0 = fb::is_one(d0), skip1 = fb::is_one(d1);
  const std::size_t k = sorted_bits.size() - 1;
  std::array<Qubit, 64> shifted{};
  for (std::size_t j = 0; j < k; ++j) shifted[j] = sorted_bits[j + 1] - 1;
  const std::span<const Qubit> pbits(shifted.data(), k);
  const Index pmask = cmask >> 1;
  double* a = amp(s.data(), 0);
  const auto sweep = [&](auto body) {
    parallel::for_range(0, s.size() >> (k + 1), [&](Index lo, Index hi) {
      fb::for_each_run(lo, hi, pbits, pmask, [=](Index p, Index len) {
        body(a + 4 * p, len);
      });
    });
  };
  if (target != 0) {
    // Bit 0 is a control: lane 1 of the target-0 vectors takes d0, lane 1
    // of their target-1 twins (t1 doubles up) d1.
    const Index t1 = 2 * (Index{1} << target);
    const CVec c0 = cvec_broadcast(d0), c1 = cvec_broadcast(d1);
    sweep([=](double* p, Index n) {
      if (!skip0) scale_lanes<0b0011>(p, n, c0);
      if (!skip1) scale_lanes<0b0011>(p + t1, n, c1);
    });
    return;
  }
  // Bit 0 is the target: lane 0 takes d0 and lane 1 d1.
  const CVec cd = cvec_lanes(d0, d1);
  if (skip0)
    sweep([=](double* p, Index n) { scale_lanes<0b0011>(p, n, cd); });
  else if (skip1)
    sweep([=](double* p, Index n) { scale_lanes<0b1100>(p, n, cd); });
  else
    sweep([=](double* p, Index n) { scale_lanes<0>(p, n, cd); });
}

void a2_apply_ctrl_diag(std::span<cplx> s,
                        std::span<const Qubit> sorted_bits, Index cmask,
                        Qubit target, cplx d0, cplx d1) {
  const bool skip0 = fb::is_one(d0), skip1 = fb::is_one(d1);
  if (skip0 && skip1) return;
  if (sorted_bits.front() == 0) {
    ctrl_diag_bit0(s, sorted_bits, cmask, target, d0, d1);
    return;
  }
  const Index tb = Index{1} << target;
  cplx* a = s.data();
  const CVec c0 = cvec_broadcast(d0), c1 = cvec_broadcast(d1);
  parallel::for_range(
      0, s.size() >> sorted_bits.size(), [&](Index lo, Index hi) {
        // The d0 stream at i0 and the d1 stream at i0|tb are both dense
        // over one run.
        fb::for_each_run(lo, hi, sorted_bits, cmask, [=](Index i0, Index len) {
          if (!skip0) scale_run(a, i0, i0 + len, c0, d0);
          if (!skip1) scale_run(a, i0 | tb, (i0 | tb) + len, c1, d1);
        });
      });
}

// ---- general diagonal ------------------------------------------------------

/// a2_apply_diag with qubit 0 = qs[j0] among its qubits. A vector
/// (a[2p], a[2p+1]) holds both values of bit 0, and the other qubits fix
/// the code over runs of pair indices up to the next-lowest of them, so
/// each run scales whole vectors by two lane phases, blending back a lane
/// whose phase is exactly 1 (as ctrl_diag_bit0 does).
void diag_bit0(std::span<cplx> s, std::span<const Qubit> qs,
               std::span<const cplx> phases, std::size_t j0) {
  const unsigned k = static_cast<unsigned>(qs.size());
  Index run = s.size() >> 1;  // pairs per run: all of them when k = 1
  for (unsigned j = 0; j < k; ++j)
    if (j != j0) run = std::min(run, Index{1} << (qs[j] - 1));
  double* a = amp(s.data(), 0);
  parallel::for_range(0, s.size() >> 1, [&](Index lo, Index hi) {
    Index p = lo;
    while (p < hi) {
      const Index end = std::min(hi, (p | (run - 1)) + 1);
      Index code = 0;
      for (unsigned j = 0; j < k; ++j)
        if (j != j0) code |= static_cast<Index>(bits::test(p << 1, qs[j])) << j;
      const cplx d0 = phases[code], d1 = phases[code | (Index{1} << j0)];
      const bool skip0 = fb::is_one(d0), skip1 = fb::is_one(d1);
      const CVec cd = cvec_lanes(d0, d1);
      if (skip0 && !skip1)
        scale_lanes<0b0011>(a + 4 * p, end - p, cd);
      else if (skip1 && !skip0)
        scale_lanes<0b1100>(a + 4 * p, end - p, cd);
      else if (!skip0)
        scale_lanes<0>(a + 4 * p, end - p, cd);
      p = end;
    }
  });
}

void a2_apply_diag(std::span<cplx> s, std::span<const Qubit> qs,
                   std::span<const cplx> phases) {
  const auto min_it = std::min_element(qs.begin(), qs.end());
  const Qubit minq = *min_it;
  if (minq == 0) {
    diag_bit0(s, qs, phases, static_cast<std::size_t>(min_it - qs.begin()));
    return;
  }
  const unsigned k = static_cast<unsigned>(qs.size());
  const Index L = Index{1} << minq;  // amplitudes per constant-phase run
  cplx* a = s.data();
  parallel::for_range(0, s.size(), [&](Index lo, Index hi) {
    Index i = lo;
    while (i < hi) {
      const Index run_end = std::min(hi, (i | (L - 1)) + 1);
      Index code = 0;
      for (unsigned j = 0; j < k; ++j)
        code |= static_cast<Index>(bits::test(i, qs[j])) << j;
      const cplx d = phases[code];
      if (!fb::is_one(d)) scale_run(a, i, run_end, cvec_broadcast(d), d);
      i = run_end;
    }
  });
}

// ---- dense 4x4 -------------------------------------------------------------

void a2_apply_2q(std::span<cplx> s, Qubit qa, Qubit qb, const cplx* u) {
  const Qubit lo_q = std::min(qa, qb), hi_q = std::max(qa, qb);
  if (lo_q == 0) {  // quad streams are stride-2 — no contiguous runs
    fb::apply_2q(s, qa, qb, u);
    return;
  }
  const Index ba = Index{1} << qa, bb = Index{1} << qb;
  const Index L = Index{1} << lo_q;  // contiguous quad-bases per run
  cplx* a = s.data();
  CVec c[16];
  for (int t = 0; t < 16; ++t) c[t] = cvec_broadcast(u[t]);
  parallel::for_range(0, s.size() >> 2, [&](Index lo, Index hi) {
    Index m = lo;
    while (m < hi) {
      // Quad bases within a run of L enumerands are contiguous (the low
      // lo_q bits pass through both insert_zero calls): resolve once,
      // walk four dense streams.
      const Index j = m & (L - 1);
      const Index base = bits::insert_zero(bits::insert_zero(m, lo_q), hi_q);
      const Index n_run = std::min(hi, m - j + L) - m;
      double* p0 = amp(a, base);
      double* p1 = amp(a, base | ba);
      double* p2 = amp(a, base | bb);
      double* p3 = amp(a, base | ba | bb);
      Index done = 0;
      for (; done + 2 <= n_run;
           done += 2, p0 += 4, p1 += 4, p2 += 4, p3 += 4) {
        const __m256d v0 = _mm256_loadu_pd(p0);
        const __m256d v1 = _mm256_loadu_pd(p1);
        const __m256d v2 = _mm256_loadu_pd(p2);
        const __m256d v3 = _mm256_loadu_pd(p3);
        // Pairwise accumulation in column order — matches quad_update().
        _mm256_storeu_pd(
            p0, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[0]), cmul_vc(v1, c[1])),
                    _mm256_add_pd(cmul_vc(v2, c[2]), cmul_vc(v3, c[3]))));
        _mm256_storeu_pd(
            p1, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[4]), cmul_vc(v1, c[5])),
                    _mm256_add_pd(cmul_vc(v2, c[6]), cmul_vc(v3, c[7]))));
        _mm256_storeu_pd(
            p2, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[8]), cmul_vc(v1, c[9])),
                    _mm256_add_pd(cmul_vc(v2, c[10]), cmul_vc(v3, c[11]))));
        _mm256_storeu_pd(
            p3, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[12]), cmul_vc(v1, c[13])),
                    _mm256_add_pd(cmul_vc(v2, c[14]), cmul_vc(v3, c[15]))));
      }
      if (done < n_run) {
        const Index b = base + done;
        fb::quad_update(a, b, b | ba, b | bb, b | ba | bb, u);
      }
      m += n_run;
    }
  });
}

}  // namespace

const KernelOps* avx2_kernel_ops_or_null() {
  static const KernelOps ops = {
      KernelTier::Simd, "simd",          &a2_apply_1q, &a2_apply_1q_diag,
      &a2_apply_ctrl_1q, &a2_apply_ctrl_diag, &a2_apply_diag, &a2_apply_2q,
  };
  return &ops;
}

}  // namespace hisim::sv

#else  // !HISIM_KERNELS_AVX2

namespace hisim::sv {

// Built without the AVX2 translation-unit flags (non-x86 target or the
// compiler lacks -mavx2): the simd tier does not exist in this binary.
const KernelOps* avx2_kernel_ops_or_null() { return nullptr; }

}  // namespace hisim::sv

#endif
