// Kernel-tier dispatch contract (sv/kernel_dispatch.hpp): every GateKind
// produces the same state on every available tier — bit-identical for
// permutation and diagonal kinds (pure index moves / skip-or-multiply
// phase sweeps), within 1e-12 for dense kernels — and the tier threads
// through FlatSimulator and all six Engine targets. sv::apply_gates, which
// applies runs of gates block by block, gives the bits of sv::apply_gate
// one gate at a time. Tier resolution itself (parse, names, forced-simd
// failure) is pinned here too.

#include "sv/kernel_dispatch.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/gate.hpp"
#include "circuits/generators.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "hisvsim/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

// The kernels' run stepping, under a namespace of its own (see the header
// of kernels_scalar.inl), for the direct test of for_each_run below.
#define HISIM_KERNEL_NS run_walk_test
#include "sv/kernels_scalar.inl"
#undef HISIM_KERNEL_NS

namespace hisim {
namespace {

/// memcmp-strength equality: catches even -0.0 vs +0.0 sign flips, which
/// the skip-exact-1.0 diagonal contract is specifically about. Reports the
/// first differing amplitude and the number that differ.
void expect_bit_identical(const sv::StateVector& a, const sv::StateVector& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (std::memcmp(a.data(), b.data(), a.bytes()) == 0) return;
  Index first = a.size(), count = 0;
  for (Index i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(cplx)) != 0) {
      if (count++ == 0) first = i;
    }
  ADD_FAILURE() << what << ": " << count << " amplitudes differ, first "
                << first << ": " << a[first] << " vs " << b[first];
}

/// A gate kind (or a dense / Kraus Unitary form) as a factory over its
/// operand list, controls first and target last.
struct Kind {
  unsigned arity;
  std::function<Gate(const std::vector<Qubit>&)> make;
};

std::vector<Kind> every_kind() {
  Matrix u2(2, 2);
  u2(0, 0) = {0.36, 0.48};
  u2(0, 1) = {0.8, 0.0};
  u2(1, 0) = {-0.8, 0.0};
  u2(1, 1) = {0.36, -0.48};
  Matrix k2 = u2;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) k2(r, c) *= 0.9;  // non-unitary
  const Matrix u4 =
      Gate::rxx(0, 1, 0.37).matrix() * Gate::cp(0, 1, -0.81).matrix();
  Rng rng(0x8d);
  const Matrix u8 = testutil::random_unitary(3, rng);  // apply_generic
  using Q = std::vector<Qubit>;
  return {
      {1, [](const Q& q) { return Gate::i(q[0]); }},
      {1, [](const Q& q) { return Gate::x(q[0]); }},
      {1, [](const Q& q) { return Gate::y(q[0]); }},
      {1, [](const Q& q) { return Gate::z(q[0]); }},
      {1, [](const Q& q) { return Gate::h(q[0]); }},
      {1, [](const Q& q) { return Gate::s(q[0]); }},
      {1, [](const Q& q) { return Gate::sdg(q[0]); }},
      {1, [](const Q& q) { return Gate::t(q[0]); }},
      {1, [](const Q& q) { return Gate::tdg(q[0]); }},
      {1, [](const Q& q) { return Gate::sx(q[0]); }},
      {1, [](const Q& q) { return Gate::rx(q[0], 0.7); }},
      {1, [](const Q& q) { return Gate::ry(q[0], -0.4); }},
      {1, [](const Q& q) { return Gate::rz(q[0], 1.1); }},
      {1, [](const Q& q) { return Gate::p(q[0], 0.9); }},
      {1, [](const Q& q) { return Gate::u2(q[0], 0.3, -0.5); }},
      {1, [](const Q& q) { return Gate::u3(q[0], 0.4, 0.2, -0.7); }},
      {1, [k2](const Q& q) { return Gate::kraus(q, k2); }},
      {1, [](const Q& q) { return Gate::noise_slot(q[0], 0); }},
      {2, [](const Q& q) { return Gate::cx(q[0], q[1]); }},
      {2, [](const Q& q) { return Gate::cy(q[0], q[1]); }},
      {2, [](const Q& q) { return Gate::cz(q[0], q[1]); }},
      {2, [](const Q& q) { return Gate::ch(q[0], q[1]); }},
      {2, [](const Q& q) { return Gate::crx(q[0], q[1], 0.6); }},
      {2, [](const Q& q) { return Gate::cry(q[0], q[1], -0.8); }},
      {2, [](const Q& q) { return Gate::crz(q[0], q[1], 0.5); }},
      {2, [](const Q& q) { return Gate::cp(q[0], q[1], 0.7); }},
      {2, [](const Q& q) { return Gate::cu3(q[0], q[1], 0.3, -0.6, 0.9); }},
      {2, [](const Q& q) { return Gate::swap(q[0], q[1]); }},
      {2, [](const Q& q) { return Gate::rzz(q[0], q[1], 0.8); }},
      {2, [](const Q& q) { return Gate::rxx(q[0], q[1], 0.6); }},
      {2, [u4](const Q& q) { return Gate::unitary(q, u4); }},
      {3, [](const Q& q) { return Gate::ccx(q[0], q[1], q[2]); }},
      {3, [](const Q& q) { return Gate::cswap(q[0], q[1], q[2]); }},
      {3, [u8](const Q& q) { return Gate::unitary(q, u8); }},
      {4, [](const Q& q) { return Gate::mcx(q); }},
  };
}

/// Operand lists for a k-qubit gate on n qubits: every qubit (k = 1),
/// every ordered pair (k = 2), and for k >= 3 qubits 0 and 1 in every
/// ordered pair of roles, the other roles filled once from qubit 2 up and
/// once from qubit n-1 down. Low operands are where the kernels' runs are
/// shortest and the AVX2 tier takes its special paths.
std::vector<std::vector<Qubit>> placements(unsigned k, unsigned n) {
  std::vector<std::vector<Qubit>> out;
  if (k == 1) {
    for (Qubit a = 0; a < n; ++a) out.push_back({a});
  } else if (k == 2) {
    for (Qubit a = 0; a < n; ++a)
      for (Qubit b = 0; b < n; ++b)
        if (a != b) out.push_back({a, b});
  } else {
    for (unsigned r0 = 0; r0 < k; ++r0)
      for (unsigned r1 = 0; r1 < k; ++r1) {
        if (r0 == r1) continue;
        for (bool from_top : {false, true}) {
          std::vector<Qubit> q(k);
          Qubit fill = from_top ? n - 1 : 2;
          for (unsigned r = 0; r < k; ++r) {
            if (r == r0) q[r] = 0;
            else if (r == r1) q[r] = 1;
            else q[r] = from_top ? fill-- : fill++;
          }
          out.push_back(q);
        }
      }
  }
  return out;
}

/// Every kind at every placement on n qubits.
std::vector<Gate> every_placement(unsigned n) {
  std::vector<Gate> gates;
  for (const Kind& kind : every_kind())
    for (const std::vector<Qubit>& q : placements(kind.arity, n))
      gates.push_back(kind.make(q));
  return gates;
}

/// Gates on 15 qubits whose runs (2^13 or 2^14 amplitudes) are longer than
/// the pool's 4096-enumerand grain, so on 4 threads chunk edges cut runs.
/// In cx(1, 14) the edges cut a strided group of 2^12 short runs instead;
/// h(1) and cp(0, 14) put the AVX2 tier's block walk and its bit-0
/// controlled-diagonal path on the pool.
std::vector<Gate> pooled_gates() {
  return {Gate::cx(13, 14), Gate::cp(13, 14, 0.7), Gate::rz(14, 1.1),
          Gate::cx(1, 14),  Gate::h(1),            Gate::cp(0, 14, -0.3)};
}

/// Runs fn with the pool at `threads` workers, restoring the default.
template <class Fn>
void with_threads(unsigned threads, Fn fn) {
  parallel::set_num_threads(threads);
  fn();
  parallel::set_num_threads(0);
}

bool is_permutation(const Gate& g) {
  switch (g.kind) {
    case GateKind::X:
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
    case GateKind::SWAP:
    case GateKind::CSWAP:
      return true;
    default:
      return false;
  }
}

/// A random state whose every third amplitude has an imaginary part of
/// exactly -0.0: a multiply by an exact 1.0 phase would flip it to +0.0
/// wherever the real part is positive, so a bit-identity check sees a
/// kernel that fails to skip such a multiply.
sv::StateVector signed_zero_state(unsigned n) {
  sv::StateVector s = testutil::random_state(n, 0xabcd);
  for (Index i = 0; i < s.size(); i += 3) s[i] = cplx(s[i].real(), -0.0);
  return s;
}

void expect_tiers_agree(const Gate& g, unsigned n) {
  sv::StateVector a = signed_zero_state(n);
  sv::StateVector b = a;
  sv::apply_gate(a, g, sv::kernel_ops(sv::KernelTier::Scalar));
  sv::apply_gate(b, g, sv::kernel_ops(sv::KernelTier::Simd));
  if (is_permutation(g) || g.is_diagonal()) {
    expect_bit_identical(a, b, g.to_string());
  } else {
    EXPECT_LT(a.max_abs_diff(b), 1e-12) << g.to_string();
  }
}

TEST(KernelDispatch, EveryGateKindEveryTierMatchesScalar) {
  if (!sv::simd_kernels_available())
    GTEST_SKIP() << "only the scalar tier exists in this build/CPU";
  for (const Gate& g : every_placement(7)) expect_tiers_agree(g, 7);
  with_threads(4, [] {
    for (const Gate& g : pooled_gates()) expect_tiers_agree(g, 15);
  });
}

/// Applies `gates` to a copy of `start` in one apply_gates call at each
/// thread count of `threads`; every result must have the bits of
/// apply_gate one gate at a time.
void expect_runs_match(const sv::StateVector& start,
                       std::span<const Gate> gates, const sv::KernelOps& ops,
                       std::initializer_list<unsigned> threads,
                       const std::string& what) {
  sv::StateVector want = start;
  for (const Gate& g : gates) sv::apply_gate(want, g, ops);
  for (unsigned t : threads)
    with_threads(t, [&] {
      sv::StateVector got = start;
      sv::apply_gates(got, gates, ops);
      expect_bit_identical(want, got,
                           what + ", " + std::to_string(t) + " threads");
    });
}

std::vector<const sv::KernelOps*> available_tiers() {
  std::vector<const sv::KernelOps*> out = {
      &sv::kernel_ops(sv::KernelTier::Scalar)};
  if (sv::simd_kernels_available())
    out.push_back(&sv::kernel_ops(sv::KernelTier::Simd));
  return out;
}

// apply_gates applies runs of block-local gates to a state wider than the
// cache block by block, 2^kCacheQubits amplitudes at a time, with the
// qubits at or above the block boundary fixed per block. Every kind, with
// its targets, controls and diagonal qubits on both sides of the
// boundary, must give the bits of apply_gate one gate at a time. Each gate
// is followed by an identity, so a block-local gate sits in a run even
// between two gates that are not block-local.
TEST(KernelDispatch, ApplyGatesMatchesGateByGate) {
  const unsigned n = sv::kCacheQubits + 2;
  const sv::StateVector start = signed_zero_state(n);
  const std::vector<Qubit> on = {0, 1, 2, n - 4, n - 3, n - 2, n - 1};
  for (const sv::KernelOps* ops : available_tiers())
    for (const Kind& kind : every_kind()) {
      std::vector<Gate> gates;
      for (const std::vector<Qubit>& p :
           placements(kind.arity, static_cast<unsigned>(on.size()))) {
        std::vector<Qubit> q;
        for (Qubit i : p) q.push_back(on[i]);
        gates.push_back(kind.make(q));
        gates.push_back(Gate::i(0));
      }
      expect_runs_match(start, gates, *ops, {1, 3, 4},
                        std::string(ops->name) + ", " + gates[0].to_string());
    }
}

// cx(a, b) · D(b) · cx(a, b) applies as one diagonal on a XOR b wherever a
// and b lie, so a ZZ term with b above the block boundary stays inside a
// run. Near misses must fall back to their gates one by one.
TEST(KernelDispatch, ApplyGatesZzTripleMatchesGateByGate) {
  const unsigned n = sv::kCacheQubits + 2;
  const sv::StateVector start = signed_zero_state(n);
  const Qubit hi = n - 2, top = n - 1;
  std::vector<std::vector<Gate>> cases;
  const std::vector<std::pair<Qubit, Qubit>> ab = {
      {0, hi}, {3, top}, {top, hi}, {hi, top}, {2, 5}, {hi, 1}, {hi - 2, 0}};
  for (const auto& [a, b] : ab)
    for (const Gate& d : {Gate::rz(b, 0.7), Gate::p(b, -1.3), Gate::z(b)})
      cases.push_back({Gate::cx(a, b), d, Gate::cx(a, b)});
  // Overlapping triples share their middle cx.
  cases.push_back({Gate::cx(3, hi), Gate::rz(hi, 0.3), Gate::cx(3, hi),
                   Gate::rz(hi, 0.5), Gate::cx(3, hi)});
  Matrix damp(2, 2);  // a sampled trajectory operator, diagonal
  damp(0, 0) = 1.0;
  damp(1, 1) = 0.8;
  for (const Gate& middle :
       {Gate::rx(hi, 0.7), Gate::kraus({hi}, damp), Gate::noise_slot(hi, 0),
        Gate::i(hi), Gate::rz(3, 0.7)})
    cases.push_back({Gate::cx(3, hi), middle, Gate::cx(3, hi)});
  cases.push_back({Gate::cx(3, hi), Gate::rz(hi, 0.7), Gate::cx(4, hi)});
  for (const sv::KernelOps* ops : available_tiers())
    for (const std::vector<Gate>& c : cases) {
      // Alone, and inside a longer run of block-local gates.
      std::vector<Gate> framed = {Gate::h(0)};
      framed.insert(framed.end(), c.begin(), c.end());
      framed.push_back(Gate::t(1));
      std::string what = ops->name;
      for (const Gate& g : c) what += ", " + g.to_string();
      expect_runs_match(start, c, *ops, {1, 4}, what);
      expect_runs_match(start, framed, *ops, {1, 4}, what + " (framed)");
    }
}

/// The amplitude index a permutation gate moves into index j (each kind is
/// its own inverse, so this is also where j's amplitude goes).
Index permutation_source(const Gate& g, Index j) {
  const std::vector<Qubit>& q = g.qubits;
  const auto bit = [](Qubit b) { return Index{1} << b; };
  const auto swapped = [&](Qubit a, Qubit b) {
    return bits::test(j, a) == bits::test(j, b) ? j : j ^ bit(a) ^ bit(b);
  };
  switch (g.kind) {
    case GateKind::SWAP:
      return swapped(q[0], q[1]);
    case GateKind::CSWAP:
      return bits::test(j, q[0]) ? swapped(q[1], q[2]) : j;
    default: {  // X, CX, CCX, MCX: controls first, target last
      for (std::size_t c = 0; c + 1 < q.size(); ++c)
        if (!bits::test(j, q[c])) return j;
      return j ^ bit(q.back());
    }
  }
}

// Both tiers share the permutation kernels, so comparing tiers cannot
// catch a wrong swap: check each kernel against the gate's bit formula.
TEST(KernelDispatch, PermutationsMatchTheirBitFormula) {
  const auto check = [](const Gate& g, unsigned n) {
    sv::StateVector s(n);
    for (Index i = 0; i < s.size(); ++i)
      s[i] = cplx(static_cast<double>(i), -static_cast<double>(i));
    sv::apply_gate(s, g, sv::kernel_ops(sv::KernelTier::Scalar));
    for (Index j = 0; j < s.size(); ++j) {
      const double src = static_cast<double>(permutation_source(g, j));
      ASSERT_EQ(s[j], cplx(src, -src)) << g.to_string() << " amp " << j;
    }
  };
  for (const Gate& g : every_placement(7))
    if (is_permutation(g)) check(g, 7);
  with_threads(4, [&] {
    for (const Gate& g : pooled_gates())
      if (is_permutation(g)) check(g, 15);
  });
}

// The pool cuts ranges only at multiples of its power-of-two grain, so
// the kernels never start or end a walk at every offset; walk every
// [lo, hi) here and check the runs list spread(m) | cmask in order.
TEST(KernelDispatch, RunWalkCoversEveryRangeInOrder) {
  const unsigned n = 8;
  const std::vector<std::vector<Qubit>> bit_sets = {
      {0}, {2}, {0, 1}, {0, 3}, {1, 2}, {2, 5}, {1, 3, 6}, {0, 2, 4, 7}};
  for (const std::vector<Qubit>& sorted : bit_sets) {
    const Index cmask = Index{1} << sorted.back();
    const Index count = Index{1} << (n - sorted.size());
    for (Index lo = 0; lo < count; ++lo)
      for (Index hi = lo + 1; hi <= count; ++hi) {
        Index m = lo;
        sv::run_walk_test::for_each_run(
            lo, hi, sorted, cmask, [&](Index i0, Index len) {
              ASSERT_GE(len, 1u);
              ASSERT_LE(len, Index{1} << sorted.front());
              for (Index t = 0; t < len; ++t, ++m)
                ASSERT_EQ(i0 + t,
                          sv::run_walk_test::spread(m, sorted) | cmask)
                    << "bits " << ::testing::PrintToString(sorted)
                    << " range [" << lo << ", " << hi << ")";
            });
        ASSERT_EQ(m, hi);
      }
  }
}

TEST(KernelDispatch, RandomCircuitDifferential) {
  if (!sv::simd_kernels_available())
    GTEST_SKIP() << "only the scalar tier exists in this build/CPU";
  const sv::KernelOps& scalar = sv::kernel_ops(sv::KernelTier::Scalar);
  const sv::KernelOps& simd = sv::kernel_ops(sv::KernelTier::Simd);
  for (std::uint64_t seed : {0x1ull, 0x2ull, 0x3ull, 0x5eedull}) {
    const Circuit c = testutil::random_circuit(6, 120, seed);
    sv::StateVector a(6), b(6);
    sv::FlatSimulator().run(c, a, &scalar);
    sv::FlatSimulator().run(c, b, &simd);
    EXPECT_LT(a.max_abs_diff(b), 1e-12) << "seed " << seed;
  }
}

TEST(KernelDispatch, EngineTargetsAgreeAcrossTiers) {
  if (!sv::simd_kernels_available())
    GTEST_SKIP() << "only the scalar tier exists in this build/CPU";
  const Circuit c = circuits::qft(9);
  for (Target t : {Target::Flat, Target::Hierarchical,
                   Target::DistributedSerial, Target::DistributedThreaded,
                   Target::IqsBaseline}) {
    Options o;
    o.target = t;
    o.limit = 5;
    if (t == Target::DistributedThreaded) o.level2_limit = 3;
    if (target_is_distributed(t)) o.process_qubits = 2;

    o.kernel_tier = sv::KernelTier::Scalar;
    const ExecutionPlan ps = Engine::compile(c, o);
    EXPECT_EQ(ps.kernel_tier(), sv::KernelTier::Scalar);
    const Result rs = ps.execute();
    EXPECT_EQ(rs.kernel, "scalar") << target_name(t);

    o.kernel_tier = sv::KernelTier::Simd;
    const ExecutionPlan pv = Engine::compile(c, o);
    EXPECT_EQ(pv.kernel_tier(), sv::KernelTier::Simd);
    const Result rv = pv.execute();
    EXPECT_EQ(rv.kernel, "simd") << target_name(t);

    EXPECT_LT(rs.state.max_abs_diff(rv.state), 1e-12) << target_name(t);
  }
}

TEST(KernelDispatch, AutoResolvesToConcreteTier) {
  const sv::KernelOps& ops = sv::kernel_ops(sv::KernelTier::Auto);
  EXPECT_NE(ops.tier, sv::KernelTier::Auto);
  // Auto must pick simd exactly when it exists (unless the HISIM_KERNEL
  // env override pinned scalar — in which case the name must say so).
  const std::string name = ops.name;
  EXPECT_TRUE(name == "scalar" || name == "simd");
  if (!sv::simd_kernels_available()) {
    EXPECT_EQ(name, "scalar");
  }
}

TEST(KernelDispatch, ParseAndNamesRoundTrip) {
  EXPECT_EQ(sv::parse_kernel_tier("auto"), sv::KernelTier::Auto);
  EXPECT_EQ(sv::parse_kernel_tier("scalar"), sv::KernelTier::Scalar);
  EXPECT_EQ(sv::parse_kernel_tier("simd"), sv::KernelTier::Simd);
  EXPECT_THROW(sv::parse_kernel_tier("bogus"), Error);
  EXPECT_THROW(sv::parse_kernel_tier(""), Error);
  EXPECT_THROW(sv::parse_kernel_tier("SIMD"), Error);
  for (sv::KernelTier t : {sv::KernelTier::Auto, sv::KernelTier::Scalar,
                           sv::KernelTier::Simd})
    EXPECT_EQ(sv::parse_kernel_tier(sv::kernel_tier_name(t)), t);
}

TEST(KernelDispatch, ForcedSimdFailsLoudlyWhenUnavailable) {
  if (sv::simd_kernels_available()) {
    EXPECT_EQ(sv::kernel_ops(sv::KernelTier::Simd).tier,
              sv::KernelTier::Simd);
  } else {
    EXPECT_THROW(sv::kernel_ops(sv::KernelTier::Simd), Error);
  }
  // The scalar tier exists unconditionally.
  EXPECT_EQ(sv::kernel_ops(sv::KernelTier::Scalar).tier,
            sv::KernelTier::Scalar);
  EXPECT_STREQ(sv::kernel_ops(sv::KernelTier::Scalar).name, "scalar");
}

}  // namespace
}  // namespace hisim
