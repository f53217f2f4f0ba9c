#pragma once

// Shared seeded generators for the test suite: random circuits over the
// full and QASM-safe gate alphabets, random normalized states, random
// dense unitaries, random qubit subsets, and the up-to-global-phase
// state comparison the
// optimization differential harness is built on. Everything is a pure
// function of its seed, so any failure line reproduces exactly.

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sv/state_vector.hpp"

namespace hisim::testutil {

/// Generation knobs. Defaults reproduce the historical ad-hoc generators:
/// a uniform mixed-alphabet circuit with continuous angles.
struct CircuitKnobs {
  /// Restrict the mix to gates the QASM writer emits natively (the qelib1
  /// vocabulary — no RZZ/RXX/P/CP/MCX/CSWAP), for round-trip fuzzing.
  bool qasm_safe = false;
  /// Probability of repeating the previous gate verbatim — plants the
  /// adjacent inverse pairs and same-axis rotation runs the optimizer's
  /// cancel/merge passes feed on.
  double duplicate_prob = 0.0;
  /// Probability that a rotation angle is drawn from {0, 2pi, -2pi}
  /// instead of the continuous range — plants identity-angle drops.
  double trivial_angle_prob = 0.0;
};

/// Deterministic random circuit on `n` qubits (n >= 3: some gates take
/// three distinct qubits) over a mixed gate alphabet.
inline Circuit random_circuit(unsigned n, std::size_t gates,
                              std::uint64_t seed,
                              const CircuitKnobs& knobs = {}) {
  Rng rng(seed);
  Circuit c(n, "random");
  const auto angle = [&](double lo, double hi) -> double {
    if (knobs.trivial_angle_prob > 0.0 &&
        rng.uniform() < knobs.trivial_angle_prob) {
      constexpr double kTwoPi = 6.283185307179586476925286766559;
      switch (rng.below(3)) {
        case 0: return 0.0;
        case 1: return kTwoPi;
        default: return -kTwoPi;
      }
    }
    return rng.uniform(lo, hi);
  };
  while (c.num_gates() < gates) {
    if (knobs.duplicate_prob > 0.0 && c.num_gates() > 0 &&
        rng.uniform() < knobs.duplicate_prob) {
      c.add(c.gate(c.num_gates() - 1));
      continue;
    }
    const Qubit a = static_cast<Qubit>(rng.below(n));
    Qubit b = static_cast<Qubit>(rng.below(n));
    while (b == a) b = static_cast<Qubit>(rng.below(n));
    Qubit d = static_cast<Qubit>(rng.below(n));
    while (d == a || d == b) d = static_cast<Qubit>(rng.below(n));
    if (knobs.qasm_safe) {
      const double th = angle(-3.14, 3.14);
      switch (rng.below(16)) {
        case 0: c.add(Gate::h(a)); break;
        case 1: c.add(Gate::x(a)); break;
        case 2: c.add(Gate::y(a)); break;
        case 3: c.add(Gate::sdg(a)); break;
        case 4: c.add(Gate::t(a)); break;
        case 5: c.add(Gate::rx(a, th)); break;
        case 6: c.add(Gate::ry(a, th)); break;
        case 7: c.add(Gate::u2(a, th, -th)); break;
        case 8: c.add(Gate::u3(a, th, th / 2, -th)); break;
        case 9: c.add(Gate::cx(a, b)); break;
        case 10: c.add(Gate::cz(a, b)); break;
        case 11: c.add(Gate::ch(a, b)); break;
        case 12: c.add(Gate::crz(a, b, th)); break;
        case 13: c.add(Gate::cu3(a, b, th, -th, th / 3)); break;
        case 14: c.add(Gate::swap(a, b)); break;
        case 15: c.add(Gate::ccx(a, b, d)); break;
      }
      continue;
    }
    switch (rng.below(12)) {
      case 0: c.add(Gate::h(a)); break;
      case 1: c.add(Gate::x(a)); break;
      case 2: c.add(Gate::rx(a, angle(0, 3.1))); break;
      case 3: c.add(Gate::rz(a, angle(-3.1, 3.1))); break;
      case 4: c.add(Gate::u3(a, rng.uniform(0, 3), rng.uniform(0, 3),
                             rng.uniform(0, 3))); break;
      case 5: c.add(Gate::cx(a, b)); break;
      case 6: c.add(Gate::cz(a, b)); break;
      case 7: c.add(Gate::cp(a, b, angle(-3, 3))); break;
      case 8: c.add(Gate::swap(a, b)); break;
      case 9: c.add(Gate::rzz(a, b, angle(-3, 3))); break;
      case 10: c.add(Gate::ccx(a, b, d)); break;
      case 11: c.add(Gate::cswap(a, b, d)); break;
    }
  }
  return c;
}

/// Deterministic Haar-ish normalized random state on `n` qubits.
inline sv::StateVector random_state(unsigned n, std::uint64_t seed) {
  Rng rng(seed);
  sv::StateVector s(n);
  double norm = 0.0;
  for (Index i = 0; i < s.size(); ++i) {
    s[i] = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    norm += std::norm(s[i]);
  }
  const double inv = 1.0 / std::sqrt(norm);
  for (Index i = 0; i < s.size(); ++i) s[i] *= inv;
  return s;
}

/// Dense k-qubit unitary (k >= 1) drawn from `rng`, for Gate::unitary
/// blocks: two layers of random u3 rotations on every qubit, each
/// followed by an rxx on every neighbouring pair, so that the block
/// entangles all k qubits.
inline Matrix random_unitary(unsigned k, Rng& rng) {
  const auto u3 = [&rng] {
    return Gate::u3(0, rng.uniform(0, 3), rng.uniform(0, 3),
                    rng.uniform(0, 3))
        .matrix();
  };
  const auto identity = [](unsigned qubits) {
    return Matrix::identity(std::size_t{1} << qubits);
  };
  Matrix u = identity(k);
  for (int layer = 0; layer < 2; ++layer) {
    Matrix rotations = u3();
    for (unsigned q = 1; q < k; ++q) rotations = rotations.kron(u3());
    u = rotations * u;
    for (unsigned q = 0; q + 1 < k; ++q)
      u = identity(q)
              .kron(Gate::rxx(0, 1, rng.uniform(0.3, 1.2)).matrix())
              .kron(identity(k - q - 2)) *
          u;
  }
  return u;
}

/// Random subset of distinct qubits in [0, n), at most `max_size` of them
/// (duplicates in the draw are discarded, so the subset may be smaller —
/// possibly empty only when a duplicate-heavy draw collapses).
inline std::vector<Qubit> random_qubit_subset(Rng& rng, unsigned n,
                                              unsigned max_size) {
  const unsigned size = 1 + static_cast<unsigned>(rng.below(max_size));
  std::vector<Qubit> part;
  for (unsigned i = 0; i < size; ++i) {
    const Qubit q = static_cast<Qubit>(rng.below(n));
    bool dup = false;
    for (Qubit seen : part) dup = dup || seen == q;
    if (!dup) part.push_back(q);
  }
  return part;
}

/// Largest per-amplitude difference between `a` and `b` after aligning
/// b's global phase to a's (via the phase of <a|b>). Two states that are
/// equal up to a global phase — e.g. before/after an optimization that
/// dropped an RX(2pi) = -I — compare as ~0; genuinely different states
/// keep an O(1) difference. Sizes must match.
inline double max_abs_diff_up_to_phase(const sv::StateVector& a,
                                       const sv::StateVector& b) {
  if (a.size() != b.size()) return 1.0;
  cplx overlap = 0.0;
  for (Index i = 0; i < a.size(); ++i)
    overlap += std::conj(a[i]) * b[i];
  const double mag = std::abs(overlap);
  // Orthogonal states have no meaningful phase alignment; any phase
  // reports them as different, which is all the caller needs.
  const cplx phase = mag > 1e-12 ? overlap / mag : cplx(1.0, 0.0);
  double worst = 0.0;
  for (Index i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i] * std::conj(phase)));
  return worst;
}

}  // namespace hisim::testutil
