#include "sv/observables.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <set>
#include <sstream>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"

namespace hisim::sv {

PauliString PauliString::parse(const std::string& text) {
  PauliString out;
  std::set<Qubit> seen;
  auto add = [&](char op, Qubit q) {
    Pauli p;
    switch (std::toupper(op)) {
      case 'X': p = Pauli::X; break;
      case 'Y': p = Pauli::Y; break;
      case 'Z': p = Pauli::Z; break;
      case 'I': return;
      default:
        throw Error(std::string("bad Pauli operator '") + op + "'");
    }
    HISIM_CHECK_MSG(seen.insert(q).second,
                    "duplicate qubit " << q << " in Pauli string");
    out.factors.emplace_back(q, p);
  };
  // Indexed form? (contains a digit)
  const bool indexed = std::any_of(text.begin(), text.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c));
  });
  if (indexed) {
    std::size_t i = 0;
    while (i < text.size()) {
      const char c = text[i];
      if (c == '*' || c == ' ' || c == ',') { ++i; continue; }
      HISIM_CHECK_MSG(i + 1 < text.size() &&
                          std::isdigit(static_cast<unsigned char>(text[i + 1])),
                      "expected qubit index after '" << c << "'");
      std::size_t j = i + 1;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j])))
        ++j;
      // An index that does not fit a Qubit must fail here, not wrap to a
      // qubit PauliString::check accepts.
      Qubit q = 0;
      const auto [end, ec] =
          std::from_chars(text.data() + i + 1, text.data() + j, q);
      HISIM_CHECK_MSG(ec == std::errc() && end == text.data() + j,
                      "qubit index of Pauli factor '"
                          << text.substr(i, j - i) << "' is out of range");
      add(c, q);
      i = j;
    }
  } else {
    // One letter per qubit starting at qubit 0.
    Qubit q = 0;
    for (char c : text) {
      if (c == ' ') continue;
      add(c, q++);
    }
  }
  return out;
}

std::string PauliString::to_string() const {
  if (factors.empty()) return "I";
  std::ostringstream os;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (i) os << "*";
    os << "XYZ"[static_cast<int>(factors[i].second)] << factors[i].first;
  }
  return os.str();
}

void PauliString::check(unsigned num_qubits) const {
  Index seen = 0;
  for (const auto& [q, op] : factors) {
    HISIM_CHECK_MSG(q < num_qubits, "Pauli factor on qubit "
                                        << q << " outside the " << num_qubits
                                        << "-qubit register");
    const Index bit = Index{1} << q;
    HISIM_CHECK_MSG((seen & bit) == 0,
                    "qubit " << q << " repeated in Pauli string "
                             << to_string());
    seen |= bit;
  }
}

double expectation(const StateVector& state, const PauliString& p) {
  p.check(state.num_qubits());
  // P|i> = phase(i) |i ^ flip_mask>, with phase from Z and Y factors.
  Index flip = 0, zmask = 0, ymask = 0;
  for (const auto& [q, op] : p.factors) {
    switch (op) {
      case Pauli::X: flip |= Index{1} << q; break;
      case Pauli::Y: flip |= Index{1} << q; ymask |= Index{1} << q; break;
      case Pauli::Z: zmask |= Index{1} << q; break;
    }
  }
  // Diagonal string: no bit flip, so <psi|P|psi> is a signed sum of
  // probabilities, one deterministic pass over the block grid.
  if (flip == 0) return signed_probability_sum(state, zmask);
  const unsigned ny = bits::popcount(ymask);
  // Global factor from Y = i * X * Z decomposition: each Y contributes a
  // factor of i and acts as X (bit flip) combined with Z (sign on the
  // source bit). <psi|P|psi> = sum_i conj(a_{i^flip}) * phase(i) * a_i.
  cplx acc = 0.0;
  for (Index i = 0; i < state.size(); ++i) {
    const cplx a = state[i];
    if (a == cplx{}) continue;
    // Sign from Z factors and the Z-part of Y factors.
    const unsigned zbits = bits::popcount(i & (zmask | ymask));
    double sign = (zbits & 1u) ? -1.0 : 1.0;
    cplx phase = sign;
    // i^ny overall factor from the Y decomposition.
    switch (ny & 3u) {
      case 1: phase *= cplx(0, 1); break;
      case 2: phase *= -1.0; break;
      case 3: phase *= cplx(0, -1); break;
      default: break;
    }
    acc += std::conj(state[i ^ flip]) * phase * a;
  }
  HISIM_CHECK_MSG(std::abs(acc.imag()) < 1e-9,
                  "non-real Pauli expectation (bug): " << acc.imag());
  return acc.real();
}

double expectation(const StateVector& state,
                   const std::vector<std::pair<double, PauliString>>& ham) {
  double e = 0.0;
  for (const auto& [w, p] : ham) e += w * expectation(state, p);
  return e;
}

std::vector<double> marginal_probabilities(const StateVector& state,
                                           const std::vector<Qubit>& qubits) {
  for (Qubit q : qubits) HISIM_CHECK(q < state.num_qubits());
  const unsigned k = static_cast<unsigned>(qubits.size());
  HISIM_CHECK(k <= 30);
  std::vector<double> probs(Index{1} << k, 0.0);
  // Blocked accumulation over parallel::for_range: each block fills a
  // private table, merged serially in block order (deterministic). Cap
  // the block count so the partial tables never dominate the state
  // itself when the marginal register is wide.
  const Index table = probs.size();
  const BlockGrid grid = block_grid(
      state.size(), std::max<Index>(1, state.size() / std::max<Index>(
                                           Index{1}, table)));
  const auto accumulate = [&](std::vector<double>& into, Index lo,
                              Index hi) {
    for (Index i = lo; i < hi; ++i) {
      const double pr = std::norm(state[i]);
      if (pr == 0.0) continue;
      Index code = 0;
      for (unsigned j = 0; j < k; ++j)
        code |= static_cast<Index>(bits::test(i, qubits[j])) << j;
      into[code] += pr;
    }
  };
  if (grid.blocks <= 1) {
    accumulate(probs, 0, state.size());
    return probs;
  }
  std::vector<std::vector<double>> partial(grid.blocks);
  parallel::for_range(
      0, grid.blocks,
      [&](Index lo, Index hi) {
        for (Index b = lo; b < hi; ++b) {
          partial[b].assign(table, 0.0);
          accumulate(partial[b], b * grid.per,
                     std::min(state.size(), (b + 1) * grid.per));
        }
      },
      /*grain=*/1);
  for (const std::vector<double>& local : partial)
    for (Index j = 0; j < table; ++j) probs[j] += local[j];
  return probs;
}

std::vector<Index> sample(const StateVector& state, std::size_t shots,
                          Rng& rng) {
  // Cumulative distribution + binary search per shot. The prefix sum is
  // built as a two-pass block scan over parallel::for_range: pass 1
  // computes within-block inclusive prefixes and block totals, a serial
  // exclusive scan turns the totals into block offsets (fixed fp order),
  // and pass 2 adds each block's offset back in. Shots are then drawn
  // against the total mass, so an unnormalized state — e.g. a weighted
  // Kraus-unraveling trajectory — samples its *normalized* distribution.
  const Index n = state.size();
  std::vector<double> cdf(n);
  const BlockGrid grid = block_grid(n);
  std::vector<double> block_sum(grid.blocks, 0.0);
  parallel::for_range(
      0, grid.blocks,
      [&](Index lo, Index hi) {
        for (Index b = lo; b < hi; ++b) {
          const Index end = std::min(n, (b + 1) * grid.per);
          double acc = 0.0;
          for (Index i = b * grid.per; i < end; ++i) {
            acc += std::norm(state[i]);
            cdf[i] = acc;
          }
          block_sum[b] = acc;
        }
      },
      /*grain=*/1);
  double total = 0.0;
  std::vector<double> offset(grid.blocks);
  for (Index b = 0; b < grid.blocks; ++b) {
    offset[b] = total;
    total += block_sum[b];
  }
  parallel::for_range(
      1, grid.blocks,
      [&](Index lo, Index hi) {
        for (Index b = lo; b < hi; ++b) {
          const Index end = std::min(n, (b + 1) * grid.per);
          for (Index i = b * grid.per; i < end; ++i) cdf[i] += offset[b];
        }
      },
      /*grain=*/1);
  HISIM_CHECK_MSG(total > 0.0, "cannot sample from a zero-norm state");
  std::vector<Index> out(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const double u = rng.uniform() * total;
    out[s] = static_cast<Index>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
  return out;
}

}  // namespace hisim::sv
