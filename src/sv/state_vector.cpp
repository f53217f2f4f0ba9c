#include "sv/state_vector.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"

namespace hisim::sv {
namespace {

constexpr Index kChunk = 64;    // amplitudes per sign-table lookup
constexpr unsigned kLanes = 8;  // accumulators: lane l sums indices ≡ l mod 8

/// One block's share of signed_probability_sum. Chunks of 64 amplitudes
/// take the sign of their low six index bits from `sign[0]`, and the sign
/// of the high bits once per chunk by reading `sign[1]` (its negation)
/// instead. Multiplying by ±1 is exact, so only the lane additions round,
/// in an order fixed by the indices alone. `lo` is a multiple of 64 when
/// the block holds a whole chunk (see BlockGrid); the scalar tail covers
/// states under 64 amplitudes.
double signed_block_sum(const cplx* amps, Index lo, Index hi, Index zmask,
                        const double (&sign)[2][kChunk]) {
  double lane[kLanes] = {};
  Index i = lo;
  for (; i + kChunk <= hi; i += kChunk) {
    const double* s = sign[bits::popcount(i & zmask) & 1u];
    const cplx* a = amps + i;
    for (Index j = 0; j < kChunk; j += kLanes)
      for (unsigned l = 0; l < kLanes; ++l)
        lane[l] += s[j + l] * std::norm(a[j + l]);
  }
  for (; i < hi; ++i)
    lane[i % kLanes] += sign[bits::popcount(i & zmask & ~(kChunk - 1)) & 1u]
                            [i % kChunk] *
                        std::norm(amps[i]);
  double sum = 0.0;
  for (double x : lane) sum += x;
  return sum;
}

}  // namespace

BlockGrid block_grid(Index n, Index max_blocks) {
  constexpr Index kGrain = Index{1} << 14;
  Index blocks = std::min((n + kGrain - 1) / kGrain, max_blocks);
  if (blocks == 0) blocks = 1;
  return {blocks, (n + blocks - 1) / blocks};
}

double signed_probability_sum(const StateVector& state, Index zmask) {
  double sign[2][kChunk];
  for (Index j = 0; j < kChunk; ++j) {
    sign[0][j] = (bits::popcount(j & zmask) & 1u) ? -1.0 : 1.0;
    sign[1][j] = -sign[0][j];
  }
  const Index n = state.size();
  const BlockGrid grid = block_grid(n);
  std::vector<double> partial(grid.blocks);
  parallel::for_range(
      0, grid.blocks,
      [&](Index lo, Index hi) {
        for (Index b = lo; b < hi; ++b)
          partial[b] =
              signed_block_sum(state.data(), b * grid.per,
                               std::min(n, (b + 1) * grid.per), zmask, sign);
      },
      /*grain=*/1);
  double sum = 0.0;
  for (double x : partial) sum += x;
  return sum;
}

double StateVector::norm() const { return signed_probability_sum(*this, 0); }

double StateVector::prob_one(Qubit q) const {
  HISIM_CHECK(q < num_qubits_);
  double p = 0.0;
  for (Index i = 0; i < size(); ++i)
    if (bits::test(i, q)) p += std::norm(amps_[i]);
  return p;
}

double StateVector::max_abs_diff(const StateVector& other) const {
  HISIM_CHECK(size() == other.size());
  double m = 0.0;
  for (Index i = 0; i < size(); ++i)
    m = std::max(m, std::abs(amps_[i] - other.amps_[i]));
  return m;
}

double StateVector::fidelity(const StateVector& other) const {
  HISIM_CHECK(size() == other.size());
  cplx ip = 0.0;
  for (Index i = 0; i < size(); ++i) ip += std::conj(amps_[i]) * other.amps_[i];
  return std::norm(ip);
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{});
  amps_[0] = 1.0;
}

void validate_norm_preserved(double expected, double actual,
                             const char* where) {
  // A unitary gate accumulates O(eps) relative norm drift per application;
  // 1e-9 absolute headroom covers tens of thousands of gates at double
  // precision while still catching any real loss (a dropped amplitude
  // pair changes the norm by its probability mass, orders of magnitude
  // above rounding).
  const double tol = 1e-9 * std::max(1.0, expected);
  HISIM_INVARIANT(std::abs(actual - expected) <= tol,
                  "state norm not preserved across unitary segment ["
                      << where << "]: expected " << expected << ", got "
                      << actual);
}

}  // namespace hisim::sv
