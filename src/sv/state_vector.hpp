#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace hisim::sv {

/// Dense state vector of an n-qubit register (2^n complex amplitudes,
/// little-endian: bit q of an index is qubit q). Initialized to |0...0>.
class StateVector {
 public:
  StateVector() = default;
  explicit StateVector(unsigned num_qubits) : num_qubits_(num_qubits) {
    // Validate before allocating (2^35 amplitudes = 512 GiB).
    HISIM_CHECK_MSG(num_qubits <= 34, "state vector would exceed 256 GiB");
    amps_.assign(dim(num_qubits), cplx{});
    amps_[0] = 1.0;
  }

  unsigned num_qubits() const { return num_qubits_; }
  Index size() const { return amps_.size(); }
  Index bytes() const { return size() * kAmpBytes; }

  cplx& operator[](Index i) { return amps_[i]; }
  const cplx& operator[](Index i) const { return amps_[i]; }

  cplx* data() { return amps_.data(); }
  const cplx* data() const { return amps_.data(); }

  /// Sum of |a_i|^2 (1.0 for a normalized state):
  /// signed_probability_sum(*this, 0), so the same bits at any thread
  /// count, pooled or inline.
  double norm() const;

  /// Probability of measuring qubit q as 1.
  double prob_one(Qubit q) const;

  /// Largest |a_i - b_i| between two states of equal size.
  double max_abs_diff(const StateVector& other) const;

  /// |<this|other>|^2 (1.0 iff identical up to global phase).
  double fidelity(const StateVector& other) const;

  /// Resets to |0...0>.
  void reset();

 private:
  unsigned num_qubits_ = 0;
  std::vector<cplx> amps_;
};

/// Cache limit in qubits: the width of apply_gates' blocks, and the
/// default width of a second-level part, on the hierarchical target (its
/// auto limit) and inside every shard of the distributed targets (their
/// auto level-2 limit). compile_plan moves each level-2 part's moved
/// qubits below it, so the part's gates run block by block. 2^16
/// amplitudes of 16 B are 1 MiB, half of one core's 2 MiB L2 on the
/// reference host (4 cores, 2 MiB L2 each, 105 MiB shared L3), so a block
/// stays in its core's L2 while a run of gates acts on it. In probes at
/// n = 22-24 on 4 threads, limits of 15-17 ran the distributed and sweep
/// cases fastest, and 21 (one LLC-sized vector) ran them up to 1.8x
/// slower. A constant rather than a run-time cache probe, so a plan is a
/// function of (circuit, Options) alone on every host.
inline constexpr unsigned kCacheQubits = 16;

/// Fixed, machine-independent block grid for deterministic parallel
/// reductions over a state's amplitudes (norm, expectations, marginals,
/// sampling): per-block partials are computed concurrently and merged
/// serially in block order, so the floating-point summation order — and
/// therefore every downstream bit — is identical no matter how many
/// workers ran. For a power-of-two `n` and `max_blocks`, `per` is a power
/// of two, so every block of 64 or more amplitudes starts on a multiple
/// of 64.
struct BlockGrid {
  Index blocks;
  Index per;  // amplitudes per block (last block may be short)
};

BlockGrid block_grid(Index n, Index max_blocks = 256);

/// Σ_i (−1)^|i & zmask| · |a_i|^2: the expectation of the Z string on the
/// qubits of `zmask`, and the norm at zmask = 0. One pass at memory speed
/// over block_grid(state.size()), pooled when called outside a pool
/// region and inline inside one; the value is a pure function of the
/// state and the mask (same bits at any thread count).
double signed_probability_sum(const StateVector& state, Index zmask);

/// Deep validator (see common/check.hpp): aborts unless `actual` matches
/// `expected` within the accumulated-rounding tolerance a unitary gate
/// sequence may introduce. `where` names the seam for the failure message.
/// Called by the execute paths of checked builds after every unitary
/// segment; callable directly by tests (death tests corrupt a norm and
/// assert the abort).
void validate_norm_preserved(double expected, double actual,
                             const char* where);

}  // namespace hisim::sv
