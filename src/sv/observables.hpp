#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// One Pauli factor acting on a qubit.
enum class Pauli { X, Y, Z };

/// A Pauli string observable: a product of single-qubit Paulis on distinct
/// qubits (identity elsewhere), e.g. Z0*Z3 or X1*Y2.
struct PauliString {
  std::vector<std::pair<Qubit, Pauli>> factors;

  /// Parses forms like "Z0*Z3", "X1 Y2", "ZZ" (one letter per qubit from
  /// qubit 0). Throws on malformed input.
  static PauliString parse(const std::string& text);
  std::string to_string() const;

  /// Throws Error, naming the qubit, unless every factor acts on a
  /// distinct qubit below `num_qubits`. parse() rejects repeats itself;
  /// this also covers factor lists built by hand.
  void check(unsigned num_qubits) const;
};

/// <state| P |state> (always real for Hermitian P). O(2^n). Throws as
/// PauliString::check does. A string of Z factors only (the empty string
/// included) is signed_probability_sum over its qubits: one pass at
/// memory speed whose value is the same bits at any thread count, pooled
/// or inline; the empty string equals state.norm() bit for bit.
double expectation(const StateVector& state, const PauliString& p);

/// Expectation of a weighted sum of Pauli strings (e.g. an Ising / MaxCut
/// Hamiltonian).
double expectation(const StateVector& state,
                   const std::vector<std::pair<double, PauliString>>& ham);

/// Probability of each basis state of the `qubits` sub-register (marginal
/// over all other qubits). Result has 2^|qubits| entries; bit j of the
/// entry index corresponds to qubits[j].
std::vector<double> marginal_probabilities(const StateVector& state,
                                           const std::vector<Qubit>& qubits);

/// Draws `shots` measurement outcomes in the computational basis
/// (full-register bitstrings), using binary search over the cumulative
/// distribution. Deterministic for a fixed Rng seed.
std::vector<Index> sample(const StateVector& state, std::size_t shots,
                          Rng& rng);

}  // namespace hisim::sv
