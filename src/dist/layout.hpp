#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hisim::dist {

/// Cap on a run's width: runs hold at most 2^14 amplitudes (256 KiB), so
/// a pooled copy of a 2^l-amplitude shard still splits into 2^(l-14)
/// tasks however many low slots stay in place.
inline constexpr unsigned kMaxRunBits = 14;

/// Run width of a slot permutation: the number b of low slots it leaves in
/// place (perm[s] == s for every s < b), capped at kMaxRunBits. An index
/// map that moves bit s to bit perm[s] sends every aligned block of 2^b
/// consecutive indices to 2^b consecutive indices, so the shard copies
/// (exchange, gather, load) move whole runs and compute one index per run.
/// b = 0 when slot 0 moves: every amplitude is its own run.
unsigned run_bits(std::span<const unsigned> perm);

/// Placement of an n-qubit state vector across 2^p ranks.
///
/// A layout is a permutation assigning every circuit qubit to a *slot*:
/// slots [0, l) with l = n - p are **local qubits** (they address
/// amplitudes inside one rank's shard), slots [l, n) are **process
/// qubits** (slot l + j is bit j of the owning rank id). Writing the
/// combined index of an amplitude as c = (rank << l) | local, bit
/// slot_of(q) of c equals bit q of the amplitude's canonical global
/// index. The identity layout places qubit q at slot q.
///
/// Fig. 3 amplitude-placement convention (see test_layout.cpp
/// PaperFig3Example): with 4 qubits on 4 ranks under the identity layout
/// [a3,a2 | a1,a0], the top two qubits select the rank and the bottom two
/// the offset inside it, so amplitude a_0110 (global index 6) lives on
/// rank P(0,1) = 1 at local offset l(1,0) = 2. A redistribution to a
/// different layout permutes which qubits play the "rank" role — that is
/// the only communication HiSVSIM performs.
class RankLayout {
 public:
  /// Empty (0-qubit) placeholder so plan structs can default-construct;
  /// every real layout comes from the validating constructors.
  RankLayout() = default;

  /// Builds a layout from an explicit qubit→slot map: slot_of[q] is the
  /// slot of qubit q. Throws unless slot_of is a permutation of [0, n).
  RankLayout(unsigned num_qubits, unsigned process_qubits,
             std::vector<Qubit> slot_of);

  /// The identity layout: qubit q at slot q (low qubits local, top p
  /// qubits select the rank). This is the placement IQS-style simulators
  /// keep for a whole run.
  static RankLayout identity(unsigned num_qubits, unsigned process_qubits);

  /// Layout for executing one circuit part: every qubit in `part` becomes
  /// local, and qubits that do not have to move keep their `prev` slots
  /// (minimal-movement heuristic — each displaced process qubit swaps
  /// slots with the highest-slot local qubit outside the part). Returns a
  /// layout equal to `prev` when the part is already fully local, which
  /// lets the executor skip the exchange entirely. Throws if `part` has
  /// more than n - p qubits or invalid/duplicate entries.
  static RankLayout for_part(unsigned num_qubits, unsigned process_qubits,
                             const std::vector<Qubit>& part,
                             const RankLayout& prev);

  unsigned num_qubits() const { return n_; }
  unsigned process_qubits() const { return p_; }
  unsigned local_qubits() const { return n_ - p_; }
  unsigned num_ranks() const { return 1u << p_; }
  /// Amplitudes held by each rank: 2^(n-p).
  Index local_dim() const { return Index{1} << local_qubits(); }

  /// Slot of qubit q (see class comment).
  unsigned slot_of(Qubit q) const { return slot_of_[q]; }
  /// Qubit occupying slot s (inverse of slot_of).
  Qubit qubit_at(unsigned slot) const { return qubit_at_[slot]; }
  /// Width of the runs of consecutive local offsets whose global indices
  /// are consecutive too: run_bits of the local slots' qubit_at map.
  unsigned run_bits() const;
  /// True iff qubit q addresses amplitudes within a single rank.
  bool is_local(Qubit q) const { return slot_of_[q] < local_qubits(); }

  /// Canonical global amplitude index of (rank, local offset).
  Index global_index(unsigned rank, Index local) const;
  /// Inverse of global_index: which rank holds global amplitude g, and at
  /// which local offset.
  std::pair<unsigned, Index> locate(Index global) const;

  bool operator==(const RankLayout& o) const {
    return n_ == o.n_ && p_ == o.p_ && slot_of_ == o.slot_of_;
  }

 private:
  unsigned n_ = 0;
  unsigned p_ = 0;
  std::vector<Qubit> slot_of_;   // qubit -> slot
  std::vector<Qubit> qubit_at_;  // slot -> qubit
};

}  // namespace hisim::dist
