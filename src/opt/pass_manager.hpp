#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"

/// Compile-time circuit optimization: an ordered pipeline of
/// canonicalization passes run by Engine::compile *before* partitioning
/// (Options::opt_level), so every removed gate is also removed from the
/// partitioner's input, the exchange schedule, and every execute.
///
/// Passes rewrite only what they can prove: a gate is touched only when it
/// is adjacent to its partner on *every* shared qubit (gates on disjoint
/// qubits in between commute trivially and do not block). Two gate classes
/// are hard barriers — never removed, merged, or moved, and breaking
/// adjacency on their qubits:
///   - unbound symbolic gates (Gate::is_parametric()): their angles are
///     unknown at compile time, and rewriting around a value that arrives
///     at execute would change plan structure per binding;
///   - NoiseSlot gates: reserved insertion points trajectories substitute
///     sampled operators into — the slot must survive verbatim.
/// Consequently noisy and parameterized plans keep their compiled
/// structure bit-identical whether optimization is on or off.
namespace hisim {

/// Gate-count change attributed to one pass, accumulated over every
/// fixpoint round of a PassManager::run.
struct PassDelta {
  std::string pass;
  std::size_t removed = 0;
  bool operator==(const PassDelta&) const = default;
};

/// Accounting of one optimization run, recorded in the ExecutionPlan and
/// surfaced through Result::to_json and the CLI/bench --json output.
struct OptReport {
  unsigned opt_level = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// Fixpoint rounds actually executed (each round applies every pass).
  unsigned iterations = 0;
  /// One entry per pipeline pass, pipeline order.
  std::vector<PassDelta> deltas;

  std::size_t removed() const { return gates_before - gates_after; }
};

namespace passes {

/// True when the optimizer must leave `g` exactly where it is: unbound
/// symbolic gates and reserved noise slots (see the header comment).
bool is_barrier(const Gate& g);

/// Cancels adjacent inverse pairs: self-inverse gates repeated on the same
/// qubits (H, X, Y, Z, CX, CY, CZ, CH, SWAP, CCX, CSWAP, MCX) and the
/// dagger pairs S·S†, T·T†. Cancellation cascades: removing an inner pair
/// exposes the gates around it to each other within the same sweep.
Circuit cancel_inverses(const Circuit& c);

/// Merges adjacent same-axis rotations by angle summation: RX/RY/RZ/P on
/// one qubit, CRX/CRY/CRZ/CP with identical control/target roles, and the
/// symmetric two-qubit RZZ/RXX. The merged gate keeps the earlier gate's
/// position; a merged angle that lands on an identity multiple is removed
/// by drop_identities in the next round.
Circuit merge_rotations(const Circuit& c);

/// Drops rotations whose angle makes them the identity: RX/RY/RZ/RZZ/RXX
/// and P/CP at multiples of 2π (the former identity only up to a global
/// phase, e.g. RX(2π) = -I), and CRX/CRY/CRZ at multiples of 4π — at 2π a
/// controlled rotation is *not* the identity (CRZ(2π) applies Z to the
/// control up to global phase), a classic rewrite bug this pass refuses.
/// Plain `id` gates are kept: they are deliberate idle markers the noise
/// model attaches channels to (see circuits::noise_calibration).
Circuit drop_identities(const Circuit& c);

/// Moves single-qubit diagonal gates (Z, S, S†, T, T†, concrete RZ/P)
/// earlier past multi-qubit gates they commute with — gates that are
/// diagonal, or that merely *control* on the diagonal gate's qubit (CX
/// controls, CCX/MCX controls, the CSWAP control) — exposing cancellations
/// and merges such as CX·RZ(control)·CX → RZ(control)·CX·CX. Diagonal
/// gates never hop past single-qubit gates, so repeated application
/// terminates instead of ping-ponging.
Circuit commute_diagonals(const Circuit& c);

}  // namespace passes

/// An ordered pipeline of circuit-rewriting passes, applied round-robin to
/// a fixpoint (bounded), with per-pass gate-count accounting.
class PassManager {
 public:
  struct Pass {
    std::string name;
    std::function<Circuit(const Circuit&)> run;
  };

  void add(std::string name, std::function<Circuit(const Circuit&)> run) {
    pipeline_.push_back({std::move(name), std::move(run)});
  }
  const std::vector<Pass>& pipeline() const { return pipeline_; }

  /// Applies the pipeline in order, repeating the whole round until a full
  /// round changes nothing (capped at a fixed round budget — the passes
  /// only remove or reorder, so in practice two or three rounds suffice).
  /// Qubit count, name, and the symbolic-parameter registry are preserved.
  Circuit run(const Circuit& c, OptReport* report = nullptr) const;

  /// The opt_level 1 pipeline: commute-diagonals, cancel-inverses,
  /// merge-rotations, drop-identities.
  static PassManager default_pipeline();

 private:
  std::vector<Pass> pipeline_;
};

/// The Engine::compile entry point: level 0 returns `c` untouched, level 1
/// runs the default pipeline. Any other level throws hisim::Error (the
/// reject-bad-input policy — a typo'd level must not silently pick a
/// pipeline). `report`, when given, is always filled, so level 0 reports
/// zero removals rather than stale data.
Circuit optimize(const Circuit& c, unsigned opt_level,
                 OptReport* report = nullptr);

}  // namespace hisim
