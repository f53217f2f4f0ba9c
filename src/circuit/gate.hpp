#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/matrix.hpp"
#include "circuit/param.hpp"
#include "common/types.hpp"

namespace hisim {

/// Gate vocabulary. Mirrors the OpenQASM 2.0 qelib1 set used by
/// QASMBench, plus the two-qubit rotations (RZZ/RXX) common in Ising/QAOA
/// circuits and a raw-unitary escape hatch.
enum class GateKind {
  // single qubit
  I, X, Y, Z, H, S, Sdg, T, Tdg, SX,
  RX, RY, RZ, P,      // P == U1: phase gate
  U2, U3,
  // controlled single-target
  CX, CY, CZ, CH, CRX, CRY, CRZ, CP, CU3,
  // other two qubit
  SWAP, RZZ, RXX,
  // three qubit
  CCX, CSWAP,
  // n-control X (controls = all but last qubit)
  MCX,
  // raw unitary on qubits.size() qubits
  Unitary,
  // reserved noise-insertion point (identity until a trajectory samples a
  // concrete operator into it; see src/noise/). Carries its slot id.
  NoiseSlot,
};

/// Number of parameters each kind takes (Unitary carries a matrix instead).
unsigned gate_param_count(GateKind kind);

/// Lower-case mnemonic matching qelib1 naming (cp -> "cu1", p -> "u1").
std::string gate_name(GateKind kind);

/// A gate application: `kind` acting on `qubits` (for controlled kinds the
/// *last* qubit is the target, all earlier ones are controls) with
/// `params` (rotation angles, in radians) — each either a concrete value
/// or a symbolic ParamExpr bound at execute time.
///
/// Local-index convention: for a k-qubit gate, bit j of the local index
/// corresponds to qubits[j]; unitaries returned by matrix() are expressed
/// in this basis.
struct Gate {
  GateKind kind = GateKind::I;
  std::vector<Qubit> qubits;
  std::vector<ParamExpr> params;
  Matrix custom;  // only for kind == Unitary

  unsigned arity() const { return static_cast<unsigned>(qubits.size()); }

  /// Number of control qubits (0 for non-controlled kinds; for MCX all but
  /// the last qubit).
  unsigned num_controls() const;

  /// True if any parameter is still symbolic — the gate's unitary cannot
  /// be materialized without a binding context.
  bool is_parametric() const;

  /// True if the gate's unitary is diagonal in the computational basis.
  /// Diagonality is a property of the gate *kind* alone — no rotation
  /// angle can break it — so no binding context is needed and compile-time
  /// passes may call this on symbolic gates.
  bool is_diagonal() const;

  /// The qubits the gate moves amplitudes along: none for a diagonal
  /// gate, the target of a controlled gate, the swapped pair of SWAP and
  /// CSWAP, every qubit of any other gate. The others (controls and the
  /// qubits of diagonal gates) only select which amplitudes it touches
  /// and by which phase, so a block of amplitudes that fixes them still
  /// holds every amplitude the gate mixes.
  std::span<const Qubit> moved_qubits() const;

  /// The full 2^k x 2^k unitary in the local-index convention above,
  /// materialized under `bound` (parameter values indexed by param id; see
  /// resolve_binding). Concrete gates ignore `bound`; symbolic gates throw
  /// hisim::Error naming the parameter when it is not covered. Throws for
  /// MCX with more than 12 qubits (callers use the controlled fast path
  /// instead).
  Matrix matrix(std::span<const double> bound = {}) const;

  /// The 2x2 base matrix applied to the target qubit for controlled kinds
  /// and plain single-qubit kinds, materialized under `bound` like
  /// matrix(). Throws for SWAP/RZZ/RXX/CSWAP/Unitary.
  Matrix target_matrix(std::span<const double> bound = {}) const;

  /// Human-readable form, e.g. "cx q[0],q[3]" or "rz(0.5) q[2]".
  std::string to_string() const;

  bool operator==(const Gate& o) const;

  // ---- factories ------------------------------------------------------
  static Gate i(Qubit q) { return make(GateKind::I, {q}, {}); }
  static Gate x(Qubit q) { return make(GateKind::X, {q}, {}); }
  static Gate y(Qubit q) { return make(GateKind::Y, {q}, {}); }
  static Gate z(Qubit q) { return make(GateKind::Z, {q}, {}); }
  static Gate h(Qubit q) { return make(GateKind::H, {q}, {}); }
  static Gate s(Qubit q) { return make(GateKind::S, {q}, {}); }
  static Gate sdg(Qubit q) { return make(GateKind::Sdg, {q}, {}); }
  static Gate t(Qubit q) { return make(GateKind::T, {q}, {}); }
  static Gate tdg(Qubit q) { return make(GateKind::Tdg, {q}, {}); }
  static Gate sx(Qubit q) { return make(GateKind::SX, {q}, {}); }
  // Parametric factories accept a concrete double or a symbolic
  // expression (Param, coeff * Param + offset) interchangeably.
  static Gate rx(Qubit q, ParamExpr th) {
    return make(GateKind::RX, {q}, {std::move(th)});
  }
  static Gate ry(Qubit q, ParamExpr th) {
    return make(GateKind::RY, {q}, {std::move(th)});
  }
  static Gate rz(Qubit q, ParamExpr th) {
    return make(GateKind::RZ, {q}, {std::move(th)});
  }
  static Gate p(Qubit q, ParamExpr lam) {
    return make(GateKind::P, {q}, {std::move(lam)});
  }
  static Gate u2(Qubit q, ParamExpr phi, ParamExpr lam) {
    return make(GateKind::U2, {q}, {std::move(phi), std::move(lam)});
  }
  static Gate u3(Qubit q, ParamExpr th, ParamExpr phi, ParamExpr lam) {
    return make(GateKind::U3, {q}, {std::move(th), std::move(phi),
                                    std::move(lam)});
  }
  static Gate cx(Qubit c, Qubit t) { return make(GateKind::CX, {c, t}, {}); }
  static Gate cy(Qubit c, Qubit t) { return make(GateKind::CY, {c, t}, {}); }
  static Gate cz(Qubit c, Qubit t) { return make(GateKind::CZ, {c, t}, {}); }
  static Gate ch(Qubit c, Qubit t) { return make(GateKind::CH, {c, t}, {}); }
  static Gate crx(Qubit c, Qubit t, ParamExpr th) {
    return make(GateKind::CRX, {c, t}, {std::move(th)});
  }
  static Gate cry(Qubit c, Qubit t, ParamExpr th) {
    return make(GateKind::CRY, {c, t}, {std::move(th)});
  }
  static Gate crz(Qubit c, Qubit t, ParamExpr th) {
    return make(GateKind::CRZ, {c, t}, {std::move(th)});
  }
  static Gate cp(Qubit c, Qubit t, ParamExpr lam) {
    return make(GateKind::CP, {c, t}, {std::move(lam)});
  }
  static Gate cu3(Qubit c, Qubit t, ParamExpr th, ParamExpr phi,
                  ParamExpr lam) {
    return make(GateKind::CU3, {c, t}, {std::move(th), std::move(phi),
                                        std::move(lam)});
  }
  static Gate swap(Qubit a, Qubit b) { return make(GateKind::SWAP, {a, b}, {}); }
  static Gate rzz(Qubit a, Qubit b, ParamExpr th) {
    return make(GateKind::RZZ, {a, b}, {std::move(th)});
  }
  static Gate rxx(Qubit a, Qubit b, ParamExpr th) {
    return make(GateKind::RXX, {a, b}, {std::move(th)});
  }
  static Gate ccx(Qubit c0, Qubit c1, Qubit t) {
    return make(GateKind::CCX, {c0, c1, t}, {});
  }
  static Gate cswap(Qubit c, Qubit a, Qubit b) {
    return make(GateKind::CSWAP, {c, a, b}, {});
  }
  static Gate mcx(std::vector<Qubit> controls_then_target);
  static Gate unitary(std::vector<Qubit> qubits, Matrix u);
  /// Like unitary(), but skips the unitarity check: an arbitrary linear
  /// operator (kind == Unitary). Used for stochastic Kraus-unraveling
  /// operators (K/sqrt(q) is generally non-unitary) and for internal
  /// matrix restrictions; the kernels apply any matrix exactly.
  static Gate kraus(std::vector<Qubit> qubits, Matrix k);
  /// Reserved noise-insertion point on `q` (see src/noise/trajectory.hpp):
  /// applies as an exact identity until a trajectory substitutes its
  /// sampled operator. `slot` is the id sample_ops() indexes by.
  static Gate noise_slot(Qubit q, unsigned slot);
  /// The slot id of a NoiseSlot gate (throws for any other kind).
  unsigned noise_slot_id() const;
  /// The one constructor behind every factory above: a `kind` gate on
  /// `qs` with `ps`. Throws hisim::Error unless `qs` holds no qubit twice
  /// and has the kind's operand count (any for MCX and Unitary, whose
  /// factories check their own), and `ps` its parameter count.
  static Gate make(GateKind kind, std::vector<Qubit> qs,
                   std::vector<ParamExpr> ps);
};

}  // namespace hisim
