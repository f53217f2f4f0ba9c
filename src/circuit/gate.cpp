#include "circuit/gate.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/check.hpp"

namespace hisim {
namespace {

constexpr cplx kI{0.0, 1.0};

Matrix m2(cplx a, cplx b, cplx c, cplx d) {
  return Matrix::from_rows(2, 2, {a, b, c, d});
}

/// 2x2 base matrices for single-target kinds.
Matrix base2(GateKind kind, const std::vector<double>& p) {
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  switch (kind) {
    case GateKind::I: case GateKind::NoiseSlot: return Matrix::identity(2);
    case GateKind::X: case GateKind::CX: case GateKind::CCX:
    case GateKind::MCX:
      return m2(0, 1, 1, 0);
    case GateKind::Y: case GateKind::CY: return m2(0, -kI, kI, 0);
    case GateKind::Z: case GateKind::CZ: return m2(1, 0, 0, -1);
    case GateKind::H: case GateKind::CH:
      return m2(inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
    case GateKind::S: return m2(1, 0, 0, kI);
    case GateKind::Sdg: return m2(1, 0, 0, -kI);
    case GateKind::T: return m2(1, 0, 0, std::exp(kI * (M_PI / 4)));
    case GateKind::Tdg: return m2(1, 0, 0, std::exp(-kI * (M_PI / 4)));
    case GateKind::SX:
      return m2(cplx(0.5, 0.5), cplx(0.5, -0.5), cplx(0.5, -0.5),
                cplx(0.5, 0.5));
    case GateKind::RX: case GateKind::CRX: {
      const double t = p.at(0) / 2;
      return m2(std::cos(t), -kI * std::sin(t), -kI * std::sin(t), std::cos(t));
    }
    case GateKind::RY: case GateKind::CRY: {
      const double t = p.at(0) / 2;
      return m2(std::cos(t), -std::sin(t), std::sin(t), std::cos(t));
    }
    case GateKind::RZ: case GateKind::CRZ: {
      const double t = p.at(0) / 2;
      return m2(std::exp(-kI * t), 0, 0, std::exp(kI * t));
    }
    case GateKind::P: case GateKind::CP:
      return m2(1, 0, 0, std::exp(kI * p.at(0)));
    case GateKind::U2: {
      const double phi = p.at(0), lam = p.at(1);
      const double s = 1.0 / std::sqrt(2.0);
      return m2(s, -s * std::exp(kI * lam), s * std::exp(kI * phi),
                s * std::exp(kI * (phi + lam)));
    }
    case GateKind::U3: case GateKind::CU3: {
      const double th = p.at(0), phi = p.at(1), lam = p.at(2);
      return m2(std::cos(th / 2), -std::exp(kI * lam) * std::sin(th / 2),
                std::exp(kI * phi) * std::sin(th / 2),
                std::exp(kI * (phi + lam)) * std::cos(th / 2));
    }
    default:
      throw Error("gate kind has no 2x2 base matrix: " + gate_name(kind));
  }
}

/// Builds the 2^k unitary for `controls` low bits controlling `base` on the
/// top bit, matching the [controls..., target] qubit convention.
Matrix controlled_matrix(const Matrix& base, unsigned num_controls) {
  const std::size_t k = num_controls + 1;
  const std::size_t n = std::size_t{1} << k;
  const std::size_t ctrl_mask = (std::size_t{1} << num_controls) - 1;
  Matrix m = Matrix::identity(n);
  // Rows with all control bits set: base acts on the target bit.
  const std::size_t tbit = std::size_t{1} << num_controls;
  for (std::size_t row = 0; row < n; ++row) {
    if ((row & ctrl_mask) != ctrl_mask) continue;
    const bool t = (row & tbit) != 0;
    m(row, row) = base(t, t);
    m(row, row ^ tbit) = base(t, !t);
  }
  return m;
}

/// Operand count of every kind but MCX and Unitary, whose width the gate
/// chooses (0 for those two).
std::size_t fixed_arity(GateKind kind) {
  switch (kind) {
    case GateKind::MCX: case GateKind::Unitary: return 0;
    case GateKind::CCX: case GateKind::CSWAP: return 3;
    case GateKind::SWAP: case GateKind::RZZ: case GateKind::RXX: return 2;
    default: {
      Gate g;  // a controlled kind's controls, then its target
      g.kind = kind;
      return 1 + g.num_controls();
    }
  }
}

}  // namespace

unsigned gate_param_count(GateKind kind) {
  switch (kind) {
    case GateKind::RX: case GateKind::RY: case GateKind::RZ:
    case GateKind::P: case GateKind::CRX: case GateKind::CRY:
    case GateKind::CRZ: case GateKind::CP: case GateKind::RZZ:
    case GateKind::RXX:
    case GateKind::NoiseSlot:  // the slot id rides in params[0]
      return 1;
    case GateKind::U2: return 2;
    case GateKind::U3: case GateKind::CU3: return 3;
    default: return 0;
  }
}

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::I: return "id";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::H: return "h";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdg";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdg";
    case GateKind::SX: return "sx";
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::RZ: return "rz";
    case GateKind::P: return "u1";
    case GateKind::U2: return "u2";
    case GateKind::U3: return "u3";
    case GateKind::CX: return "cx";
    case GateKind::CY: return "cy";
    case GateKind::CZ: return "cz";
    case GateKind::CH: return "ch";
    case GateKind::CRX: return "crx";
    case GateKind::CRY: return "cry";
    case GateKind::CRZ: return "crz";
    case GateKind::CP: return "cu1";
    case GateKind::CU3: return "cu3";
    case GateKind::SWAP: return "swap";
    case GateKind::RZZ: return "rzz";
    case GateKind::RXX: return "rxx";
    case GateKind::CCX: return "ccx";
    case GateKind::CSWAP: return "cswap";
    case GateKind::MCX: return "mcx";
    case GateKind::Unitary: return "unitary";
    case GateKind::NoiseSlot: return "noise";
  }
  return "?";
}

bool Gate::is_parametric() const {
  for (const ParamExpr& e : params)
    if (e.symbolic) return true;
  return false;
}

unsigned Gate::num_controls() const {
  switch (kind) {
    case GateKind::CX: case GateKind::CY: case GateKind::CZ:
    case GateKind::CH: case GateKind::CRX: case GateKind::CRY:
    case GateKind::CRZ: case GateKind::CP: case GateKind::CU3:
      return 1;
    case GateKind::CCX: return 2;
    case GateKind::MCX: return arity() - 1;
    default: return 0;
  }
}

std::span<const Qubit> Gate::moved_qubits() const {
  if (is_diagonal()) return {};
  // Controls come first; CSWAP's one control is not counted by
  // num_controls().
  const std::size_t first = kind == GateKind::CSWAP ? 1 : num_controls();
  return std::span(qubits).subspan(first);
}

bool Gate::is_diagonal() const {
  switch (kind) {
    case GateKind::I: case GateKind::Z: case GateKind::S: case GateKind::Sdg:
    case GateKind::T: case GateKind::Tdg: case GateKind::RZ:
    case GateKind::P: case GateKind::CZ: case GateKind::CRZ:
    case GateKind::CP: case GateKind::RZZ:
    case GateKind::NoiseSlot:  // identity until a trajectory fills it
      return true;
    default:
      return false;
  }
}

namespace {

/// Materializes the parameter list under `bound` (throws, naming the
/// parameter, when a symbolic entry is not covered).
std::vector<double> resolved_params(const std::vector<ParamExpr>& params,
                                    std::span<const double> bound) {
  std::vector<double> out;
  out.reserve(params.size());
  for (const ParamExpr& e : params) out.push_back(e.value_at(bound));
  return out;
}

}  // namespace

Matrix Gate::matrix(std::span<const double> bound) const {
  switch (kind) {
    case GateKind::SWAP:
      return Matrix::from_rows(4, 4,
                               {1, 0, 0, 0,
                                0, 0, 1, 0,
                                0, 1, 0, 0,
                                0, 0, 0, 1});
    case GateKind::CSWAP: {
      // qubits = [control(bit0), a(bit1), b(bit2)]
      Matrix m = Matrix::identity(8);
      // swap bits 1 and 2 when bit0 set: indices 0b011 (3) <-> 0b101 (5)
      m(3, 3) = 0; m(5, 5) = 0; m(3, 5) = 1; m(5, 3) = 1;
      return m;
    }
    case GateKind::RZZ: {
      const double t = params.at(0).value_at(bound) / 2;
      Matrix m(4, 4);
      // exp(-i t Z⊗Z): phase exp(-it) on |00>,|11>; exp(+it) on |01>,|10>
      m(0, 0) = std::exp(-kI * t);
      m(1, 1) = std::exp(kI * t);
      m(2, 2) = std::exp(kI * t);
      m(3, 3) = std::exp(-kI * t);
      return m;
    }
    case GateKind::RXX: {
      const double t = params.at(0).value_at(bound) / 2;
      const cplx c = std::cos(t), s = -kI * std::sin(t);
      return Matrix::from_rows(4, 4,
                               {c, 0, 0, s,
                                0, c, s, 0,
                                0, s, c, 0,
                                s, 0, 0, c});
    }
    case GateKind::Unitary:
      return custom;
    default: {
      const unsigned nc = num_controls();
      HISIM_CHECK_MSG(arity() <= 12, "matrix() limited to 12 qubits");
      const Matrix base = base2(kind, resolved_params(params, bound));
      return nc == 0 ? base : controlled_matrix(base, nc);
    }
  }
}

Matrix Gate::target_matrix(std::span<const double> bound) const {
  return base2(kind, resolved_params(params, bound));
}

std::string Gate::to_string() const {
  std::ostringstream os;
  os << gate_name(kind);
  if (!params.empty()) {
    os << "(";
    for (std::size_t i = 0; i < params.size(); ++i)
      os << (i ? "," : "") << params[i].to_string();
    os << ")";
  }
  os << " ";
  for (std::size_t i = 0; i < qubits.size(); ++i)
    os << (i ? "," : "") << "q[" << qubits[i] << "]";
  return os.str();
}

bool Gate::operator==(const Gate& o) const {
  return kind == o.kind && qubits == o.qubits && params == o.params &&
         (kind != GateKind::Unitary ||
          (custom.rows() == o.custom.rows() && custom.max_abs_diff(o.custom) == 0));
}

Gate Gate::mcx(std::vector<Qubit> controls_then_target) {
  HISIM_CHECK(controls_then_target.size() >= 2);
  return make(GateKind::MCX, std::move(controls_then_target), {});
}

Gate Gate::unitary(std::vector<Qubit> qubits, Matrix u) {
  HISIM_CHECK_MSG(u.is_unitary(1e-9), "matrix is not unitary");
  return kraus(std::move(qubits), std::move(u));
}

Gate Gate::kraus(std::vector<Qubit> qubits, Matrix k) {
  const std::size_t n = std::size_t{1} << qubits.size();
  HISIM_CHECK_MSG(k.rows() == n && k.cols() == n,
                  "operator dim mismatch with qubit count");
  Gate g = make(GateKind::Unitary, std::move(qubits), {});
  g.custom = std::move(k);
  return g;
}

Gate Gate::noise_slot(Qubit q, unsigned slot) {
  // The slot id rides as a concrete ParamExpr: it survives Circuit::bound
  // and lower() untouched (both preserve concrete params), so slots stay
  // identifiable by content no matter how gate indices shift.
  return make(GateKind::NoiseSlot, {q},
              {ParamExpr(static_cast<double>(slot))});
}

unsigned Gate::noise_slot_id() const {
  HISIM_CHECK_MSG(kind == GateKind::NoiseSlot,
                  "noise_slot_id() on " << gate_name(kind));
  return static_cast<unsigned>(params.at(0).value());
}

Gate Gate::make(GateKind kind, std::vector<Qubit> qs,
                std::vector<ParamExpr> ps) {
  HISIM_CHECK_MSG(ps.size() == gate_param_count(kind),
                  "wrong parameter count for " << gate_name(kind));
  const std::size_t width = fixed_arity(kind);
  HISIM_CHECK_MSG(width == 0 || qs.size() == width,
                  "wrong operand count for " << gate_name(kind) << ": expected "
                                             << width << ", got "
                                             << qs.size());
  std::set<Qubit> uniq(qs.begin(), qs.end());
  HISIM_CHECK_MSG(uniq.size() == qs.size(),
                  "duplicate qubit operands in " << gate_name(kind));
  Gate g;
  g.kind = kind;
  g.qubits = std::move(qs);
  g.params = std::move(ps);
  return g;
}

}  // namespace hisim
