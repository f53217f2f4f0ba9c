#include "dist/iqs_baseline.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "sv/kernels.hpp"

namespace hisim::dist {
namespace {

/// Gate-operand positions whose amplitude-index bit the gate can change:
/// control bits never flip, diagonal gates flip nothing, everything else
/// is conservatively treated as mixing.
std::vector<bool> mixing_positions(const Gate& g) {
  std::vector<bool> mixing(g.arity(), false);
  if (g.is_diagonal()) return mixing;
  for (unsigned j = g.num_controls(); j < g.arity(); ++j) mixing[j] = true;
  return mixing;
}

/// Restricts the 2^k unitary `m` to the subspace where operand position j
/// is fixed to `fixed[j]` (entries < 0 stay free), producing the operator
/// on the free positions in order. Valid because control/diagonal
/// positions make `m` block-diagonal across the fixed bits.
Matrix restrict_matrix(const Matrix& m, const std::vector<int>& fixed) {
  unsigned free_count = 0;
  for (int f : fixed)
    if (f < 0) ++free_count;
  const Index fdim = Index{1} << free_count;
  auto expand = [&fixed](Index x) {
    Index full = 0;
    unsigned bit = 0;
    for (unsigned j = 0; j < fixed.size(); ++j) {
      const bool v = fixed[j] < 0 ? bits::test(x, bit++) : fixed[j] != 0;
      if (v) full |= Index{1} << j;
    }
    return full;
  };
  Matrix out(fdim, fdim);
  for (Index r = 0; r < fdim; ++r)
    for (Index c = 0; c < fdim; ++c)
      out(r, c) = m(expand(r), expand(c));
  return out;
}

bool is_identity(const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (m(r, c) != (r == c ? cplx{1.0} : cplx{})) return false;
  return true;
}

}  // namespace

void IqsBaselineSimulator::run(const Circuit& c, DistState& state,
                               const NetworkModel& net,
                               std::map<std::string, double>* metrics,
                               const sv::KernelOps* kernels) const {
  const sv::KernelOps& kops =
      kernels != nullptr ? *kernels : sv::kernel_ops();
  const unsigned n = c.num_qubits();
  HISIM_CHECK(state.num_qubits() == n);
  const unsigned l = state.layout().local_qubits();
  HISIM_CHECK_MSG(
      state.layout() == RankLayout::identity(n, state.layout().process_qubits()),
      "IQS baseline requires the identity layout");
  const unsigned v = state.num_ranks();
  const Index ldim = state.layout().local_dim();

  CommStats comm;
  Stopwatch compute;

  std::int64_t gate_index = 0;
  for (const Gate& g : c.gates()) {
    trace::TraceSpan gate_span("gate", "iqs");
    gate_span.arg("index", gate_index++);
    const bool any_global =
        std::any_of(g.qubits.begin(), g.qubits.end(),
                    [l](Qubit q) { return q >= l; });
    if (!any_global) {
      // Under the identity layout local qubit == local slot: apply as-is.
      compute.start();
      for (unsigned r = 0; r < v; ++r) sv::apply_gate(state.local(r), g, kops);
      compute.stop();
      continue;
    }

    const std::vector<bool> mixing = mixing_positions(g);
    std::vector<unsigned> global_mixing;  // positions, ascending qubit order
    for (unsigned j = 0; j < g.arity(); ++j)
      if (mixing[j] && g.qubits[j] >= l) global_mixing.push_back(j);

    const Matrix m = g.matrix();

    if (global_mixing.empty()) {
      // Diagonal action / controls on process qubits: every rank knows its
      // own process-qubit values, so the gate restricts to a rank-local
      // operator (possibly the identity, or a pure scalar phase).
      compute.start();
      for (unsigned r = 0; r < v; ++r) {
        std::vector<int> fixed(g.arity(), -1);
        std::vector<Qubit> local_ops;
        for (unsigned j = 0; j < g.arity(); ++j) {
          if (g.qubits[j] >= l)
            fixed[j] = bits::test(r, g.qubits[j] - l) ? 1 : 0;
          else
            local_ops.push_back(g.qubits[j]);
        }
        const Matrix sub = restrict_matrix(m, fixed);
        if (is_identity(sub)) continue;
        if (local_ops.empty()) {
          const cplx phase = sub(0, 0);
          for (Index i = 0; i < ldim; ++i) state.local(r)[i] *= phase;
        } else {
          // kraus(): restrictions of trajectory-sampled Kraus operators
          // are not unitary; for unitary gates this is the same matrix
          // the unitary() path would have carried.
          sv::apply_gate(state.local(r), Gate::kraus(local_ops, sub),
                         kops);
        }
      }
      compute.stop();
      continue;
    }

    // Exchange path: ranks differing only in the global mixing bits form
    // groups of 2^|G|; each group member sends the partners' slices out,
    // the gate runs on the combined vector, and the slices return.
    Index gmask = 0;  // rank-bit mask of the global mixing positions
    for (unsigned j : global_mixing) gmask |= Index{1} << (g.qubits[j] - l);
    const unsigned gcount = static_cast<unsigned>(global_mixing.size());
    const Index groups = Index{1} << gcount;

    std::vector<unsigned> leaders;  // bases with the mixing bits clear
    for (Index base = 0; base < v; ++base)
      if ((base & gmask) == 0) leaders.push_back(static_cast<unsigned>(base));

    // Per-leader member list, filled only by groups that exchanged.
    std::vector<std::vector<unsigned>> exchanged(leaders.size());

    compute.start();
    for (std::size_t li = 0; li < leaders.size(); ++li) {
      const unsigned base = leaders[li];
      std::vector<unsigned> members(groups);
      for (Index gb = 0; gb < groups; ++gb)
        members[gb] = static_cast<unsigned>(base | bits::deposit(gb, gmask));

      // Restrict away global non-mixing positions (fixed per group) and
      // map the rest onto combined slots: local qubits keep their slot,
      // global mixing qubit #j lands on slot l + j.
      std::vector<int> fixed(g.arity(), -1);
      std::vector<Qubit> ops;
      for (unsigned j = 0; j < g.arity(); ++j) {
        const Qubit q = g.qubits[j];
        if (q < l) {
          ops.push_back(q);
        } else if (mixing[j]) {
          // Combined slot l + j holds the j-th lowest rank bit of gmask
          // (deposit() fills ascending), i.e. ascending qubit order.
          const Index below = gmask & ((Index{1} << (q - l)) - 1);
          ops.push_back(static_cast<Qubit>(l + bits::popcount(below)));
        } else {
          fixed[j] = bits::test(base, q - l) ? 1 : 0;
        }
      }
      // Groups whose restricted gate is the identity (e.g. an unsatisfied
      // process-qubit control) neither compute nor exchange anything.
      const Matrix sub = restrict_matrix(m, fixed);
      if (is_identity(sub)) continue;

      sv::StateVector combined(l + gcount);
      for (Index gb = 0; gb < groups; ++gb) {
        const sv::StateVector& shard = state.local(members[gb]);
        for (Index i = 0; i < ldim; ++i) combined[(gb << l) | i] = shard[i];
      }
      sv::apply_gate(combined, Gate::kraus(ops, sub), kops);
      for (Index gb = 0; gb < groups; ++gb) {
        sv::StateVector& shard = state.local(members[gb]);
        for (Index i = 0; i < ldim; ++i) shard[i] = combined[(gb << l) | i];
      }
      exchanged[li] = std::move(members);
    }
    compute.stop();

    // Accounting: per ordered pair within each group that actually
    // exchanged, the sender's 1/2^|G| slice travels out and back
    // (2 messages) unless the pair is co-located.
    const Index slice_bytes = (ldim >> gcount) * kAmpBytes * 2;
    std::vector<Index> sent(state.physical_ranks(), 0),
        recv(state.physical_ranks(), 0);
    std::vector<std::size_t> msgs(state.physical_ranks(), 0);
    bool any_exchanged = false;
    for (const std::vector<unsigned>& members : exchanged) {
      if (members.empty()) continue;
      any_exchanged = true;
      for (unsigned u : members) {
        for (unsigned w : members) {
          if (u == w) continue;
          const unsigned hu = state.physical_of(u), hw = state.physical_of(w);
          if (hu == hw) continue;
          sent[hu] += slice_bytes;
          recv[hw] += slice_bytes;
          msgs[hu] += 2;
        }
      }
    }
    if (any_exchanged) charge_exchange(comm, net, sent, recv, msgs);
  }

  if (metrics == nullptr) return;
  std::map<std::string, double>& m = *metrics;
  m["apply.seconds.sum"] = compute.seconds();
  m["exchange.count"] = static_cast<double>(comm.exchanges);
  m["exchange.bytes"] = static_cast<double>(comm.bytes_total);
  m["exchange.messages"] = static_cast<double>(comm.messages_total);
  m["exchange.modeled_seconds.sum"] = comm.modeled_max_seconds;
  m["exchange.modeled_avg_seconds"] = comm.modeled_avg_seconds;
}

}  // namespace hisim::dist
