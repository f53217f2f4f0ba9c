#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "dag/circuit_dag.hpp"
#include "dist/hisvsim_dist.hpp"
#include "partition/partition.hpp"

/// Deep validation of a compiled DistPlan — the exchange-schedule half of
/// the checked-build layer (common/check.hpp). Everything here re-derives
/// the plan's invariants from first principles rather than replaying the
/// code that built it, so a bug in compile_plan and a bug in the validator
/// would have to agree to slip through.
namespace hisim::dist {

namespace {

/// slot_of and qubit_at must be mutually inverse permutations of [0, n).
/// RankLayout's constructors enforce this, but the validator re-checks so
/// a future representation change (or a corrupted plan in a test) cannot
/// silently rely on it.
void check_layout_shape(const RankLayout& layout, unsigned n, unsigned p,
                        const char* what, std::size_t step) {
  HISIM_INVARIANT(layout.num_qubits() == n && layout.process_qubits() == p,
                  what << " of step " << step << " has shape ("
                       << layout.num_qubits() << ", " << layout.process_qubits()
                       << "), plan is (" << n << ", " << p << ")");
  for (Qubit q = 0; q < n; ++q) {
    const unsigned s = layout.slot_of(q);
    HISIM_INVARIANT(s < n, what << " of step " << step << ": qubit " << q
                                << " maps to slot " << s << " >= " << n);
    HISIM_INVARIANT(layout.qubit_at(s) == q,
                    what << " of step " << step << ": slot_of/qubit_at "
                         << "disagree at qubit " << q);
  }
}

/// Conservation across one exchange: under the destination layout every
/// (rank, offset) pair must be produced by exactly one global amplitude
/// index, and the round trip through global_index must be the identity.
/// Enumerating all 2^n amplitudes is exact and affordable for the state
/// sizes checked builds and tests run; larger states fall back to the
/// shape checks above (a valid permutation layout conserves by
/// construction — enumeration exists to catch representation bugs).
void check_exchange_conserves(const RankLayout& from, const RankLayout& to,
                              std::size_t step) {
  const unsigned n = from.num_qubits();
  if (n > 16) return;
  const Index dim = Index{1} << n;
  std::vector<bool> hit(dim, false);
  for (Index g = 0; g < dim; ++g) {
    const auto [src_rank, src_off] = from.locate(g);
    HISIM_INVARIANT(from.global_index(src_rank, src_off) == g,
                    "exchange into step "
                        << step << ": source locate/global_index round trip "
                        << "broken at amplitude " << g);
    const auto [dst_rank, dst_off] = to.locate(g);
    HISIM_INVARIANT(dst_rank < to.num_ranks() && dst_off < to.local_dim(),
                    "exchange into step " << step << ": amplitude " << g
                                          << " lands outside the shards");
    const Index flat = (Index{dst_rank} << to.local_qubits()) | dst_off;
    HISIM_INVARIANT(!hit[flat], "exchange into step "
                                    << step << ": shard slot (rank "
                                    << dst_rank << ", offset " << dst_off
                                    << ") written twice — a shard byte was "
                                    << "duplicated and another lost");
    hit[flat] = true;
  }
  // Every slot hit exactly once: dim writes into dim slots with no
  // duplicates is a bijection, so nothing was lost either.
}

/// Canonical sort key for multiset comparison. to_string() covers kind,
/// qubits, and parameter expressions; Unitary gates (same printable form,
/// possibly different matrices) are disambiguated within equal-key groups
/// by Gate::operator== below.
std::string gate_key(const Gate& g) { return g.to_string(); }

/// The steps' slot-remapped gates, unmapped through their layouts, must be
/// exactly the plan circuit's gates as a multiset — the schedule may
/// reorder gates only across parts (which the acyclic partitioning
/// guarantees is dependency-safe), never invent, drop, or rewrite one.
void check_gate_cover(const DistPlan& plan) {
  std::size_t step_gates = 0;
  for (const DistPlan::Step& s : plan.steps) step_gates += s.local.num_gates();
  HISIM_INVARIANT(step_gates == plan.circuit.num_gates(),
                  "steps carry " << step_gates << " gates, plan circuit has "
                                 << plan.circuit.num_gates());

  std::map<std::string, std::vector<const Gate*>> expect;
  for (const Gate& g : plan.circuit.gates())
    expect[gate_key(g)].push_back(&g);

  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const DistPlan::Step& s = plan.steps[si];
    for (const Gate& lg : s.local.gates()) {
      Gate g = lg;  // unmap slots back to original qubits
      for (Qubit& q : g.qubits) q = s.layout.qubit_at(q);
      auto it = expect.find(gate_key(g));
      HISIM_INVARIANT(it != expect.end() && !it->second.empty(),
                      "step " << si << " carries gate '" << g.to_string()
                              << "' the plan circuit does not (or not this "
                              << "many times)");
      auto& cands = it->second;
      const auto match =
          std::find_if(cands.begin(), cands.end(),
                       [&](const Gate* cand) { return *cand == g; });
      HISIM_INVARIANT(match != cands.end(),
                      "step " << si << " gate '" << g.to_string()
                              << "' differs from every remaining plan gate "
                              << "with that signature");
      cands.erase(match);
    }
  }
  // Equal totals + every step gate matched => nothing left unclaimed.
}

void check_step_noise_slots(const DistPlan::Step& s, std::size_t si) {
  std::vector<bool> used(s.local.num_gates(), false);
  for (const auto& [gi, slot] : s.noise_slots) {
    HISIM_INVARIANT(gi < s.local.num_gates(),
                    "step " << si << " noise slot " << slot
                            << " points at gate " << gi << " of "
                            << s.local.num_gates());
    const Gate& g = s.local.gate(gi);
    HISIM_INVARIANT(g.kind == GateKind::NoiseSlot && g.noise_slot_id() == slot,
                    "step " << si << " noise-slot table entry (gate " << gi
                            << ", slot " << slot
                            << ") does not match the gate there");
    HISIM_INVARIANT(!used[gi], "step " << si << " noise-slot table points at "
                                       << "gate " << gi << " twice");
    used[gi] = true;
  }
  std::size_t slot_gates = 0;
  for (const Gate& g : s.local.gates())
    if (g.kind == GateKind::NoiseSlot) ++slot_gates;
  HISIM_INVARIANT(slot_gates == s.noise_slots.size(),
                  "step " << si << " has " << slot_gates
                          << " NoiseSlot gates but " << s.noise_slots.size()
                          << " table entries");
}

/// One padded slot list per inner part: strictly ascending local slots
/// that hold the part's working set, `pad` wide unless the working set is
/// wider.
void check_padded_slots(const DistPlan::Step& s, std::size_t si, unsigned l,
                        unsigned pad) {
  HISIM_INVARIANT(s.padded.size() == s.inner.parts.size(),
                  "step " << si << " has " << s.padded.size()
                          << " padded slot lists for " << s.inner.parts.size()
                          << " inner parts");
  for (std::size_t i = 0; i < s.padded.size(); ++i) {
    const std::vector<Qubit>& slots = s.padded[i];
    const std::vector<Qubit>& ws = s.inner.parts[i].qubits;
    for (std::size_t j = 0; j < slots.size(); ++j) {
      HISIM_INVARIANT(j == 0 || slots[j - 1] < slots[j],
                      "step " << si << " inner part " << i
                              << " padded slots are not strictly ascending");
      HISIM_INVARIANT(slots[j] < l, "step " << si << " inner part " << i
                                            << " pads with non-local slot "
                                            << slots[j]);
    }
    HISIM_INVARIANT(std::includes(slots.begin(), slots.end(), ws.begin(),
                                  ws.end()),
                    "step " << si << " inner part " << i
                            << " padded slots miss part of its working set");
    const std::size_t width = std::max<std::size_t>(ws.size(), pad);
    HISIM_INVARIANT(slots.size() == width,
                    "step " << si << " inner part " << i << " is padded to "
                            << slots.size() << " slots, expected " << width);
  }
}

}  // namespace

void validate_plan(const DistPlan& plan) {
  const unsigned n = plan.num_qubits;
  const unsigned p = plan.process_qubits;
  HISIM_INVARIANT(p < n, "plan shape requires process_qubits ("
                             << p << ") < qubits (" << n << ")");
  HISIM_INVARIANT(plan.circuit.num_qubits() == n,
                  "plan circuit has " << plan.circuit.num_qubits()
                                      << " qubits, plan says " << n);
  const unsigned l = n - p;

  const RankLayout identity = RankLayout::identity(n, p);
  const RankLayout* prev = &identity;
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const DistPlan::Step& s = plan.steps[si];
    check_layout_shape(s.layout, n, p, "layout", si);
    check_exchange_conserves(*prev, s.layout, si);
    prev = &s.layout;

    HISIM_INVARIANT(s.local.num_qubits() == l,
                    "step " << si << " local circuit spans "
                            << s.local.num_qubits() << " qubits, shard has "
                            << l);
    // Circuit::add already rejects out-of-range qubits, so gates are local
    // by construction; re-assert so a corrupted plan cannot rely on that.
    for (const Gate& g : s.local.gates())
      for (Qubit q : g.qubits)
        HISIM_INVARIANT(q < l, "step " << si << " gate '" << g.to_string()
                                       << "' touches non-local slot " << q);
    check_step_noise_slots(s, si);

    if (!s.inner.parts.empty()) {
      const dag::CircuitDag sdag(s.local);
      try {
        partition::validate(sdag, s.inner);
      } catch (const Error& e) {
        HISIM_INVARIANT(false, "step " << si << " inner partitioning invalid: "
                                       << e.what());
      }
    }
    check_padded_slots(s, si, l, pad_width(plan));
  }

  check_gate_cover(plan);
}

}  // namespace hisim::dist
