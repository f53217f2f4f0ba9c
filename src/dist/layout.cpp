#include "dist/layout.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace hisim::dist {

unsigned run_bits(std::span<const unsigned> perm) {
  unsigned b = 0;
  while (b < perm.size() && b < kMaxRunBits && perm[b] == b) ++b;
  return b;
}

RankLayout::RankLayout(unsigned num_qubits, unsigned process_qubits,
                       std::vector<Qubit> slot_of)
    : n_(num_qubits), p_(process_qubits), slot_of_(std::move(slot_of)) {
  HISIM_CHECK_MSG(p_ <= n_, "more process qubits than qubits");
  HISIM_CHECK_MSG(slot_of_.size() == n_,
                  "layout permutation has " << slot_of_.size()
                                            << " entries, expected " << n_);
  qubit_at_.assign(n_, 0);
  std::vector<bool> used(n_, false);
  for (Qubit q = 0; q < n_; ++q) {
    const Qubit s = slot_of_[q];
    HISIM_CHECK_MSG(s < n_, "slot " << s << " out of range for qubit " << q);
    HISIM_CHECK_MSG(!used[s], "slot " << s << " assigned twice");
    used[s] = true;
    qubit_at_[s] = q;
  }
}

RankLayout RankLayout::identity(unsigned num_qubits, unsigned process_qubits) {
  std::vector<Qubit> slots(num_qubits);
  for (Qubit q = 0; q < num_qubits; ++q) slots[q] = q;
  return RankLayout(num_qubits, process_qubits, std::move(slots));
}

RankLayout RankLayout::for_part(const std::vector<Qubit>& part,
                                const RankLayout& prev, unsigned slots) {
  const unsigned n = prev.num_qubits();
  HISIM_CHECK_MSG(slots <= prev.local_qubits(),
                  slots << " slots exceed the " << prev.local_qubits()
                        << " local ones");
  HISIM_CHECK_MSG(part.size() <= slots,
                  "part has " << part.size() << " qubits but only " << slots
                              << " local slots");
  std::vector<bool> in_part(n, false);
  for (Qubit q : part) {
    HISIM_CHECK_MSG(q < n, "part qubit " << q << " out of range");
    HISIM_CHECK_MSG(!in_part[q], "duplicate part qubit " << q);
    in_part[q] = true;
  }

  std::vector<Qubit> slot_of = prev.slot_of_;
  std::vector<Qubit> qubit_at = prev.qubit_at_;
  unsigned victim = slots;
  for (Qubit q : part) {
    if (slot_of[q] < slots) continue;
    // The part has at most `slots` qubits, so a free slot remains.
    do --victim;
    while (in_part[qubit_at[victim]]);
    const unsigned from = slot_of[q];
    const Qubit out = qubit_at[victim];
    std::swap(slot_of[q], slot_of[out]);
    qubit_at[victim] = q;
    qubit_at[from] = out;
  }
  return RankLayout(n, prev.process_qubits(), std::move(slot_of));
}

bool RankLayout::shares_process_slots(const RankLayout& o) const {
  if (n_ != o.n_ || p_ != o.p_) return false;
  for (unsigned s = local_qubits(); s < n_; ++s)
    if (qubit_at_[s] != o.qubit_at_[s]) return false;
  return true;
}

unsigned RankLayout::run_bits() const {
  return dist::run_bits(std::span(qubit_at_).first(local_qubits()));
}

Index RankLayout::global_index(unsigned rank, Index local) const {
  const Index c = (Index{rank} << local_qubits()) | local;
  Index g = 0;
  for (Qubit q = 0; q < n_; ++q)
    if (bits::test(c, slot_of_[q])) g |= Index{1} << q;
  return g;
}

std::pair<unsigned, Index> RankLayout::locate(Index global) const {
  Index c = 0;
  for (Qubit q = 0; q < n_; ++q)
    if (bits::test(global, q)) c |= Index{1} << slot_of_[q];
  return {static_cast<unsigned>(c >> local_qubits()),
          c & (local_dim() - 1)};
}

}  // namespace hisim::dist
