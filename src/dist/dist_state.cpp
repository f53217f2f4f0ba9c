#include "dist/dist_state.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "sv/kernels.hpp"

namespace hisim::dist {

void charge_exchange(CommStats& stats, const NetworkModel& net,
                     std::span<const Index> sent, std::span<const Index> recv,
                     std::span<const std::size_t> msgs) {
  const std::size_t hosts = sent.size();
  double worst = 0.0, sum = 0.0;
  for (std::size_t h = 0; h < hosts; ++h) {
    stats.bytes_total += sent[h];
    stats.messages_total += msgs[h];
    const double cost = net.seconds(std::max(sent[h], recv[h]), msgs[h]);
    worst = std::max(worst, cost);
    sum += cost;
  }
  stats.exchanges += 1;
  stats.modeled_max_seconds += worst;
  stats.modeled_avg_seconds += sum / static_cast<double>(hosts);
}

namespace {

RankLayout checked_identity(unsigned num_qubits, unsigned process_qubits) {
  HISIM_CHECK_MSG(num_qubits > 0, "need at least one qubit");
  HISIM_CHECK_MSG(process_qubits <= num_qubits,
                  process_qubits << " process qubits exceed " << num_qubits
                                 << " qubits");
  HISIM_CHECK_MSG(process_qubits < 31,
                  "2^" << process_qubits << " virtual ranks overflows");
  return RankLayout::identity(num_qubits, process_qubits);
}

/// Calls copy_run(r, i, g, len) once per run of `layout`: the `len` =
/// 2^run_bits() amplitudes at offsets [i, i + len) of shard r hold global
/// indices [g, g + len). Flattened over (rank, offset) and fanned over the
/// pool in chunks of whole runs; the layout is a bijection, so runs never
/// collide on either side of a copy.
template <class CopyRun>
void for_each_run(const RankLayout& layout, const CopyRun& copy_run) {
  const unsigned l = layout.local_qubits();
  const Index run = Index{1} << layout.run_bits();
  parallel::for_range(
      0, Index{layout.num_ranks()} << l,
      [&](Index lo, Index hi) {
        for (Index c = lo; c < hi; c += run) {
          const unsigned r = static_cast<unsigned>(c >> l);
          const Index i = c & (layout.local_dim() - 1);
          copy_run(r, i, layout.global_index(r, i), run);
        }
      },
      std::max(run, parallel::kDefaultGrain));
}

}  // namespace

DistState::DistState(unsigned num_qubits, unsigned process_qubits,
                     unsigned physical_ranks)
    : layout_(checked_identity(num_qubits, process_qubits)) {
  const unsigned v = layout_.num_ranks();
  physical_ = physical_ranks == 0 ? v : physical_ranks;
  HISIM_CHECK_MSG(physical_ <= v,
                  physical_ << " hosts for only " << v << " virtual ranks");
  block_ = (v + physical_ - 1) / physical_;
  ranks_.reserve(v);
  for (unsigned r = 0; r < v; ++r) {
    ranks_.emplace_back(layout_.local_qubits());
    if (r != 0) ranks_[r][0] = 0.0;  // only rank 0 holds the |0..0> amplitude
  }
}

sv::StateVector DistState::to_state_vector() const {
  sv::StateVector full(num_qubits());
  for_each_run(layout_, [&](unsigned r, Index i, Index g, Index len) {
    std::copy_n(ranks_[r].data() + i, len, full.data() + g);
  });
  return full;
}

void DistState::load_state_vector(const sv::StateVector& full) {
  HISIM_CHECK_MSG(full.num_qubits() == num_qubits(),
                  "initial state has " << full.num_qubits()
                                       << " qubits, plan expects "
                                       << num_qubits());
  for_each_run(layout_, [&](unsigned r, Index i, Index g, Index len) {
    std::copy_n(full.data() + g, len, ranks_[r].data() + i);
  });
}

void DistState::redistribute(const RankLayout& target, const NetworkModel& net,
                             CommStats& stats, CommBackend& backend) {
  if (auto handle = redistribute_async(target, net, stats, backend))
    handle->wait_all();
}

Index DistState::relayout(const RankLayout& target) {
  HISIM_CHECK_MSG(layout_.shares_process_slots(target),
                  "relayout target moves a process slot");
  const unsigned l = layout_.local_qubits();
  std::vector<Qubit> to(l);
  for (unsigned s = 0; s < l; ++s) to[s] = target.slot_of(layout_.qubit_at(s));
  Index moved = 0;
  for (sv::StateVector& shard : ranks_) moved += sv::permute_qubits(shard, to);
  layout_ = target;
  return 2 * kAmpBytes * moved;
}

std::unique_ptr<ExchangeHandle> DistState::redistribute_async(
    const RankLayout& target, const NetworkModel& net, CommStats& stats,
    CommBackend& backend) {
  HISIM_CHECK(target.num_qubits() == num_qubits() &&
              target.process_qubits() == layout_.process_qubits());
  if (target == layout_) return nullptr;

  const unsigned v = num_ranks();
  const unsigned n = num_qubits();
  const unsigned l = layout_.local_qubits();
  const Index ldim = layout_.local_dim();

  // Composed slot permutation: bit s of the old combined index moves to
  // bit fwd[s] of the new one (both layouts agree on the canonical global
  // index, so the map factors through it qubit by qubit).
  std::vector<unsigned> fwd(n), inv(n);
  for (unsigned s = 0; s < n; ++s) fwd[s] = target.slot_of(layout_.qubit_at(s));
  for (unsigned s = 0; s < n; ++s) inv[fwd[s]] = s;
  // Checked builds re-assert that the composed map really is a permutation
  // (slot_of/qubit_at of either layout disagreeing would corrupt every
  // shard below); fwd hitting n distinct values makes inv its inverse.
  for (unsigned s = 0; s < n; ++s)
    HISIM_DCHECK_MSG(fwd[s] < n && inv[fwd[s]] == s,
                     "redistribute slot map is not a permutation");

  // Traffic accounting, derived from the permutation alone (no data pass,
  // and identical for every backend). From source rank r, the destination
  // rank bits fed by r's own rank bits are fixed; those fed by offset bits
  // take every value equally often, so each reachable destination rank
  // receives exactly ldim >> k amplitudes.
  std::vector<Index> sent(physical_, 0), recv(physical_, 0);
  std::vector<std::size_t> msgs(physical_, 0);
  std::vector<unsigned> vary;  // destination rank bits driven by offset bits
  vary.reserve(n - l);
  for (unsigned s2 = l; s2 < n; ++s2)
    if (inv[s2] < l) vary.push_back(s2 - l);
  const unsigned k = static_cast<unsigned>(vary.size());
  const Index amps = ldim >> k;
  for (unsigned r = 0; r < v; ++r) {
    unsigned base = 0;
    for (unsigned s2 = l; s2 < n; ++s2)
      if (inv[s2] >= l && ((r >> (inv[s2] - l)) & 1u)) base |= 1u << (s2 - l);
    const unsigned h1 = physical_of(r);
    for (Index sub = 0; sub < (Index{1} << k); ++sub) {
      unsigned r2 = base;
      for (unsigned b = 0; b < k; ++b)
        if ((sub >> b) & 1u) r2 |= 1u << vary[b];
      if (r2 == r) continue;
      const unsigned h2 = physical_of(r2);
      if (h1 == h2) continue;
      sent[h1] += amps * kAmpBytes;
      recv[h2] += amps * kAmpBytes;
      msgs[h1] += 1;
    }
  }
  charge_exchange(stats, net, sent, recv, msgs);

  // Double buffering: the old shards become the exchange source, the spare
  // buffer (allocated once, reused across exchanges) receives.
  if (spare_.size() != v) {
    spare_.clear();
    spare_.reserve(v);
    for (unsigned r = 0; r < v; ++r) spare_.emplace_back(l);
  }
  ranks_.swap(spare_);
  layout_ = target;

  ExchangePlan plan;
  plan.local_qubits = l;
  plan.num_ranks = v;
  plan.inv = std::move(inv);
  plan.src = &spare_;
  plan.dst = &ranks_;
  plan.physical = physical_;
  plan.vranks_per_host = block_;
  return backend.start_exchange(plan);
}

}  // namespace hisim::dist
