#include "sv/hierarchical.hpp"

#include <algorithm>
#include <functional>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "sv/kernels.hpp"

namespace hisim::sv {
namespace {

/// Memory budget of one fan-out: the inner vectors of all threads
/// together hold at most 2^21 amplitudes (32 MiB, about a third of the
/// reference host's L3).
constexpr unsigned kFanOutBudgetQubits = 21;

/// Gate list with qubits remapped onto inner slots, built once per part.
std::vector<Gate> remap_gates(const Circuit& c,
                              std::span<const std::size_t> gates,
                              std::span<const Qubit> slot_of) {
  std::vector<Gate> out;
  out.reserve(gates.size());
  for (std::size_t gi : gates) {
    Gate g = c.gate(gi);
    for (Qubit& q : g.qubits) q = slot_of[q];
    out.push_back(std::move(g));
  }
  return out;
}

/// The cosets of a part's qubits in an n-qubit outer vector. Coset m holds
/// the amplitudes deposit(m, outside) | deposit(t, mask) for t < 2^w: the
/// part's qubits take every value while the others hold the bits of m.
/// Cosets are disjoint, so workers may move different ones concurrently.
/// This is the one place amplitudes move between an outer and an inner
/// vector.
class Cosets {
 public:
  Cosets(std::span<const Qubit> part_qubits, unsigned n)
      : count_(Index{1} << (n - part_qubits.size())),
        size_(Index{1} << part_qubits.size()) {
    for (Qubit q : part_qubits) mask_ |= Index{1} << q;
    outside_ = ~mask_ & ((Index{1} << n) - 1);
    // One block per thread on the split-copy path; blocks below the pool's
    // default grain are not worth a task.
    const Index threads = parallel::num_threads();
    grain_ = std::max((size_ + threads - 1) / threads, Index{1} << 12);
  }

  Index count() const { return count_; }

  /// Copies coset m into `inner` (2^w amplitudes). Split over the pool;
  /// inline inside a fan-out worker (nested-region rule).
  void gather(const cplx* outer, Index m, cplx* inner) const {
    walk(m, [&](Index t, Index i) { inner[t] = outer[i]; });
  }

  /// Copies `inner` back into coset m; the inverse of gather().
  void scatter(cplx* outer, Index m, const cplx* inner) const {
    walk(m, [&](Index t, Index i) { outer[i] = inner[t]; });
  }

 private:
  /// Calls copy(t, outer index of inner slot t) for every t of coset m.
  /// Each chunk deposits its first t once, then steps to the next subset
  /// of the mask: slots keep deposit order, so the copies are exact.
  template <class Copy>
  void walk(Index m, const Copy& copy) const {
    const Index base = bits::deposit(m, outside_);
    const Index mask = mask_;
    parallel::for_range(
        0, size_,
        [&](Index lo, Index hi) {
          Index d = bits::deposit(lo, mask);
          for (Index t = lo; t < hi; ++t) {
            copy(t, base | d);
            d = ((d | ~mask) + 1) & mask;
          }
        },
        grain_);
  }

  Index count_;
  Index size_;
  Index mask_ = 0;
  Index outside_ = 0;
  Index grain_ = 1;
};

struct PhaseSeconds {
  double gather = 0.0, apply = 0.0, scatter = 0.0;
};

}  // namespace

bool fans_out(unsigned part_width, Index cosets, unsigned threads) {
  return cosets >= threads &&
         (Index{threads} << part_width) <= (Index{1} << kFanOutBudgetQubits);
}

void run_part(const Circuit& c, std::span<const std::size_t> gates,
              std::span<const Qubit> part_qubits, StateVector& outer,
              std::map<std::string, double>* metrics, const KernelOps* ops) {
  const KernelOps& kops = ops != nullptr ? *ops : kernel_ops();
  // Per-part granularity; the gather/exec/scatter iterations inside are
  // far too hot for spans — the Stopwatch totals below cover those.
  trace::TraceSpan span("part", "sv");
  span.arg("gates", static_cast<std::int64_t>(gates.size()));
  const unsigned n = outer.num_qubits();
  const unsigned w = static_cast<unsigned>(part_qubits.size());
  HISIM_CHECK(w <= n);
  HISIM_CHECK(std::adjacent_find(part_qubits.begin(), part_qubits.end(),
                                 std::greater_equal<Qubit>()) ==
              part_qubits.end());

  // Slot map: part qubit j lives at inner bit j.
  std::vector<Qubit> slot_of(n, 0);
  for (unsigned j = 0; j < w; ++j) slot_of[part_qubits[j]] = j;
  const std::vector<Gate> inner_gates = remap_gates(c, gates, slot_of);
  const Cosets cosets(part_qubits, n);
  const Index iterations = cosets.count();

  // Gather-execute-scatter of cosets [lo, hi) through `inner`.
  const auto run_cosets = [&](Index lo, Index hi, StateVector& inner) {
    Stopwatch gather_sw, apply_sw, scatter_sw;
    for (Index m = lo; m < hi; ++m) {
      gather_sw.start();
      cosets.gather(outer.data(), m, inner.data());
      gather_sw.stop();
      apply_sw.start();
      apply_gates(inner, inner_gates, kops);
      apply_sw.stop();
      scatter_sw.start();
      cosets.scatter(outer.data(), m, inner.data());
      scatter_sw.stop();
    }
    return PhaseSeconds{gather_sw.seconds(), apply_sw.seconds(),
                        scatter_sw.seconds()};
  };

  // Inside a pool region (a sweep point, a distributed rank) this call
  // runs inline: one thread.
  const unsigned threads =
      parallel::inline_only() ? 1 : parallel::num_threads();
  const unsigned workers = fans_out(w, iterations, threads) ? threads : 1;
  // Allocated here rather than in the workers, so freed inner vectors go
  // back to this thread's heap for the next part instead of lingering in
  // per-thread malloc arenas.
  std::vector<StateVector> inners;
  for (unsigned b = 0; b < workers; ++b) inners.emplace_back(w);
  std::vector<PhaseSeconds> phases(workers);
  Timer wall;
  // One contiguous block of cosets per worker. Fan-out: the blocks run on
  // the pool and the copies and kernels inside them inline. Split copy:
  // one block on this thread, whose copies and kernels use the pool.
  parallel::for_range(
      0, workers,
      [&](Index lo, Index hi) {
        for (Index b = lo; b < hi; ++b)
          phases[b] = run_cosets(iterations * b / workers,
                                 iterations * (b + 1) / workers, inners[b]);
      },
      /*grain=*/1);
  if (metrics == nullptr) return;
  // The workers' stopwatches overlap in time: scale their sums so that the
  // three phases add up to the part's wall time.
  PhaseSeconds sum;
  for (const PhaseSeconds& p : phases) {
    sum.gather += p.gather;
    sum.apply += p.apply;
    sum.scatter += p.scatter;
  }
  const double busy = sum.gather + sum.apply + sum.scatter;
  const double scale = busy > 0.0 ? wall.seconds() / busy : 0.0;

  std::map<std::string, double>& m = *metrics;
  m["gather.seconds"] += sum.gather * scale;
  m["apply.seconds"] += sum.apply * scale;
  m["scatter.seconds"] += sum.scatter * scale;
  // gather read + scatter write
  m["sv.outer_bytes_moved"] += static_cast<double>(2 * outer.bytes());
  m["sv.inner_bytes_touched"] += static_cast<double>(
      static_cast<Index>(gates.size()) * 2 * inners[0].bytes() * iterations);
  double& flops = m["sv.flops"];
  for (std::size_t gi : gates)
    flops += gate_flops(c.gate(gi), w) * static_cast<double>(iterations);
}

}  // namespace hisim::sv
