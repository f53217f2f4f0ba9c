#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dist/backend.hpp"
#include "dist/layout.hpp"
#include "sv/state_vector.hpp"

namespace hisim::dist {

/// Analytic cluster-network cost model (alpha-beta): a transfer of b bytes
/// split over m messages costs m*latency + b/bandwidth seconds. Defaults
/// approximate one 100 Gb/s NIC per host with ~2 us one-way latency.
struct NetworkModel {
  double bandwidth_bytes_per_sec = 12.5e9;
  double latency_sec = 2e-6;

  double seconds(Index bytes, std::size_t messages) const {
    return static_cast<double>(messages) * latency_sec +
           static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
};

/// Accumulated communication accounting across exchange events. Bytes and
/// messages count only traffic that crosses *physical* host boundaries:
/// virtual ranks co-located on one host exchange through shared memory for
/// free (paper footnote 2).
struct CommStats {
  std::size_t exchanges = 0;        // collective exchange events
  std::size_t messages_total = 0;   // point-to-point messages sent
  Index bytes_total = 0;            // payload bytes on the network
  double modeled_max_seconds = 0.0; // sum over events of the slowest host
  double modeled_avg_seconds = 0.0; // sum over events of the mean host cost

  bool operator==(const CommStats&) const = default;
};

/// Folds one exchange event's per-host traffic into `stats` under `net`:
/// counts the event, sums cross-host bytes/messages, and adds the slowest
/// and mean host cost, where a host's wall time is bounded by the larger
/// of what it sends and what it receives. Shared by the redistribution
/// primitive and the IQS baseline so their modeled costs stay comparable.
void charge_exchange(CommStats& stats, const NetworkModel& net,
                     std::span<const Index> sent, std::span<const Index> recv,
                     std::span<const std::size_t> msgs);

/// State vector sharded over 2^p simulated ranks. Each rank owns a
/// contiguous 2^(n-p)-amplitude shard addressed through a RankLayout;
/// redistribute() moves amplitudes between shards when the layout changes
/// (the all-to-all exchange primitive of the paper's Sec. V) and charges
/// the modeled network cost to a CommStats. The data movement itself is
/// delegated to a CommBackend; traffic accounting is derived analytically
/// from the permutation, so every backend produces identical CommStats.
///
/// Virtual ranks: passing physical_ranks < 2^p maps the 2^p virtual ranks
/// onto that many hosts in contiguous blocks (ceil(2^p/H) per host), which
/// relaxes the power-of-two host-count constraint; traffic between
/// co-located virtual ranks is free.
class DistState {
 public:
  /// Ground state |0...0> of n qubits on 2^p ranks under the identity
  /// layout. physical_ranks = 0 means one host per virtual rank. Throws
  /// hisim::Error unless num_qubits > 0, process_qubits <= num_qubits
  /// (and small enough that 2^p fits an unsigned), and
  /// physical_ranks <= 2^p.
  explicit DistState(unsigned num_qubits, unsigned process_qubits,
                     unsigned physical_ranks = 0);

  unsigned num_qubits() const { return layout_.num_qubits(); }
  unsigned num_ranks() const { return layout_.num_ranks(); }
  unsigned physical_ranks() const { return physical_; }
  /// Host of virtual rank v under the block mapping.
  unsigned physical_of(unsigned vrank) const { return vrank / block_; }

  const RankLayout& layout() const { return layout_; }

  /// Rank-local shard (2^(n-p) amplitudes).
  sv::StateVector& local(unsigned rank) { return ranks_[rank]; }
  const sv::StateVector& local(unsigned rank) const { return ranks_[rank]; }

  /// Gathers all shards into one full state vector under the current
  /// layout. Besides tests, this is the engine's result path: every
  /// sharded execute (p > 0) that returns a state, draws shots or
  /// evaluates observables gathers through it; at p = 0 the engine moves
  /// the one shard out instead. Copies runs of 2^run_bits() amplitudes,
  /// one global index per run, over parallel::for_range.
  sv::StateVector to_state_vector() const;

  /// Inverse of to_state_vector(): scatters `full` into the shards under
  /// the current layout, by the same runs. Throws hisim::Error unless
  /// `full` has num_qubits() qubits.
  void load_state_vector(const sv::StateVector& full);

  /// Moves every amplitude to the shard/offset `target` assigns it and
  /// adopts `target` as the current layout. A no-op when the layout is
  /// unchanged; otherwise counts one exchange and charges cross-host
  /// traffic to `stats` under `net`. Blocks until the exchange completed
  /// on `backend`.
  void redistribute(const RankLayout& target, const NetworkModel& net,
                    CommStats& stats, CommBackend& backend = serial_backend());

  /// Asynchronous redistribute: starts the exchange on `backend` and
  /// returns its handle, or nullptr when the layout is unchanged (nothing
  /// to move, nothing charged). The state adopts `target` immediately, but
  /// shard r must not be touched until handle->wait_shard(r) returned, and
  /// no other redistribute may start before handle->wait_all(). The
  /// previous shard buffer is retained as the exchange source (double
  /// buffering — steady state allocates nothing).
  std::unique_ptr<ExchangeHandle> redistribute_async(const RankLayout& target,
                                                     const NetworkModel& net,
                                                     CommStats& stats,
                                                     CommBackend& backend);

 private:
  RankLayout layout_;
  unsigned physical_ = 0;
  unsigned block_ = 1;  // virtual ranks per host: ceil(2^p / physical_)
  std::vector<sv::StateVector> ranks_;
  std::vector<sv::StateVector> spare_;  // previous-exchange source buffer
};

}  // namespace hisim::dist
