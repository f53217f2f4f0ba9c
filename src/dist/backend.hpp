#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sv/state_vector.hpp"

namespace hisim::dist {

/// One all-to-all shard exchange, fully described: move every amplitude of
/// the `src` shards into the `dst` shards under a bit permutation of the
/// combined (rank << l | offset) index. `inv` is the *pull* map: bit s of
/// the new combined index is bit inv[s] of the old one, so destination
/// shards can be filled independently of each other — the property every
/// backend exploits for per-shard completion signalling.
///
/// Lifetime contract: `src` and `dst` (and the shards they point to) must
/// stay valid until the returned ExchangeHandle has completed; `dst` is
/// pre-sized by the caller and fully overwritten. DistState guarantees
/// this by owning both buffers (double buffering across exchanges).
struct ExchangePlan {
  unsigned local_qubits = 0;  // l: shard offset bits of the combined index
  unsigned num_ranks = 0;     // v: virtual ranks == shard count
  /// Pull permutation over all n combined bits (inv.size() == n).
  std::vector<unsigned> inv;
  const std::vector<sv::StateVector>* src = nullptr;
  std::vector<sv::StateVector>* dst = nullptr;
  unsigned physical = 1;         // physical hosts
  unsigned vranks_per_host = 1;  // contiguous vrank→host block size
};

/// Handle to one in-flight exchange. Synchronous backends return an
/// already-completed handle; asynchronous ones signal per-shard arrival so
/// the executor can compute on shards that have landed while the rest are
/// still moving.
class ExchangeHandle {
 public:
  virtual ~ExchangeHandle() = default;
  /// Blocks until destination shard `rank` has fully arrived.
  virtual void wait_shard(unsigned rank) = 0;
  /// Barrier: blocks until the whole exchange has completed.
  virtual void wait_all() = 0;
  /// Measured wall-clock seconds the data movement was in flight. Valid
  /// after wait_all().
  virtual double seconds() const = 0;
  /// Seconds from start_exchange() returning until the movement finished:
  /// 0 for a synchronous backend (the movement predates the return), ==
  /// seconds() for an async one. Lets the caller place the comm window on
  /// its own clock and measure true comm/compute overlap. Valid after
  /// wait_all().
  virtual double finished_after() const = 0;
};

/// The exchange primitive of the distributed layer, factored out of
/// DistState so the movement strategy is pluggable (paper Sec. V: the
/// executor is agnostic to *how* the collective is performed). A real MPI
/// backend implements this same interface with MPI_Ialltoallv.
class CommBackend {
 public:
  virtual ~CommBackend() = default;
  virtual const char* name() const = 0;

  /// Begins the all-to-all exchange. May return before any data has moved;
  /// progress is observed through the handle.
  virtual std::unique_ptr<ExchangeHandle> start_exchange(
      const ExchangePlan& plan) = 0;
};

/// Reference backend: the exchange completes synchronously inside
/// start_exchange (the permutation itself is parallelized over
/// parallel::for_range, which preserves bit-identical output).
class SerialBackend final : public CommBackend {
 public:
  const char* name() const override { return "serial"; }
  std::unique_ptr<ExchangeHandle> start_exchange(
      const ExchangePlan& plan) override;
};

/// Overlap-capable backend: min(physical hosts, parallel::num_threads())
/// worker threads fill their hosts' destination shards out of the source
/// buffer and signal each shard as it completes, so the executor computes
/// on arrived shards while the rest are in flight. Workers run under
/// parallel::inline_scope — they never touch the shared fork-join pool,
/// which stays available to the concurrently running compute.
class ThreadedBackend final : public CommBackend {
 public:
  const char* name() const override { return "threaded"; }
  std::unique_ptr<ExchangeHandle> start_exchange(
      const ExchangePlan& plan) override;
};

/// Backend selection surfaced through the CLI and bench --backend flags.
enum class BackendKind { Serial, Threaded };

/// Process-wide shared instances (both backends are stateless).
CommBackend& serial_backend();
CommBackend& threaded_backend();
CommBackend& backend_for(BackendKind kind);

/// "serial" / "threaded"; throws hisim::Error on anything else.
BackendKind parse_backend(const std::string& name);
const char* backend_kind_name(BackendKind kind);

}  // namespace hisim::dist
