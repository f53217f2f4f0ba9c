#pragma once

#include "hisvsim/engine.hpp"
#include "partition/partition.hpp"
#include "sv/hierarchical.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"

/// DEPRECATED one-call facade, kept as a thin shim over the Engine /
/// ExecutionPlan / Result API (hisvsim/engine.hpp) so out-of-tree callers
/// still build. Every simulate() call re-compiles the circuit — new code
/// should compile once with hisim::Engine and execute the plan many times.
namespace hisim {

/// \deprecated Use hisim::Options (engine.hpp). Retained field-for-field.
struct RunOptions {
  partition::Strategy strategy = partition::Strategy::DagP;
  /// Working-set limit Lm. 0 = auto: local qubit count when distributed,
  /// otherwise sv::kInnerBudgetQubits (21 qubits ~ 32 MiB) capped at the
  /// circuit width.
  unsigned limit = 0;
  /// Number of process ("rank") qubits; 2^p simulated ranks. 0 = single
  /// node.
  unsigned process_qubits = 0;
  /// Second-level (cache) limit; nonzero enables multi-level simulation.
  unsigned level2_limit = 0;
  std::uint64_t seed = 0x5eed;
  dist::NetworkModel net;
  /// Exchange backend for distributed runs: Serial (synchronous reference)
  /// or Threaded (per-host workers, measured comm/compute overlap).
  dist::BackendKind backend = dist::BackendKind::Serial;
};

/// \deprecated Use hisim::Result (engine.hpp), which is flat and carries
/// compile vs execute timings plus a JSON serializer.
struct RunReport {
  bool distributed = false;
  std::size_t parts = 0;
  std::size_t inner_parts = 0;
  double partition_seconds = 0;
  sv::HierarchicalStats hier;   // single-node path
  dist::DistRunReport dist;     // distributed path

  double total_seconds() const {
    return distributed ? dist.total_seconds() : hier.total_seconds();
  }
};

/// \deprecated Use hisim::Engine::compile() + ExecutionPlan::execute().
class HiSvSim {
 public:
  explicit HiSvSim(RunOptions opt = {}) : opt_(opt) {}

  const RunOptions& options() const { return opt_; }

  /// Builds the partitioning this configuration would use (single node).
  partition::Partitioning plan(const Circuit& c) const;

  /// Single-node hierarchical simulation from |0...0>. Compiles and
  /// executes in one shot — partitioning cost is paid on every call.
  sv::StateVector simulate(const Circuit& c, RunReport* report = nullptr) const;

  /// Simulated-cluster run over 2^process_qubits ranks; the returned state
  /// is gathered from the rank-local vectors.
  sv::StateVector simulate_distributed(const Circuit& c,
                                       RunReport* report = nullptr) const;

 private:
  /// Engine options equivalent to this configuration for the given
  /// circuit (`distributed` selects the target family).
  Options engine_options(const Circuit& c, bool distributed) const;
  unsigned effective_limit(const Circuit& c) const;
  RunOptions opt_;
};

}  // namespace hisim
