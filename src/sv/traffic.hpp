#pragma once

#include <array>

#include "partition/partition.hpp"

namespace hisim::sv {

/// Cache hierarchy parameters for the analytic memory-traffic model, the
/// one model that substitutes for the paper's VTune profiling (Table II;
/// bench_table2_memory). Defaults mirror
/// the paper's example machine: 64 KiB L1 / 1 MiB L2 / 32 MiB LLC.
struct CacheConfig {
  Index l1_bytes = 64ull << 10;
  Index l2_bytes = 1ull << 20;
  Index l3_bytes = 32ull << 20;
};

/// Bytes of state-vector traffic attributed to the memory level that
/// serves it: a sweep over a vector of S bytes is served by the innermost
/// level with capacity >= S.
struct TrafficBreakdown {
  enum Level { L1 = 0, L2 = 1, L3 = 2, DRAM = 3 };
  std::array<double, 4> bytes{};

  double total() const { return bytes[0] + bytes[1] + bytes[2] + bytes[3]; }
  double pct(Level lvl) const {
    const double t = total();
    return t == 0 ? 0.0 : 100.0 * bytes[lvl] / t;
  }
  /// Fraction of traffic hitting DRAM — the model's stand-in for the
  /// paper's "memory-bound pipeline slots" column.
  double dram_fraction() const {
    const double t = total();
    return t == 0 ? 0.0 : bytes[DRAM] / t;
  }
};

/// Traffic of a hierarchical run: per part, gather+scatter stream the
/// outer vector (charged to the level holding the *outer* vector), while
/// each gate of the part sweeps the inner vector (charged to the level
/// holding the *inner* vector).
TrafficBreakdown model_traffic(const Circuit& c,
                               const partition::Partitioning& p,
                               const CacheConfig& cache = {});

/// Traffic of gate-by-gate flat execution (sv::FlatSimulator): every gate
/// sweeps the full state vector. The flat target is not modeled: it
/// applies runs of block-local gates one 1 MiB block at a time
/// (sv::apply_gates).
TrafficBreakdown model_flat_traffic(const Circuit& c,
                                    const CacheConfig& cache = {});

}  // namespace hisim::sv
