#pragma once

// Shared helpers for the per-table / per-figure benchmark binaries. Each
// binary regenerates one table or figure of the paper at a scaled size
// (flags: --qubits-delta, --ranks, --seed) and prints the same rows/series
// the paper reports. Runs go through the hisim::Engine compile/execute
// API and return hisim::Result reports; the columns read Result::metrics
// keys, and --json additionally dumps every run's Result::to_json(), so
// the machine-readable report fields are defined in exactly one place
// (engine.hpp).

#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "dist/backend.hpp"
#include "hisvsim/engine.hpp"
#include "partition/partition.hpp"

namespace hisim::bench {

struct Args {
  int qubits_delta = 0;        // added to every suite circuit's default size
  std::vector<unsigned> process_qubits = {3, 4, 5};  // ranks = 2^p sweeps
  std::uint64_t seed = 0x5eed;
  bool quick = false;          // smaller sweep for smoke runs
  /// Dump each run's Result::to_json() to stdout as it completes.
  bool json = false;
  /// Exchange backend for the measured comm/wall columns.
  dist::BackendKind backend = dist::BackendKind::Threaded;
};

/// Parses --qubits-delta=N --ranks=p1,p2,... --seed=N --quick --json
/// --backend=serial|threaded.
Args parse_args(int argc, char** argv);

/// The suite at scaled sizes: name -> circuit.
struct SuiteEntry {
  circuits::BenchCircuit meta;
  Circuit circuit;
};
std::vector<SuiteEntry> scaled_suite(const Args& args);

/// Compiles `c` for the distributed HiSVSIM target with `strategy` and
/// executes the plan once (serial reference backend by default; pass
/// Threaded for measured-overlap columns). `level2_limit` is
/// Options::level2_limit: 0 = the default (cache-sized) second level,
/// n - p or more = off; level 2 moves no exchange bytes either way.
/// Honors args.seed / args.json.
hisim::Result run_hisvsim(const Args& args, const Circuit& c, unsigned p,
                          partition::Strategy strategy,
                          unsigned level2_limit = 0,
                          dist::BackendKind backend =
                              dist::BackendKind::Serial);

/// Runs the IQS-style baseline target.
hisim::Result run_iqs(const Args& args, const Circuit& c, unsigned p);

/// A Result::metrics key a run records only when the event happened —
/// exchange.measured_seconds.* and exchange.overlap_seconds.* exist once
/// a step moved data — read as 0 when absent. Keys every run of a target
/// carries are read with metrics.at(), which fails loudly on a rename.
double measured_or_zero(const hisim::Result& r, const std::string& key);

/// Comm share of Result::total_seconds(), in [0, 1]: the sharded
/// targets' exchange.modeled_seconds.sum over the total, which is the
/// measured apply plus that modeled comm (0 when the total is 0). Only the
/// numerator is modeled, so the share moves with the host's apply time.
double comm_share(const hisim::Result& r);

/// Geometric mean (ignores non-positive entries).
double geomean(const std::vector<double>& xs);

/// Markdown-ish table printing.
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);

std::string fmt(double v, int precision = 2);

}  // namespace hisim::bench
