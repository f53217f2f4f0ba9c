// hisim — command-line front end to the HiSVSIM library.
//
//   hisim run <circuit|file.qasm> [--qubits=N] [--limit=L]
//         [--strategy=dagp|dfs|nat] [--ranks=R] [--level2=L2]
//         [--backend=serial|threaded] [--target=T] [--shots=S] [--json]
//         [--opt-level=0|1] [--kernel=auto|scalar|simd]
//         [--bind name=value]... [--sweep name=start:stop:steps]...
//         [--observable=PAULI]... [--noise kind=p]... [--trajectories=N]
//         [--noise-seed=S]
//   hisim partition <circuit|file.qasm> [--qubits=N] [--limit=L]
//         [--strategy=...] [--dot=out.dot] [--exact]
//   hisim suite                      # list the built-in benchmark suite
//
// <circuit> is a suite name (bv, qft, ...), "qaoa-p" (parameterized
// 2-round QAOA with angles gamma0/beta0/gamma1/beta1), "noisecal" (the
// repeated-gate/idle noise-calibration circuit), or a path ending in
// .qasm.
// --ranks must be a power of two (R = 2^p simulated processes).
// --opt-level selects the compile-time circuit optimizer: 1 (default)
// runs the canonicalization pipeline before partitioning, 0 compiles the
// circuit exactly as written; --json reports "gates_pre_opt" and the
// per-pass "opt_passes" removal counts alongside the compiled "gates".
// --target is one of flat, hierarchical, distributed-serial,
// distributed-threaded, iqs-baseline; when omitted it is derived from
// --ranks / --backend. --level2 (a second, cache-sized partitioning level
// inside every part) needs a distributed target; it is on by default at
// 16 qubits (a 1 MiB inner vector per rank), and --level2=L with L >= the
// local qubit count (qubits minus log2 of --ranks) turns it off. --limit
// on the hierarchical target defaults to the same 16.
// --kernel selects the apply-kernel tier: auto (default — SIMD when the
// build and CPU support it, also via HISIM_KERNEL=scalar|simd|auto),
// scalar, or simd (errors at compile when unavailable); the report's
// "kernel" field names the tier that actually ran.
// --bind pins a circuit parameter; --sweep runs the cartesian grid of its
// axes through one compiled plan (one report line — or JSON array entry —
// per point). Every circuit parameter must be covered by a bind or sweep.
// --noise kind=p attaches a channel (depolarizing, bitflip, phaseflip,
// damping — after every gate; readout — shot confusion) and requires
// --trajectories=N: the plan compiles once with reserved noise slots and
// every trajectory is a pure execute with sampled Pauli/Kraus insertions
// (--shots then means shots *per trajectory*, pooled in the report).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "common/trace.hpp"
#include "hisvsim/cli_flags.hpp"
#include "hisvsim/engine.hpp"
#include "partition/exact.hpp"
#include "qasm/parser.hpp"

namespace {

using namespace hisim;

Circuit load_circuit(const std::string& spec, unsigned qubits) {
  if (spec.size() > 5 && spec.substr(spec.size() - 5) == ".qasm")
    return qasm::parse_file(spec);
  // The parameterized 2-round QAOA instance (gamma0/beta0/gamma1/beta1):
  // the circuit --bind/--sweep are made for — one compiled plan, every
  // angle point a pure execute.
  if (spec == "qaoa-p") return circuits::qaoa_instance(qubits, 2).circuit;
  // The repeated-gate/idle calibration circuit --noise runs are made for.
  if (spec == "noisecal") return circuits::noise_calibration(qubits);
  return circuits::make_by_name(spec, qubits);
}

int cmd_suite() {
  std::printf("%-10s %8s %8s %10s %10s\n", "name", "paper-q", "paper-g",
              "paper-mem", "default-q");
  for (const auto& b : circuits::qasmbench_suite())
    std::printf("%-10s %8u %8zu %10s %10u\n", b.name.c_str(), b.paper_qubits,
                b.paper_gates, b.paper_memory.c_str(), b.default_qubits);
  return 0;
}

int run_traced(const std::string& spec, const cli::Flags& f);

int cmd_run(const std::string& spec, const cli::Flags& f) {
  if (f.trace.empty()) return run_traced(spec, f);
  // Fail fast on an unwritable --trace path: rejecting it here beats
  // losing the trace after a (possibly long) run. Append mode creates
  // the file without clobbering it if the run then fails.
  {
    std::ofstream probe(f.trace, std::ios::binary | std::ios::app);
    if (!probe)
      throw Error("cannot open trace output '" + f.trace + "' for writing");
  }
  const int rc = run_traced(spec, f);
  trace::TraceSession::stop();
  trace::TraceSession::write(f.trace);
  std::fprintf(stderr, "wrote trace: %s (%zu events, %zu dropped)\n",
               f.trace.c_str(), trace::TraceSession::event_count(),
               trace::TraceSession::dropped_count());
  return rc;
}

int run_traced(const std::string& spec, const cli::Flags& f) {
  const Circuit c = load_circuit(spec, f.qubits);
  std::fprintf(stderr, "%s\n", c.summary().c_str());

  // Compile once. With --sweep the same plan then serves every grid
  // point; without it the CLI runs the plan a single time (but the same
  // plan could serve any number of execute() calls — see engine.hpp).
  const ExecutionPlan plan = Engine::compile(c, cli::engine_options(f));
  ExecOptions x;
  x.shots = f.shots;
  x.bindings = f.bindings;
  for (const std::string& o : f.observables)
    x.observables.push_back(sv::PauliString::parse(o));

  if (f.trajectories > 0) {
    // Stochastic trajectories: one compiled plan (noise slots reserved at
    // compile), every trajectory a pure execute with sampled insertions.
    TrajectoryOptions topt;
    topt.exec = x;
    topt.seed = f.noise_seed;
    const NoisyResult nr = plan.execute_trajectories(f.trajectories, topt);
    if (f.json) {
      std::printf("%s\n", nr.to_json().c_str());
      return 0;
    }
    std::printf(
        "target=%s trajectories=%zu slots=%zu mean_weight=%.6f "
        "compile=%.4fs execute=%.4fs (%.1f traj/s)\n",
        target_name(nr.target), nr.trajectories, nr.noise_slots,
        nr.mean_weight, nr.compile_seconds, nr.execute_seconds,
        nr.execute_seconds > 0.0
            ? static_cast<double>(nr.trajectories) / nr.execute_seconds
            : 0.0);
    for (std::size_t i = 0; i < nr.observable_means.size(); ++i)
      std::printf("observable %s = %.6f +- %.6f (stderr, %zu trajectories)\n",
                  x.observables[i].to_string().c_str(),
                  nr.observable_means[i], nr.observable_stderrs[i],
                  nr.trajectories);
    if (!nr.counts.empty()) {
      const std::vector<std::pair<double, Index>> top = nr.top_counts(8);
      std::printf("top pooled outcomes (%zu shots x %zu trajectories):\n",
                  nr.shots_per_trajectory, nr.trajectories);
      for (std::size_t i = 0; i < top.size(); ++i) {
        std::printf("  ");
        for (unsigned q = c.num_qubits(); q-- > 0;)
          std::printf("%c", (top[i].second >> q) & 1 ? '1' : '0');
        std::printf("  %.6g\n", top[i].first);
      }
    }
    return 0;
  }

  const std::vector<ParamBinding> points = cli::sweep_points(f);
  if (!points.empty()) {
    // Per-point report only: full states don't scale to grids (and
    // --shots with --sweep was already rejected by parse_flags).
    x.want_state = false;
    const std::vector<Result> results = plan.execute_sweep(points, x);
    if (f.json) std::printf("[\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      if (f.json) {
        std::printf("%s%s\n", r.to_json().c_str(),
                    i + 1 < results.size() ? "," : "");
        continue;
      }
      std::printf("point %zu:", i);
      for (const auto& [name, value] : r.params)
        std::printf(" %s=%.6g", name.c_str(), value);
      std::printf("  total=%.4fs norm=%.12f\n", r.total_seconds(), r.norm);
    }
    if (f.json) std::printf("]\n");
    std::fprintf(stderr,
                 "swept %zu points through one plan (compile %.4fs paid "
                 "once)\n",
                 results.size(), plan.compile_seconds());
    return 0;
  }

  const Result r = plan.execute(x);

  if (f.json) {  // the JSON already holds observables and top_counts
    std::printf("%s\n", r.to_json().c_str());
    return 0;
  }
  std::printf("target=%s parts=%zu compile=%.4fs total=%.4fs norm=%.12f",
              target_name(r.target), r.parts,
              r.metrics.at("compile.total_seconds"), r.total_seconds(),
              r.norm);
  if (r.metrics.count("step.wall_seconds.sum") != 0) {
    // The distributed executor's measured pipeline; a step that moved
    // nothing records no exchange or overlap seconds.
    const auto seconds = [&r](const char* key) {
      const auto it = r.metrics.find(key);
      return it == r.metrics.end() ? 0.0 : it->second;
    };
    std::printf(" comm=%.4fs wall=%.4fs overlap=%.4fs",
                seconds("exchange.measured_seconds.sum"),
                seconds("step.wall_seconds.sum"),
                seconds("exchange.overlap_seconds.sum"));
  }
  std::printf("\n");

  for (std::size_t i = 0; i < r.observables.size(); ++i)
    std::printf("observable %s = %.6f\n",
                x.observables[i].to_string().c_str(), r.observables[i]);

  if (!r.samples.empty()) {
    const std::vector<std::pair<double, Index>> top = r.top_counts(8);
    std::printf("top outcomes (%zu shots):\n", r.samples.size());
    for (std::size_t i = 0; i < top.size(); ++i) {
      std::printf("  ");
      for (unsigned q = c.num_qubits(); q-- > 0;)
        std::printf("%c", (top[i].second >> q) & 1 ? '1' : '0');
      std::printf("  %.0f\n", top[i].first);
    }
  }
  return 0;
}

int cmd_partition(const std::string& spec, const cli::Flags& f) {
  const Circuit c = load_circuit(spec, f.qubits);
  std::printf("%s\n", c.summary().c_str());
  const dag::CircuitDag dag(c);
  partition::PartitionOptions opt;
  opt.limit = f.limit == 0 ? std::max(2u, c.num_qubits() / 2) : f.limit;
  opt.strategy = f.strategy;
  const auto parts = partition::make_partition(dag, opt);
  partition::validate(dag, parts);
  std::printf("%s: %s (%.1f us)\n",
              partition::strategy_name(f.strategy).c_str(),
              parts.summary().c_str(), parts.partition_seconds * 1e6);
  if (f.exact) {
    try {
      const auto exact = partition::partition_exact(dag, opt.limit);
      std::printf("exact: %zu parts (%s)\n", exact.partitioning.num_parts(),
                  exact.proven_optimal ? "proven optimal" : "truncated");
    } catch (const Error& e) {
      std::printf("exact: skipped — %s\n", e.what());
    }
  }
  if (!f.dot.empty()) {
    std::ofstream out(f.dot);
    out << dag.to_dot(parts.part_of);
    std::printf("wrote %s\n", f.dot.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hisim <run|partition|suite> [circuit] [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "suite") return cmd_suite();
    if (argc < 3) {
      std::fprintf(stderr, "missing circuit argument\n");
      return 2;
    }
    const cli::Flags f =
        cli::parse_flags(std::vector<std::string>(argv + 3, argv + argc));
    if (cmd == "run") return cmd_run(argv[2], f);
    if (cmd == "partition") return cmd_partition(argv[2], f);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const hisim::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
