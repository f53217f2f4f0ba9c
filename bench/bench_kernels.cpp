// Kernel-tier microbench: per-gate-shape apply throughput for every
// available kernel tier (scalar always; simd when the build and CPU
// support it), single-threaded on a cache-resident state so the numbers
// measure the kernels, not the memory system or the thread pool.
//
//   bench_kernels [--qubits=N] [--quick] [--json]
//
// --json emits one machine-readable object (schema below) — the payload
// tools/record_bench.py appends into BENCH_kernels.json at the repo root:
//
//   {"bench": "kernels", "qubits": N, "threads": 1,
//    "simd_available": true|false,
//    "cases": [{"case": "dense_1q", "gate": "h q", "flops_per_apply": F,
//               "tiers": [{"tier": "scalar", "seconds_per_apply": s,
//                          "gflops": g, "speedup_vs_scalar": 1.0}, ...]}]}
//
// Permutation shapes (x / cx / swap) are tier-invariant index moves
// (gate_flops prices them at zero), so they report gflops 0 and a
// speedup near 1 — they are in the table to pin that invariant, not to
// race the tiers.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/kernels.hpp"
#include "sv/state_vector.hpp"

namespace {

using namespace hisim;

struct Case {
  const char* name;
  Gate gate;
};

struct TierResult {
  const char* tier;
  double seconds_per_apply = 0.0;
  double gflops = 0.0;
  double speedup_vs_scalar = 1.0;
};

/// Repeats apply_gate until `min_seconds` of work has accumulated (after
/// one warmup apply) and returns seconds per apply. Unitary gates keep
/// the state normalized, so repetition is self-stable.
double time_apply(sv::StateVector& s, const Gate& g,
                  const sv::KernelOps& ops, double min_seconds) {
  sv::apply_gate(s, g, ops);  // warmup: faults pages, primes caches
  std::size_t reps = 1;
  for (;;) {
    Stopwatch w;
    w.start();
    for (std::size_t r = 0; r < reps; ++r) sv::apply_gate(s, g, ops);
    w.stop();
    if (w.seconds() >= min_seconds)
      return w.seconds() / static_cast<double>(reps);
    // Re-estimate, growing at least 2x so short timers converge fast.
    reps *= 2;
  }
}

std::string json_escape_gate(const Gate& g) {
  std::string s = g.to_string();
  for (char& c : s)
    if (c == '"' || c == '\\') c = ' ';
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned n = 12;  // 64 KiB state: cache-resident, kernels not memory
  bool quick = false, json = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--qubits=", 9) == 0) {
      n = static_cast<unsigned>(std::atoi(a + 9));
    } else if (std::strcmp(a, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_kernels [--qubits=N] [--quick] [--json]\n");
      return 1;
    }
  }
  if (n < 6) n = 6;
  const double min_seconds = quick ? 0.01 : 0.2;

  // Single-threaded by construction: the bench compares kernel code, and
  // pool scheduling noise at cache-resident sizes would swamp it.
  parallel::set_num_threads(1);

  const Qubit mid = static_cast<Qubit>(n / 2);
  const Qubit lo = 1, hi = static_cast<Qubit>(n - 2);
  // The _q0.._q2 rows put an operand on the low qubits, where the
  // hierarchical executor places every part's lowest qubits: the simd
  // tier must not lose to scalar there (tools/check_kernel_speedup.py).
  const std::vector<Case> cases = {
      {"dense_1q", Gate::h(mid)},
      {"dense_1q_q0", Gate::h(0)},
      {"dense_1q_q1", Gate::h(1)},
      {"diag_1q", Gate::rz(mid, 0.7)},
      {"diag_1q_q0", Gate::rz(0, 0.7)},
      {"diag_1q_q1", Gate::rz(1, 0.7)},
      {"diag_1q_q2", Gate::rz(2, 0.7)},
      {"ctrl_dense_1q", Gate::cry(lo, hi, 0.6)},
      {"ctrl_diag_1q", Gate::cp(lo, hi, 0.6)},
      {"ctrl_diag_1q_q0", Gate::cp(0, hi, 0.6)},
      {"dense_2q", Gate::rxx(lo, hi, 0.4)},
      {"diag_2q", Gate::rzz(lo, hi, 0.7)},
      {"perm_x", Gate::x(mid)},
      {"perm_cx", Gate::cx(lo, hi)},
      {"perm_cx_q0", Gate::cx(0, hi)},
      {"perm_swap", Gate::swap(lo, hi)},
  };

  std::vector<const sv::KernelOps*> tiers;
  tiers.push_back(&sv::kernel_ops(sv::KernelTier::Scalar));
  if (sv::simd_kernels_available())
    tiers.push_back(&sv::kernel_ops(sv::KernelTier::Simd));

  if (!json) {
    std::printf("== Kernel tiers: %u qubits, 1 thread, simd %s ==\n\n", n,
                sv::simd_kernels_available() ? "available" : "unavailable");
    std::printf("%-16s %-8s %12s %10s %10s\n", "case", "tier", "s/apply",
                "GFLOP/s", "vs scalar");
  }

  sv::StateVector s(n);
  std::string out = "{\n  \"bench\": \"kernels\",\n  \"qubits\": " +
                    std::to_string(n) + ",\n  \"threads\": 1,\n" +
                    "  \"simd_available\": " +
                    (sv::simd_kernels_available() ? "true" : "false") +
                    ",\n  \"cases\": [";
  bool first_case = true;
  for (const Case& c : cases) {
    const double flops = sv::gate_flops(c.gate, n);
    std::vector<TierResult> results;
    for (const sv::KernelOps* ops : tiers) {
      TierResult r;
      r.tier = ops->name;
      r.seconds_per_apply = time_apply(s, c.gate, *ops, min_seconds);
      r.gflops = flops > 0.0 ? flops / r.seconds_per_apply / 1e9 : 0.0;
      r.speedup_vs_scalar =
          results.empty()
              ? 1.0
              : results.front().seconds_per_apply / r.seconds_per_apply;
      results.push_back(r);
    }
    if (json) {
      out += std::string(first_case ? "" : ",") + "\n    {\"case\": \"" +
             c.name + "\", \"gate\": \"" + json_escape_gate(c.gate) +
             "\", \"flops_per_apply\": " + std::to_string(flops) +
             ", \"tiers\": [";
      for (std::size_t t = 0; t < results.size(); ++t) {
        const TierResult& r = results[t];
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "%s{\"tier\": \"%s\", \"seconds_per_apply\": %.9g, "
                      "\"gflops\": %.4f, \"speedup_vs_scalar\": %.3f}",
                      t ? ", " : "", r.tier, r.seconds_per_apply, r.gflops,
                      r.speedup_vs_scalar);
        out += buf;
      }
      out += "]}";
      first_case = false;
    } else {
      for (const TierResult& r : results)
        std::printf("%-16s %-8s %12.3e %10.2f %9.2fx\n", c.name, r.tier,
                    r.seconds_per_apply, r.gflops, r.speedup_vs_scalar);
    }
  }
  if (json) {
    out += "\n  ]\n}\n";
    std::fputs(out.c_str(), stdout);
  } else {
    std::printf(
        "\nexpected (AVX2 hosts): simd >= 2x scalar on dense_1q and "
        "diag_1q, and no slower than scalar on any non-perm row, the "
        "_q0.._q2 rows included; perm_* rows are tier-invariant index "
        "moves (~1x).\n");
  }
  return 0;
}
