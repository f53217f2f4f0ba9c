// Table IV: hybrid estimate — HiSVSIM partitioning + communication with an
// accelerator kernel for compute. The paper used HyQuas on 4 V100s; here
// the "accelerator" is our CPU inner-kernel path and the HyQuas reference
// row is the IQS-style per-gate-exchange system at the same configuration
// (DESIGN.md substitution). The headline — dagP's 2-part split minimizes
// communication and beats the per-gate baseline — is partition-driven.

#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);
  const unsigned n = static_cast<unsigned>(std::max(10, 14 + args.qubits_delta));
  const unsigned p = 2;  // paper: 4 GPU nodes

  const Circuit c = circuits::qaoa(n);
  std::printf("== Table IV: estimated QAOA times, HiSVSIM comm + kernel "
              "compute (%u qubits, %u ranks) ==\n\n",
              n, 1u << p);
  bench::print_row({"strategy", "comm(ms)", "comp(ms)", "total(ms)"},
                   {10, 10, 10, 10});

  double best_total = 0;
  for (auto strategy : {partition::Strategy::DagP, partition::Strategy::Dfs,
                        partition::Strategy::Nat}) {
    const auto rep = bench::run_hisvsim(args, c, p, strategy);
    const double comm = rep.metrics.at("exchange.modeled_seconds.sum") * 1e3;
    const double comp = rep.metrics.at("apply.seconds.sum") * 1e3;
    if (strategy == partition::Strategy::DagP) best_total = comm + comp;
    bench::print_row({partition::strategy_name(strategy), bench::fmt(comm, 2),
                      bench::fmt(comp, 2), bench::fmt(comm + comp, 2)},
                     {10, 10, 10, 10});
  }
  const auto baseline = bench::run_iqs(args, c, p);
  const double base_comm =
      baseline.metrics.at("exchange.modeled_seconds.sum") * 1e3;
  const double base_comp = baseline.metrics.at("apply.seconds.sum") * 1e3;
  bench::print_row({"per-gate", bench::fmt(base_comm, 2),
                    bench::fmt(base_comp, 2),
                    bench::fmt(baseline.total_seconds() * 1e3, 2)},
                   {10, 10, 10, 10});
  std::printf("\nexpected shape (paper Table IV): dagP < DFS < Nat; dagP "
              "beats the per-gate-communication system (HyQuas row).\n");
  if (best_total > 0 && baseline.total_seconds() * 1e3 > best_total)
    std::printf("dagP hybrid beats the per-gate baseline by %.2fx here.\n",
                baseline.total_seconds() * 1e3 / best_total);
  return 0;
}
