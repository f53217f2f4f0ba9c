// Fig. 8: geometric mean of the average communication ratio (comm time /
// total time) over all circuits, per rank count and algorithm. The four
// share columns reproduce the paper's figure as modeled comm / (measured
// apply + modeled comm), so they move with the host's apply time; the
// measured column is the wall-clock ratio exchange-time / pipeline-time of
// the dagP run on the selected CommBackend (--backend, default threaded).
// The closing verdict compares exchange.modeled_seconds.sum alone, which
// repeats exactly.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);

  std::printf("== Fig. 8: geomean communication ratio %% ==\n");
  std::printf("   IQS/Nat/DFS/dagP: modeled comm / (measured apply + "
              "modeled comm) — dagP-meas (%s backend): dagP "
              "exchange/pipeline wall clock\n\n",
              dist::backend_kind_name(args.backend));
  bench::print_row({"ranks", "IQS", "Nat", "DFS", "dagP", "dagP-meas"},
                   {6, 8, 8, 8, 8, 10});

  const auto suite = bench::scaled_suite(args);
  unsigned cases = 0, dagp_best = 0;
  for (unsigned p : args.process_qubits) {
    std::vector<double> iqs_r, nat_r, dfs_r, dagp_r, meas_r;
    for (const auto& e : suite) {
      const auto iqs = bench::run_iqs(args, e.circuit, p);
      iqs_r.push_back(bench::comm_share(iqs));
      const auto nat = bench::run_hisvsim(args, e.circuit, p,
                                          partition::Strategy::Nat);
      const auto dfs = bench::run_hisvsim(args, e.circuit, p,
                                          partition::Strategy::Dfs);
      const auto dagp =
          bench::run_hisvsim(args, e.circuit, p, partition::Strategy::DagP,
                             /*level2_limit=*/0,  // auto
                             args.backend);
      nat_r.push_back(bench::comm_share(nat));
      dfs_r.push_back(bench::comm_share(dfs));
      dagp_r.push_back(bench::comm_share(dagp));
      const auto modeled = [](const Result& r) {
        return r.metrics.at("exchange.modeled_seconds.sum");
      };
      ++cases;
      if (modeled(dagp) <= std::min({modeled(iqs), modeled(nat),
                                     modeled(dfs)}))
        ++dagp_best;
      const double wall = dagp.metrics.at("step.wall_seconds.sum");
      if (wall > 0)
        meas_r.push_back(
            bench::measured_or_zero(dagp, "exchange.measured_seconds.sum") /
            wall);
    }
    bench::print_row({std::to_string(1u << p),
                      bench::fmt(bench::geomean(iqs_r) * 100, 1),
                      bench::fmt(bench::geomean(nat_r) * 100, 1),
                      bench::fmt(bench::geomean(dfs_r) * 100, 1),
                      bench::fmt(bench::geomean(dagp_r) * 100, 1),
                      bench::fmt(bench::geomean(meas_r) * 100, 1)},
                     {6, 8, 8, 8, 8, 10});
  }
  std::printf("\nexpected shape (paper): dagP lowest at every rank count; "
              "IQS highest for large counts.\n");
  std::printf("dagP had the lowest modeled comm in %u/%u cases "
              "(exchange.modeled_seconds.sum).\n",
              dagp_best, cases);
  return 0;
}
