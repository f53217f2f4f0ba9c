// Fig. 7: average per-rank communication time for the three HiSVSIM
// strategies and the IQS baseline, per circuit and rank count. Modeled
// columns come from the alpha-beta NetworkModel; the measured columns are
// wall-clock exchange (data-movement) time of the dagP run on the selected
// CommBackend (--backend, default threaded), alongside the wall-clock
// overlap the async pipeline achieved.

#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);

  std::printf("== Fig. 7: average communication time (ms) ==\n");
  std::printf("   modeled: IQS/Nat/DFS/dagP — measured (%s backend): "
              "dagP exchange + hidden-by-overlap\n\n",
              dist::backend_kind_name(args.backend));
  bench::print_row({"circuit", "ranks", "IQS", "Nat", "DFS", "dagP",
                    "dagP-meas", "overlap"},
                   {10, 6, 10, 10, 10, 10, 10, 10});

  unsigned dagp_best = 0, cases = 0;
  for (const auto& e : bench::scaled_suite(args)) {
    for (unsigned p : args.process_qubits) {
      const auto iqs = bench::run_iqs(args, e.circuit, p);
      const double iqs_avg = iqs.metrics.at("exchange.modeled_avg_seconds");
      std::vector<double> avg;
      double measured_comm = 0.0, measured_overlap = 0.0;
      for (auto s : {partition::Strategy::Nat, partition::Strategy::Dfs,
                     partition::Strategy::DagP}) {
        const auto his = bench::run_hisvsim(args, e.circuit, p, s,
                                            /*level2_limit=*/0,  // auto
                                            args.backend);
        avg.push_back(his.metrics.at("exchange.modeled_avg_seconds"));
        if (s == partition::Strategy::DagP) {
          measured_comm =
              bench::measured_or_zero(his, "exchange.measured_seconds.sum");
          measured_overlap =
              bench::measured_or_zero(his, "exchange.overlap_seconds.sum");
        }
      }
      bench::print_row({e.meta.name, std::to_string(1u << p),
                        bench::fmt(iqs_avg * 1e3, 3),
                        bench::fmt(avg[0] * 1e3, 3),
                        bench::fmt(avg[1] * 1e3, 3),
                        bench::fmt(avg[2] * 1e3, 3),
                        bench::fmt(measured_comm * 1e3, 3),
                        bench::fmt(measured_overlap * 1e3, 3)},
                       {10, 6, 10, 10, 10, 10, 10, 10});
      ++cases;
      if (avg[2] <= avg[0] && avg[2] <= avg[1]) ++dagp_best;
    }
  }
  std::printf("\ndagP had the lowest HiSVSIM comm time in %u/%u cases "
              "(paper: fastest across all cases).\n",
              dagp_best, cases);
  return 0;
}
