// Fig. 10: single-level vs multi-level HiSVSIM runtime on the deep
// circuits (qaoa, qft, qnn, qpe, adder) at the largest rank count. The
// second level re-partitions every part at a cache-sized limit and runs
// the inner parts shard-locally; both columns are measured execute wall
// seconds of the same distributed target with that level off and on.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);
  const unsigned p = args.process_qubits.back();

  std::printf("== Fig. 10: single-level vs multi-level (%u ranks) ==\n", 1u << p);
  std::printf("(exec = measured execute wall seconds; gain = exec-1L / "
              "exec-2L)\n\n");
  const std::vector<int> widths = {10, 9, 9, 7, 8, 8};
  bench::print_row({"circuit", "exec-1L", "exec-2L", "gain", "l1-parts",
                    "l2-parts"},
                   widths);

  double gains = 0, best = 0;
  unsigned cases = 0;
  for (const auto& e : bench::scaled_suite(args)) {
    const std::string& name = e.meta.name;
    if (name != "qaoa" && name != "qft" && name != "qnn" && name != "qpe" &&
        name != "adder37")
      continue;
    const Circuit& c = e.circuit;
    const unsigned l = c.num_qubits() - p;
    const unsigned level2 = l > 4 ? l - 4 : l;  // cache-sized second level
    // A level 2 as wide as the shard is off; 0 would mean the default one.
    const Result single =
        bench::run_hisvsim(args, c, p, partition::Strategy::DagP, l);
    const Result multi =
        bench::run_hisvsim(args, c, p, partition::Strategy::DagP, level2);
    const double single_s = single.metrics.at("execute.wall_seconds");
    const double multi_s = multi.metrics.at("execute.wall_seconds");
    const double gain = multi_s > 0 ? single_s / multi_s : 0.0;
    gains += gain;
    best = std::max(best, gain);
    ++cases;
    bench::print_row({name, bench::fmt(single_s, 4), bench::fmt(multi_s, 4),
                      bench::fmt(gain, 2), std::to_string(multi.parts),
                      std::to_string(multi.inner_parts)},
                     widths);
  }
  if (cases > 0)
    std::printf("\nmean gain %.2fx, best %.2fx (paper: 15.8%% mean runtime "
                "reduction, up to 1.47x over single-level)\n",
                gains / cases, best);
  return 0;
}
