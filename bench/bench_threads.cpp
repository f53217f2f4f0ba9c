// Single-node strong scaling over OpenMP-style worker threads (paper
// Sec. V-A: HiSVSIM "exhibits a close-to-linear speedup in this strong
// scaling case" for 2..128 threads). The kernels parallelize over
// amplitude blocks via the internal pool; each row runs the hierarchical
// target through the engine. On a single-core host the table
// degenerates to overhead measurement, on larger machines it shows the
// paper's scaling.

#include <cstdio>

#include <thread>

#include "bench_util.hpp"
#include "common/parallel.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);

  std::printf("== Single-node strong scaling (dagP, seconds per run) ==\n");
  std::printf("host reports %u hardware thread(s)\n\n",
              std::thread::hardware_concurrency());
  const std::vector<unsigned> threads = {1, 2, 4, 8};
  std::vector<std::string> header = {"circuit"};
  for (unsigned t : threads) header.push_back(std::to_string(t) + "T");
  bench::print_row(header, {10, 9, 9, 9, 9});

  for (const auto& e : bench::scaled_suite(args)) {
    if (e.meta.name != "bv" && e.meta.name != "ising" &&
        e.meta.name != "qft" && e.meta.name != "qaoa")
      continue;
    const Circuit& c = e.circuit;
    std::vector<std::string> row = {e.meta.name};
    for (unsigned t : threads) {
      parallel::set_num_threads(t);
      const Result r = bench::run_hierarchical(
          args, c, c.num_qubits() - 3, partition::Strategy::DagP);
      row.push_back(bench::fmt(r.metrics.at("execute.wall_seconds"), 4));
    }
    bench::print_row(row, {10, 9, 9, 9, 9});
  }
  parallel::set_num_threads(0);
  std::printf("\nexpected shape (paper, multi-core hosts): close-to-linear "
              "speedup through the thread sweep.\n");
  return 0;
}
