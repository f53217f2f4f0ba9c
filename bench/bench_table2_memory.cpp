// Table II: memory access breakdown per strategy (paper: VTune clocktick
// percentages per cache level + execution time, single thread, bv/ising).
// Substitution: the analytic traffic model of sv/traffic.hpp plus
// measured single-thread execution time. The flat row is gate-by-gate
// sv::FlatSimulator, the flat run that sv::model_flat_traffic describes.

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "sv/hierarchical.hpp"
#include "sv/simulator.hpp"
#include "sv/traffic.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);
  parallel::set_num_threads(1);  // Table II is the single-thread experiment

  std::printf("== Table II: memory access breakdown (modeled traffic %% per "
              "level + measured exec time) ==\n\n");
  const std::vector<int> widths = {10, 8, 6, 7, 7, 7, 7, 9};
  bench::print_row({"circuit", "strategy", "parts", "L1%", "L2%", "L3%",
                    "DRAM%", "exec(s)"},
                   widths);

  using TB = sv::TrafficBreakdown;
  const auto print = [&](const std::string& circuit,
                         const std::string& strategy,
                         const std::string& parts, const TB& traffic,
                         double exec) {
    bench::print_row({circuit, strategy, parts,
                      bench::fmt(traffic.pct(TB::L1), 1),
                      bench::fmt(traffic.pct(TB::L2), 1),
                      bench::fmt(traffic.pct(TB::L3), 1),
                      bench::fmt(traffic.pct(TB::DRAM), 1),
                      bench::fmt(exec, 3)},
                     widths);
  };

  // Scale the cache model so our scaled circuits straddle it the way
  // 30-qubit circuits straddle a 32 MiB LLC: LLC holds 1/16 of the state.
  int circuits = 0, dram_ordered = 0, dagp_faster = 0;
  for (const auto& e : bench::scaled_suite(args)) {
    if (e.meta.name != "bv" && e.meta.name != "ising") continue;
    const Circuit& c = e.circuit;
    sv::CacheConfig cache;
    cache.l3_bytes = c.memory_bytes() / 16;
    cache.l2_bytes = cache.l3_bytes / 32;
    cache.l1_bytes = cache.l2_bytes / 16;
    const unsigned limit = c.num_qubits() - 4;  // inner sv == LLC size

    const TB flat = sv::model_flat_traffic(c, cache);
    double flat_exec = 0.0;
    {
      sv::StateVector state(c.num_qubits());
      Timer t;
      sv::FlatSimulator().run(c, state);
      flat_exec = t.seconds();
    }
    print(e.meta.name, "flat", "-", flat, flat_exec);

    std::vector<double> dram;  // per strategy, in Nat, DFS, dagP order
    double dagp_exec = 0.0;
    const dag::CircuitDag dag(c);
    for (auto strategy : {partition::Strategy::Nat, partition::Strategy::Dfs,
                          partition::Strategy::DagP}) {
      partition::PartitionOptions opt;
      opt.limit = limit;
      opt.strategy = strategy;
      opt.seed = args.seed;
      const auto parts = partition::make_partition(dag, opt);
      const TB traffic = sv::model_traffic(c, parts, cache);
      sv::StateVector state(c.num_qubits());
      Timer t;
      for (const partition::Part& p : parts.parts)
        sv::run_part(c, p.gates, p.qubits, state);
      const double exec = t.seconds();
      print(e.meta.name, partition::strategy_name(strategy),
            std::to_string(parts.num_parts()), traffic, exec);
      dram.push_back(traffic.pct(TB::DRAM));
      if (strategy == partition::Strategy::DagP) dagp_exec = exec;
    }
    ++circuits;
    dram_ordered += dram[2] <= dram[1] && dram[1] <= dram[0] &&
                    dram[0] < flat.pct(TB::DRAM);
    dagp_faster += dagp_exec < flat_exec;
  }
  std::printf("\nmodeled DRAM%%: dagP <= DFS <= Nat < flat in %d/%d "
              "circuits; measured exec: dagP below gate-by-gate flat in "
              "%d/%d (paper: dagP <= DFS < Nat in both)\n",
              dram_ordered, circuits, dagp_faster, circuits);
  return 0;
}
