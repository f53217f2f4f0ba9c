// Table II: memory access breakdown per strategy (paper: VTune clocktick
// percentages per cache level + execution time, single thread, bv/ising).
// Substitution: the modeled traffic breakdown (DESIGN.md) plus measured
// single-thread execution time.

#include <cstdio>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "sv/hierarchical.hpp"
#include "sv/cache_sim.hpp"
#include "sv/traffic.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);
  parallel::set_num_threads(1);  // Table II is the single-thread experiment

  std::printf("== Table II: memory access breakdown (modeled traffic %% per "
              "level + measured exec time) ==\n\n");
  bench::print_row({"circuit", "strategy", "parts", "L1%", "L2%", "L3%",
                    "DRAM%", "exec(s)"},
                   {10, 8, 6, 7, 7, 7, 7, 9});

  // Scale the cache model so our scaled circuits straddle it the way
  // 30-qubit circuits straddle a 32 MiB LLC: LLC holds 1/16 of the state.
  for (const auto& e : bench::scaled_suite(args)) {
    if (e.meta.name != "bv" && e.meta.name != "ising") continue;
    const Circuit& c = e.circuit;
    sv::CacheConfig cache;
    cache.l3_bytes = c.memory_bytes() / 16;
    cache.l2_bytes = cache.l3_bytes / 32;
    cache.l1_bytes = cache.l2_bytes / 16;
    const unsigned limit = c.num_qubits() - 4;  // inner sv == LLC size
    const dag::CircuitDag dag(c);
    for (auto strategy : {partition::Strategy::Nat, partition::Strategy::Dfs,
                          partition::Strategy::DagP}) {
      partition::PartitionOptions opt;
      opt.limit = limit;
      opt.strategy = strategy;
      opt.seed = args.seed;
      const auto parts = partition::make_partition(dag, opt);
      const auto traffic = sv::model_traffic(c, parts, cache);
      sv::StateVector state(c.num_qubits());
      Timer t;
      for (const partition::Part& p : parts.parts)
        sv::run_part(c, p.gates, p.qubits, state);
      const double exec = t.seconds();
      using TB = sv::TrafficBreakdown;
      bench::print_row({e.meta.name, partition::strategy_name(strategy),
                        std::to_string(parts.num_parts()),
                        bench::fmt(traffic.pct(TB::L1), 1),
                        bench::fmt(traffic.pct(TB::L2), 1),
                        bench::fmt(traffic.pct(TB::L3), 1),
                        bench::fmt(traffic.pct(TB::DRAM), 1),
                        bench::fmt(exec, 3)},
                       {10, 8, 6, 7, 7, 7, 7, 9});
    }
  }
  // Second view: trace-driven set-associative LRU simulation of the exact
  // amplitude access streams (smaller instance so the replay stays fast).
  std::printf("\n-- trace-driven cache simulation (12-qubit instances) --\n");
  bench::print_row({"circuit", "strategy", "parts", "L1%", "L2%", "L3%",
                    "DRAM%"},
                   {10, 8, 6, 7, 7, 7, 7});
  for (const char* name : {"bv", "ising"}) {
    const Circuit c = circuits::make_by_name(name, 12);
    sv::CacheHierarchy::Config cfg;
    cfg.l3_bytes = c.memory_bytes();       // LLC == state size
    cfg.l2_bytes = cfg.l3_bytes / 8;
    cfg.l1_bytes = cfg.l2_bytes / 8;
    const dag::CircuitDag dag(c);
    {
      sv::CacheHierarchy h{cfg};
      sv::replay_flat_trace(c, h);
      bench::print_row({name, "flat", "-", bench::fmt(h.pct(0), 1),
                        bench::fmt(h.pct(1), 1), bench::fmt(h.pct(2), 1),
                        bench::fmt(h.pct(3), 1)},
                       {10, 8, 6, 7, 7, 7, 7});
    }
    for (auto strategy : {partition::Strategy::Nat, partition::Strategy::Dfs,
                          partition::Strategy::DagP}) {
      partition::PartitionOptions opt;
      opt.limit = 6;
      opt.strategy = strategy;
      opt.seed = args.seed;
      const auto parts = partition::make_partition(dag, opt);
      sv::CacheHierarchy h{cfg};
      sv::replay_hierarchical_trace(c, parts, h);
      bench::print_row({name, partition::strategy_name(strategy),
                        std::to_string(parts.num_parts()),
                        bench::fmt(h.pct(0), 1), bench::fmt(h.pct(1), 1),
                        bench::fmt(h.pct(2), 1), bench::fmt(h.pct(3), 1)},
                       {10, 8, 6, 7, 7, 7, 7});
    }
  }
  std::printf("\nexpected shape (paper): dagP <= DFS < Nat in DRAM%% and "
              "execution time; hierarchical runs serve gate traffic from "
              "near caches while flat sweeps DRAM.\n");
  return 0;
}
