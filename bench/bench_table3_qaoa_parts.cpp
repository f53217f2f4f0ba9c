// Table III: QAOA partitioning breakdown — parts, qubits, gates, and
// execution time for dagP/DFS/Nat. The paper ran each part's computation
// on a single V100 with the HyQuas kernel and timed each part; here the
// hierarchical target runs the parts on the CPU kernels (DESIGN.md
// substitution) and the time is the whole execute's — the partition
// structure (part count, per-part qubits/gates) is exact.
//
// A second section *measures* the sweep-amortization claim instead of
// asserting it: the same (γ, β) points run once by recompiling a concrete
// circuit per point and once by binding one parameterized plan per point.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);
  const unsigned n = static_cast<unsigned>(
      std::max(10, 14 + args.qubits_delta));  // paper: qaoa_28
  const unsigned limit = n - 2;               // paper: 26 local of 28

  const Circuit c = circuits::qaoa(n);
  std::printf("== Table III: QAOA partitioning breakdown (qaoa %u qubits, "
              "limit %u) ==\n\n",
              n, limit);
  bench::print_row({"strategy", "part", "qubits", "gates", "time(ms)"},
                   {9, 5, 7, 7, 9});

  const dag::CircuitDag dag(c);
  for (auto strategy : {partition::Strategy::DagP, partition::Strategy::Dfs,
                        partition::Strategy::Nat}) {
    partition::PartitionOptions opt;
    opt.limit = limit;
    opt.strategy = strategy;
    opt.seed = args.seed;
    const auto parts = partition::make_partition(dag, opt);
    std::size_t total_gates = 0;
    for (std::size_t i = 0; i < parts.num_parts(); ++i) {
      const auto& part = parts.parts[i];
      total_gates += part.gates.size();
      bench::print_row({i == 0 ? partition::strategy_name(strategy) : "",
                        std::string("P").append(std::to_string(i)),
                        std::to_string(part.working_set()),
                        std::to_string(part.gates.size()), ""},
                       {9, 5, 7, 7, 9});
    }
    // The hierarchical target runs these parts (the same partitioning at
    // the same limit); the engine times the whole execute.
    const Result r = bench::run_hierarchical(args, c, limit, strategy);
    bench::print_row({"", "total", "", std::to_string(total_gates),
                      bench::fmt(r.metrics.at("execute.wall_seconds") * 1e3,
                                 1)},
                     {9, 5, 7, 7, 9});
    std::printf("\n");
  }
  std::printf("expected shape (paper Table III): dagP yields the fewest "
              "parts (2 vs 3 vs 6); total compute time similar across "
              "strategies.\n");

  // -- sweep amortization: recompile-per-point vs bind-per-point ---------
  const unsigned points = args.quick ? 4 : 16;
  const unsigned rounds = 4;
  const auto inst = circuits::qaoa_instance(n, rounds, args.seed);
  Options opt;
  opt.target = Target::Hierarchical;
  opt.strategy = partition::Strategy::DagP;
  opt.limit = limit;
  opt.seed = args.seed;
  ExecOptions x;
  x.want_state = false;

  // Identical (γ, β) points for both arms.
  std::vector<ParamBinding> bindings;
  for (unsigned i = 0; i < points; ++i)
    bindings.push_back(inst.uniform_binding(
        0.1 + (M_PI - 0.1) * i / std::max(1u, points - 1),
        0.1 + (M_PI / 2 - 0.1) * i / std::max(1u, points - 1)));

  // Arm 1: what every sweep had to do before symbolic parameters —
  // rebuild the concrete circuit and recompile the plan at each point.
  Timer recompile_timer;
  for (const ParamBinding& b : bindings)
    (void)Engine::compile(inst.circuit.bound(b), opt).execute(x);
  const double recompile_s = recompile_timer.seconds();

  // Arm 2: compile the parameterized plan once, bind at execute.
  Timer bind_timer;
  const ExecutionPlan plan = Engine::compile(inst.circuit, opt);
  for (const ParamBinding& b : bindings) {
    ExecOptions px = x;
    px.bindings = b;
    (void)plan.execute(px);
  }
  const double bind_s = bind_timer.seconds();

  std::printf("\n== Sweep amortization (qaoa %u qubits, %u rounds, %u "
              "points, dagp) ==\n\n",
              n, rounds, points);
  bench::print_row({"mode", "points", "total(ms)", "ms/point"},
                   {20, 7, 10, 9});
  bench::print_row({"recompile-per-point", std::to_string(points),
                    bench::fmt(recompile_s * 1e3, 1),
                    bench::fmt(recompile_s * 1e3 / points, 2)},
                   {20, 7, 10, 9});
  bench::print_row({"bind-per-point", std::to_string(points),
                    bench::fmt(bind_s * 1e3, 1),
                    bench::fmt(bind_s * 1e3 / points, 2)},
                   {20, 7, 10, 9});
  std::printf("\namortization: bind-per-point is %.2fx the recompile "
              "arm's throughput\n",
              bind_s > 0 ? recompile_s / bind_s : 0.0);
  if (args.json) {
    std::printf("{\n  \"bench\": \"table3_sweep_amortization\",\n"
                "  \"qubits\": %u,\n  \"rounds\": %u,\n  \"points\": %u,\n"
                "  \"recompile_seconds\": %.6g,\n  \"bind_seconds\": %.6g,\n"
                "  \"speedup\": %.6g\n}\n",
                n, rounds, points, recompile_s, bind_s,
                bind_s > 0 ? recompile_s / bind_s : 0.0);
  }
  return 0;
}
