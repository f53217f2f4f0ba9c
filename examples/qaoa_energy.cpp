// Domain example: MaxCut QAOA grid search with one compiled plan.
//
// The parameterized instance (circuits::qaoa_instance) declares symbolic
// gamma/beta angles and exposes the problem-graph edges directly, so the
// (γ, β) landscape — the workload class the paper's Table III/IV evaluate
// — is one Engine::compile followed by a pure execute per grid point via
// ExecutionPlan::execute_sweep. The partitioner runs exactly once for the
// whole search (printed at the end from partition::partition_invocations).
// Usage:
//   qaoa_energy [qubits=14] [rounds=4] [limit=10] [grid=8]
// runs a grid x grid sweep over γ ∈ [0.1, π], β ∈ [0.1, π/2], then draws
// shots at the best point.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "circuits/generators.hpp"
#include "hisvsim/engine.hpp"
#include "partition/partition.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const unsigned n = argc > 1 ? std::atoi(argv[1]) : 14;
  // At least one round: the grid search below indexes gamma0/beta0.
  const unsigned rounds = argc > 2 ? std::max(std::atoi(argv[2]), 1) : 4;
  const unsigned limit = argc > 3 ? std::atoi(argv[3]) : 10;
  const unsigned grid = argc > 4 ? std::max(std::atoi(argv[4]), 1) : 8;

  const circuits::QaoaInstance inst = circuits::qaoa_instance(n, rounds, 7);
  std::printf("%s\n", inst.circuit.summary().c_str());
  std::printf("problem graph: %zu edges, %zu parameters\n",
              inst.edges.size(), inst.circuit.num_params());

  // Compile once: partitioning, layouts — everything structural.
  Options opt;
  opt.target = Target::Hierarchical;
  opt.strategy = partition::Strategy::DagP;
  opt.limit = limit;
  const std::uint64_t partitions_before = partition::partition_invocations();
  const ExecutionPlan plan = Engine::compile(inst.circuit, opt);
  std::printf("%zu parts, compiled in %.3f ms\n", plan.num_parts(),
              plan.compile_seconds() * 1e3);

  // One ZZ observable per problem edge: the MaxCut expectation is
  // C = sum_e (1 - <Z_a Z_b>) / 2.
  ExecOptions x;
  x.want_state = false;  // grid points only need the observables
  for (const auto& [a, b] : inst.edges) {
    sv::PauliString zz;
    zz.factors = {{a, sv::Pauli::Z}, {b, sv::Pauli::Z}};
    x.observables.push_back(std::move(zz));
  }

  // The (γ, β) grid, every round sharing the same point — each entry is a
  // pure execute against the one plan.
  std::vector<ParamBinding> points;
  points.reserve(static_cast<std::size_t>(grid) * grid);
  auto axis = [grid](double lo, double hi, unsigned i) {
    return grid == 1 ? lo : lo + (hi - lo) * i / (grid - 1);
  };
  for (unsigned gi = 0; gi < grid; ++gi)
    for (unsigned bi = 0; bi < grid; ++bi)
      points.push_back(inst.uniform_binding(axis(0.1, M_PI, gi),
                                            axis(0.1, M_PI / 2, bi)));

  const std::vector<Result> results = plan.execute_sweep(points, x);

  double best_cut = -1.0, best_gamma = 0.0, best_beta = 0.0;
  double wall = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    double cut = 0.0;
    for (double zz : results[i].observables) cut += 0.5 * (1.0 - zz);
    wall += results[i].metrics.at("execute.wall_seconds");
    if (cut > best_cut) {
      best_cut = cut;
      best_gamma = points[i].at(inst.gammas[0]);
      best_beta = points[i].at(inst.betas[0]);
    }
  }
  std::printf("swept %zu (γ, β) points (%.3f s execute total); partitioner "
              "ran %llu time(s)\n",
              results.size(), wall,
              static_cast<unsigned long long>(
                  partition::partition_invocations() - partitions_before));
  std::printf("best expected cut %.4f of %zu edges (%.1f%%) at γ=%.3f "
              "β=%.3f\n",
              best_cut, inst.edges.size(),
              100.0 * best_cut / static_cast<double>(inst.edges.size()),
              best_gamma, best_beta);

  // Re-execute the best point with shots — still the same plan.
  ExecOptions best;
  best.bindings = inst.uniform_binding(best_gamma, best_beta);
  best.shots = 2000;
  best.want_state = false;
  const Result r = plan.execute(best);
  auto cut_of = [&inst](Index bits) {
    unsigned v = 0;
    for (const auto& [a, b] : inst.edges)
      v += ((bits >> a) & 1u) != ((bits >> b) & 1u);
    return v;
  };
  unsigned best_sampled = 0;
  for (Index s : r.samples) best_sampled = std::max(best_sampled, cut_of(s));
  std::printf("best sampled cut over %zu shots: %u / %zu edges\n",
              r.samples.size(), best_sampled, inst.edges.size());
  return 0;
}
