// Ablation: gate fusion x hierarchical partitioning. The paper (Sec. II-C)
// positions acyclic partitioning as orthogonal and complementary to gate
// fusion; this bench quantifies that — fusion shrinks the gate count each
// part executes, partitioning still removes the memory-bound sweeps.

#include <cstdio>

#include "bench_util.hpp"
#include "circuit/fusion.hpp"
#include "common/timer.hpp"
#include "sv/hierarchical.hpp"
#include "sv/simulator.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);

  std::printf("== Fusion x partitioning ablation (single node) ==\n\n");
  bench::print_row({"circuit", "gates", "fus2", "fused", "flat(s)",
                    "flat+f2(s)", "flat+f(s)", "hier(s)", "hier+f(s)",
                    "parts"},
                   {10, 7, 7, 7, 9, 11, 10, 9, 10, 6});

  for (const auto& e : bench::scaled_suite(args)) {
    const Circuit& c = e.circuit;
    FusionOptions fo;
    fo.max_qubits = 3;
    const Circuit fused = fuse(c, fo);
    // The k=2 arm: every multi-gate run is a 4x4 block, the shape the
    // dispatch layer's dedicated two-qubit kernel consumes whole.
    FusionOptions fo2;
    fo2.max_qubits = 2;
    const Circuit fused2 = fuse(c, fo2);

    sv::FlatSimulator flat;
    Timer t1;
    { sv::StateVector s(c.num_qubits()); flat.run(c, s); }
    const double flat_s = t1.seconds();
    Timer t2;
    { sv::StateVector s(c.num_qubits()); flat.run(fused, s); }
    const double flat_fused_s = t2.seconds();
    Timer t2b;
    { sv::StateVector s(c.num_qubits()); flat.run(fused2, s); }
    const double flat_fused2_s = t2b.seconds();

    const unsigned limit = c.num_qubits() - 4;
    partition::PartitionOptions opt;
    opt.limit = limit;
    opt.seed = args.seed;
    const dag::CircuitDag d1(c);
    const auto p1 = partition::make_partition(d1, opt);
    const dag::CircuitDag d2(fused);
    const auto p2 = partition::make_partition(d2, opt);

    // Alg. 1: every part through run_part.
    const auto hier = [](const Circuit& circ,
                         const partition::Partitioning& parts) {
      sv::StateVector s(circ.num_qubits());
      for (const partition::Part& p : parts.parts)
        sv::run_part(circ, p.gates, p.qubits, s);
    };
    Timer t3;
    hier(c, p1);
    const double hier_s = t3.seconds();
    Timer t4;
    hier(fused, p2);
    const double hier_fused_s = t4.seconds();

    bench::print_row({e.meta.name, std::to_string(c.num_gates()),
                      std::to_string(fused2.num_gates()),
                      std::to_string(fused.num_gates()),
                      bench::fmt(flat_s, 3), bench::fmt(flat_fused2_s, 3),
                      bench::fmt(flat_fused_s, 3),
                      bench::fmt(hier_s, 3), bench::fmt(hier_fused_s, 3),
                      std::to_string(p2.num_parts())},
                     {10, 7, 7, 7, 9, 11, 10, 9, 10, 6});
  }
  std::printf("\nexpected: fusion cuts gate counts ~2-4x and speeds both "
              "paths; partitioning benefits are preserved (orthogonality, "
              "paper Sec. II-C).\n");
  return 0;
}
