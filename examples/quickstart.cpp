// Quickstart: build a circuit, compile it ONCE into an ExecutionPlan, and
// execute the plan several times — the five-minute tour of the HiSVSIM
// compile/execute API. Partitioning, lowering, and layout planning all
// happen in Engine::compile(); execute() only moves amplitudes.

#include <cstdio>

#include "hisvsim/engine.hpp"
#include "sv/simulator.hpp"

int main() {
  using namespace hisim;

  // A 12-qubit GHZ-then-QFT circuit.
  Circuit c(12, "quickstart");
  c.add(Gate::h(0));
  for (Qubit q = 1; q < 12; ++q) c.add(Gate::cx(q - 1, q));
  for (Qubit i = 0; i < 12; ++i) {
    c.add(Gate::h(i));
    for (Qubit j = i + 1; j < 12; ++j)
      c.add(Gate::cp(j, i, 3.14159265358979 / (1 << (j - i))));
  }
  std::printf("circuit: %s\n", c.summary().c_str());

  // Compile with the dagP strategy and an 8-qubit working-set limit
  // (inner state vectors of 256 amplitudes). The plan is immutable and
  // shareable; compile cost is paid exactly once.
  Options opt;
  opt.target = Target::Hierarchical;
  opt.strategy = partition::Strategy::DagP;
  opt.limit = 8;
  const ExecutionPlan plan = Engine::compile(c, opt);
  std::printf("compiled: %zu parts in %.3f ms (partitioning %.3f ms)\n",
              plan.num_parts(), plan.compile_seconds() * 1e3,
              plan.partition_seconds() * 1e3);

  // Execute it — once plainly, once more with measurement shots. Every
  // execution starts from |0...0> and pays zero partitioning cost.
  // Every measured number lands in Result::metrics.
  const Result r1 = plan.execute();
  std::printf("run 1: gather %.3f ms / apply %.3f ms / scatter %.3f ms, "
              "outer traffic %.1f MiB, norm %.12f\n",
              r1.metrics.at("gather.seconds") * 1e3,
              r1.metrics.at("apply.seconds") * 1e3,
              r1.metrics.at("scatter.seconds") * 1e3,
              r1.metrics.at("sv.outer_bytes_moved") / (1 << 20), r1.norm);

  ExecOptions shots;
  shots.shots = 1000;
  const Result r2 = plan.execute(shots);
  std::printf("run 2: %zu shots drawn, states agree to %.2e\n",
              r2.samples.size(), r1.state.max_abs_diff(r2.state));

  // Sanity: compare against the flat reference simulator.
  const sv::StateVector ref = sv::FlatSimulator().simulate(c);
  std::printf("max |amp diff| vs flat reference: %.2e\n",
              r1.state.max_abs_diff(ref));
  return r1.state.max_abs_diff(ref) < 1e-10 ? 0 : 1;
}
