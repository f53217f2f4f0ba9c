// OpenQASM runner: loads a .qasm file (e.g. from QASMBench), compiles it
// with the chosen strategy, executes the plan, and prints the most
// probable measurement outcomes. Usage:
//   qasm_runner <file.qasm> [limit=12] [strategy=dagp|nat|dfs]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "hisvsim/engine.hpp"
#include "qasm/parser.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: qasm_runner <file.qasm> [limit] [dagp|nat|dfs]\n");
    return 2;
  }
  qasm::ParseInfo info;
  Circuit c;
  try {
    c = qasm::parse_file(argv[1], &info);
  } catch (const Error& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  std::printf("%s (%zu measurements, %zu barriers skipped)\n",
              c.summary().c_str(), info.num_measure, info.num_barrier);

  Options opt;
  opt.target = Target::Hierarchical;
  opt.limit = argc > 2 ? std::atoi(argv[2]) : 12;
  if (argc > 3) {
    const std::string s = argv[3];
    opt.strategy = s == "nat"   ? partition::Strategy::Nat
                   : s == "dfs" ? partition::Strategy::Dfs
                                : partition::Strategy::DagP;
  }

  const Result r = Engine::compile(c, opt).execute();
  std::printf("%zu parts, compile %.3f s, total %.3f s (gather %.3f, "
              "apply %.3f, scatter %.3f)\n",
              r.parts, r.metrics.at("compile.total_seconds"),
              r.total_seconds(), r.metrics.at("gather.seconds"),
              r.metrics.at("apply.seconds"), r.metrics.at("scatter.seconds"));

  // Top-8 outcomes by probability.
  std::vector<std::pair<double, Index>> probs;
  for (Index i = 0; i < r.state.size(); ++i) {
    const double pr = std::norm(r.state[i]);
    if (pr > 1e-9) probs.emplace_back(pr, i);
  }
  std::sort(probs.rbegin(), probs.rend());
  std::printf("top outcomes:\n");
  for (std::size_t k = 0; k < std::min<std::size_t>(8, probs.size()); ++k) {
    std::printf("  |");
    for (unsigned q = c.num_qubits(); q-- > 0;)
      std::printf("%c", (probs[k].second >> q) & 1 ? '1' : '0');
    std::printf(">  p=%.6f\n", probs[k].first);
  }
  return 0;
}
