// Fig. 9: Dolan-More performance profiles — for each algorithm, the
// fraction rho of test instances (circuit x rank count) whose metric is
// within a factor theta of the per-instance best. 9a: total runtime
// (incl. IQS); 9b: average communication time (HiSVSIM variants).

#include <cstdio>
#include <limits>

#include "bench_util.hpp"

namespace {

using hisim::bench::fmt;

void print_profile(const char* title,
                   const std::vector<std::string>& algos,
                   const std::vector<std::vector<double>>& metric) {
  std::printf("%s\n", title);
  const std::size_t instances = metric.empty() ? 0 : metric[0].size();
  std::printf("%-6s", "theta");
  for (const auto& a : algos) std::printf(" %8s", a.c_str());
  std::printf("\n");
  for (double theta : {1.0, 1.05, 1.1, 1.2, 1.3, 1.5, 1.75, 2.0}) {
    std::printf("%-6s", fmt(theta, 2).c_str());
    for (std::size_t a = 0; a < algos.size(); ++a) {
      unsigned within = 0;
      for (std::size_t i = 0; i < instances; ++i) {
        double best = std::numeric_limits<double>::max();
        for (std::size_t b = 0; b < algos.size(); ++b)
          best = std::min(best, metric[b][i]);
        if (metric[a][i] <= theta * best + 1e-15) ++within;
      }
      std::printf(" %8s",
                  fmt(static_cast<double>(within) /
                          static_cast<double>(instances == 0 ? 1 : instances),
                      2)
                      .c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hisim;
  const auto args = bench::parse_args(argc, argv);

  // metric[algo][instance]
  std::vector<std::vector<double>> total(4), comm(3);
  for (const auto& e : bench::scaled_suite(args)) {
    for (unsigned p : args.process_qubits) {
      const auto iqs = bench::run_iqs(args, e.circuit, p);
      const auto nat = bench::run_hisvsim(args, e.circuit, p,
                                          partition::Strategy::Nat);
      const auto dfs = bench::run_hisvsim(args, e.circuit, p,
                                          partition::Strategy::Dfs);
      const auto dagp = bench::run_hisvsim(
          args, e.circuit, p, partition::Strategy::DagP);
      total[0].push_back(dagp.total_seconds());
      total[1].push_back(nat.total_seconds());
      total[2].push_back(dfs.total_seconds());
      total[3].push_back(iqs.total_seconds());
      comm[0].push_back(dagp.metrics.at("exchange.modeled_avg_seconds"));
      comm[1].push_back(nat.metrics.at("exchange.modeled_avg_seconds"));
      comm[2].push_back(dfs.metrics.at("exchange.modeled_avg_seconds"));
    }
  }

  std::printf("== Fig. 9: performance profiles (rho within factor theta of "
              "best) ==\n\n");
  print_profile("(a) total runtime", {"dagP", "Nat", "DFS", "IQS"}, total);
  print_profile("(b) avg communication time", {"dagP", "Nat", "DFS"}, comm);
  std::printf("expected shape (paper): dagP dominates — best for ~65%% of "
              "instances on runtime and ~75%% on communication.\n");
  return 0;
}
