// Distributed demo: runs Bernstein-Vazirani on a simulated cluster and
// contrasts HiSVSIM's per-part redistribution against the IQS-style
// per-gate exchange baseline — both compiled through the same Engine,
// selected purely by Options::target. The HiSVSIM plan is executed twice
// to show that the second run re-uses the compiled exchange schedule.
// Usage:
//   distributed_bv [qubits=16] [process_qubits=3]

#include <cstdio>
#include <cstdlib>

#include "circuits/generators.hpp"
#include "hisvsim/engine.hpp"
#include "sv/simulator.hpp"

int main(int argc, char** argv) {
  using namespace hisim;
  const unsigned n = argc > 1 ? std::atoi(argv[1]) : 16;
  const unsigned p = argc > 2 ? std::atoi(argv[2]) : 3;

  const Circuit c = circuits::bv(n, 0xB57AC1Eull);
  std::printf("%s over %u simulated ranks\n", c.summary().c_str(), 1u << p);

  Options hopt;
  hopt.target = Target::DistributedSerial;
  hopt.process_qubits = p;
  const ExecutionPlan hplan = Engine::compile(c, hopt);
  const Result his = hplan.execute();
  const Result again = hplan.execute();  // same plan, zero re-partitioning

  Options iopt;
  iopt.target = Target::IqsBaseline;
  iopt.process_qubits = p;
  const Result iqs = Engine::compile(c, iopt).execute();

  const auto check = sv::FlatSimulator().simulate(c);
  std::printf("correct: HiSVSIM %.2e, IQS %.2e (max amp diff vs flat); "
              "repeat run identical: %s\n",
              his.state.max_abs_diff(check), iqs.state.max_abs_diff(check),
              his.state.max_abs_diff(again.state) == 0.0 ? "yes" : "NO");

  std::printf("\n%-34s %12s %12s\n", "", "HiSVSIM", "IQS-style");
  std::printf("%-34s %12zu %12s\n", "parts / exchanges", his.parts, "-");
  // Both targets account through the same metric keys.
  std::printf("%-34s %12.0f %12.0f\n", "comm events",
              his.metrics.at("exchange.count"),
              iqs.metrics.at("exchange.count"));
  std::printf("%-34s %12.2f %12.2f\n", "comm volume (MiB)",
              his.metrics.at("exchange.bytes") / (1 << 20),
              iqs.metrics.at("exchange.bytes") / (1 << 20));
  const double his_comm = his.metrics.at("exchange.modeled_seconds.sum");
  const double iqs_comm = iqs.metrics.at("exchange.modeled_seconds.sum");
  std::printf("%-34s %12.3f %12.3f\n", "modeled comm (ms)", his_comm * 1e3,
              iqs_comm * 1e3);
  // total_seconds() adds the measured apply time, which varies from run
  // to run, to the modeled comm.
  std::printf("%-34s %12.3f %12.3f\n", "measured apply + modeled comm (ms)",
              his.total_seconds() * 1e3, iqs.total_seconds() * 1e3);
  std::printf("%-34s %12.3f %12s\n", "compile, once (ms)",
              his.metrics.at("compile.total_seconds") * 1e3, "-");
  // The factor compares the modeled comm alone, so it repeats exactly.
  if (his_comm > 0)
    std::printf("\nmodeled comm improvement factor over IQS: %.2fx\n",
                iqs_comm / his_comm);
  return 0;
}
