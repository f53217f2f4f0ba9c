// Communication/computation overlap accounting (paper Sec. V-C: ranks
// continue computing while later data arrives, so HiSVSIM reports the
// pipelined estimate step.pipelined_seconds alongside the conservative
// serial sum). The measured overlap bounds are pinned in test_backend
// (Backend.MeasuredTimesAreReportedAndBounded).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "circuits/generators.hpp"
#include "dist/hisvsim_dist.hpp"

namespace hisim::dist {
namespace {

struct StepTimes {
  std::map<std::string, double> m;
  std::size_t parts = 0;

  double comm() const { return m.at("exchange.modeled_seconds.sum"); }
  double compute() const { return m.at("apply.seconds.sum"); }
  double pipelined() const { return m.at("step.pipelined_seconds"); }
  /// The conservative serial total hisim::Result::total_seconds reports:
  /// every rank waits for the slowest exchange before computing.
  double serial() const { return compute() + comm(); }
};

StepTimes run(const Circuit& c, unsigned p) {
  DistOptions opt;
  opt.process_qubits = p;
  const DistPlan plan = compile_plan(c, opt);
  DistState state(c.num_qubits(), p);
  StepTimes r;
  r.parts = plan.num_parts();
  execute_plan(plan, state, {}, &r.m);
  return r;
}

TEST(Overlap, PerPartTimesRecorded) {
  const Circuit c = circuits::ising(9, 3, 5);
  const StepTimes r = run(c, 2);
  // One (modeled comm, measured apply) sample per part, none negative.
  for (const char* d : {"exchange.modeled_seconds", "apply.seconds"}) {
    const std::string name(d);
    EXPECT_EQ(r.m.at(name + ".count"), static_cast<double>(r.parts)) << d;
    EXPECT_GE(r.m.at(name + ".min"), 0.0) << d;
  }
  EXPECT_GT(r.comm(), 0.0);
}

TEST(Overlap, NeverExceedsSerialTotal) {
  for (const char* name : {"bv", "qft", "qaoa", "cc"}) {
    const StepTimes r = run(circuits::make_by_name(name, 9), 2);
    EXPECT_LE(r.pipelined(), r.serial() + 1e-9) << name;
    // Lower bound: cannot beat either resource alone.
    EXPECT_GE(r.pipelined() + 1e-9, r.comm()) << name;
    EXPECT_GE(r.pipelined() + 1e-9, r.compute() * 0.8) << name;
  }
}

TEST(Overlap, SinglePartDegeneratesToSum) {
  // One part: nothing to overlap with — estimate equals comm + compute.
  const Circuit c = circuits::cat_state(8);
  // l = 7 < 8 qubits, so cat_state needs 2 parts here.
  const StepTimes r = run(c, 1);
  if (r.parts == 1) {
    EXPECT_NEAR(r.pipelined(), r.serial(), 1e-9);
  } else {
    EXPECT_LE(r.pipelined(), r.serial() + 1e-9);
  }
}

}  // namespace
}  // namespace hisim::dist
