// Communication/computation overlap accounting (paper Sec. V-C: ranks
// continue computing while later data arrives, so HiSVSIM reports the
// overlapped estimate alongside the conservative sum).

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "dist/hisvsim_dist.hpp"

namespace hisim::dist {
namespace {

struct Run {
  DistRunReport rep;
  std::size_t parts = 0;
};

Run run(const Circuit& c, unsigned p, CommBackend* backend = nullptr) {
  DistOptions opt;
  opt.process_qubits = p;
  const DistPlan plan = compile_plan(c, opt);
  DistState state(c.num_qubits(), p);
  return {execute_plan(plan, state, {}, backend), plan.num_parts()};
}

/// The conservative serial total hisim::Result reports: every rank waits
/// for the slowest exchange before computing.
double serial_total(const DistRunReport& rep) {
  return rep.compute_seconds + rep.comm.modeled_max_seconds;
}

/// The pipelined estimate hisim::Result reports over the same run.
double overlapped_total(const DistRunReport& rep) {
  return pipelined_total_seconds(rep.part_times, serial_total(rep));
}

TEST(Overlap, PerPartTimesRecorded) {
  const Circuit c = circuits::ising(9, 3, 5);
  const auto [rep, parts] = run(c, 2);
  ASSERT_EQ(rep.part_times.size(), parts);
  double comm_sum = 0, comp_sum = 0;
  for (const auto& [comm, comp] : rep.part_times) {
    EXPECT_GE(comm, 0.0);
    EXPECT_GE(comp, 0.0);
    comm_sum += comm;
    comp_sum += comp;
  }
  EXPECT_NEAR(comm_sum, rep.comm.modeled_max_seconds, 1e-9);
  EXPECT_NEAR(comp_sum, rep.compute_seconds, 0.2 * rep.compute_seconds + 1e-6);
}

TEST(Overlap, NeverExceedsSerialTotal) {
  for (const char* name : {"bv", "qft", "qaoa", "cc"}) {
    const Circuit c = circuits::make_by_name(name, 9);
    const DistRunReport rep = run(c, 2).rep;
    EXPECT_LE(overlapped_total(rep), serial_total(rep) + 1e-9) << name;
    // Lower bound: cannot beat either resource alone.
    EXPECT_GE(overlapped_total(rep) + 1e-9, rep.comm.modeled_max_seconds)
        << name;
    EXPECT_GE(overlapped_total(rep) + 1e-9, rep.compute_seconds * 0.8)
        << name;
  }
}

TEST(Overlap, SinglePartDegeneratesToSum) {
  // One part: nothing to overlap with — estimate equals comm + compute.
  const Circuit c = circuits::cat_state(8);
  // l = 7 < 8 qubits, so cat_state needs 2 parts here.
  const auto [rep, parts] = run(c, 1);
  if (parts == 1) {
    EXPECT_NEAR(overlapped_total(rep), serial_total(rep), 1e-9);
  } else {
    EXPECT_LE(overlapped_total(rep), serial_total(rep) + 1e-9);
  }
}

TEST(Overlap, MeasuredOverlapBoundedByCommPlusCompute) {
  // The measured counterpart of the modeled estimate: hidden work can
  // never exceed the comm + compute work actually performed, under either
  // backend.
  for (const char* name : {"qft", "ising"}) {
    const Circuit c = circuits::make_by_name(name, 9);
    for (CommBackend* backend :
         {&serial_backend(), &threaded_backend()}) {
      const DistRunReport rep = run(c, 2, backend).rep;
      EXPECT_GT(rep.measured_wall_seconds, 0.0) << name;
      EXPECT_GE(rep.measured_comm_seconds, 0.0) << name;
      EXPECT_GE(rep.measured_overlap_seconds, 0.0) << name;
      EXPECT_LE(rep.measured_overlap_seconds,
                rep.measured_comm_seconds + 1e-9)
          << name << " on " << backend->name();
      EXPECT_LE(rep.measured_overlap_seconds, rep.compute_seconds + 1e-9)
          << name << " on " << backend->name();
      EXPECT_LE(rep.measured_overlap_seconds,
                rep.measured_comm_seconds + rep.compute_seconds + 1e-9)
          << name << " on " << backend->name();
    }
  }
}

TEST(Overlap, EmptyReportFallsBack) {
  DistRunReport rep;
  rep.compute_seconds = 1.0;
  rep.comm.modeled_max_seconds = 0.5;
  EXPECT_NEAR(overlapped_total(rep), 1.5, 1e-12);
}

}  // namespace
}  // namespace hisim::dist
