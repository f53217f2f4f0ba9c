#include "sv/hierarchical.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "hisvsim/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim::sv {
namespace {

void expect_bit_identical(const StateVector& a, const StateVector& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0);
}

std::uint64_t pool_tasks() {
  return trace::MetricsRegistry::global().counter("pool.tasks").value();
}

/// Alg. 1 over a whole partitioning: every part through run_part.
void run_parts(const Circuit& c, const partition::Partitioning& parts,
               StateVector& state,
               std::map<std::string, double>* metrics = nullptr) {
  for (const partition::Part& p : parts.parts)
    run_part(c, p.gates, p.qubits, state, metrics);
}

struct Case {
  std::string name;
  unsigned qubits;
  unsigned limit;
  partition::Strategy strategy;
};

class HierarchicalMatchesFlat : public ::testing::TestWithParam<Case> {};

TEST_P(HierarchicalMatchesFlat, SameAmplitudes) {
  const Case& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = tc.limit;
  opt.strategy = tc.strategy;
  const partition::Partitioning parts = partition::make_partition(d, opt);
  partition::validate(d, parts);

  const StateVector flat = FlatSimulator().simulate(c);
  std::map<std::string, double> m;
  StateVector hier(c.num_qubits());
  run_parts(c, parts, hier, &m);
  EXPECT_LT(hier.max_abs_diff(flat), 1e-10)
      << tc.name << " " << partition::strategy_name(tc.strategy);
  // Every part gathers and scatters the whole outer vector once.
  EXPECT_EQ(m.at("sv.outer_bytes_moved"),
            static_cast<double>(2 * parts.num_parts() * flat.bytes()));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, HierarchicalMatchesFlat,
    ::testing::Values(
        Case{"bv", 9, 4, partition::Strategy::Nat},
        Case{"bv", 9, 4, partition::Strategy::Dfs},
        Case{"bv", 9, 4, partition::Strategy::DagP},
        Case{"cat_state", 8, 3, partition::Strategy::DagP},
        Case{"qft", 7, 4, partition::Strategy::DagP},
        Case{"qft", 7, 4, partition::Strategy::Nat},
        Case{"ising", 9, 5, partition::Strategy::DagP},
        Case{"qaoa", 8, 5, partition::Strategy::DagP},
        Case{"cc", 9, 5, partition::Strategy::Dfs},
        Case{"qnn", 8, 4, partition::Strategy::DagP},
        Case{"qpe", 8, 5, partition::Strategy::DagP},
        Case{"grover", 7, 7, partition::Strategy::DagP},
        Case{"adder37", 10, 6, partition::Strategy::DagP}),
    [](const auto& ti) {
      return ti.param.name + "_L" + std::to_string(ti.param.limit) + "_" +
             partition::strategy_name(ti.param.strategy);
    });

TEST(Hierarchical, SinglePartEqualsFlat) {
  const Circuit c = circuits::qft(6);
  const dag::CircuitDag d(c);
  const partition::Partitioning p = partition::partition_nat(d, 6);
  ASSERT_EQ(p.num_parts(), 1u);
  const StateVector flat = FlatSimulator().simulate(c);
  StateVector hier(c.num_qubits());
  run_parts(c, p, hier);
  EXPECT_LT(hier.max_abs_diff(flat), 1e-12);
}

TEST(Hierarchical, RunPartSweepsWholeOuter) {
  // A part acting on a strict qubit subset must leave other-qubit marginals
  // intact.
  Circuit c(5);
  c.add(Gate::h(1));
  c.add(Gate::cx(1, 3));
  const dag::CircuitDag d(c);
  const partition::Partitioning p = partition::partition_nat(d, 2);
  StateVector state(5);
  apply_gate(state, Gate::x(4));  // pre-set qubit 4
  for (const auto& part : p.parts)
    run_part(c, part.gates, part.qubits, state);
  EXPECT_NEAR(state.prob_one(4), 1.0, 1e-12);
  EXPECT_NEAR(state.prob_one(1), 0.5, 1e-12);
  EXPECT_NEAR(state.prob_one(3), 0.5, 1e-12);
}

TEST(Hierarchical, StatsTrafficScalesWithParts) {
  const Circuit c = circuits::ising(10, 3, 2);
  const dag::CircuitDag d(c);
  const partition::Partitioning coarse = partition::partition_nat(d, 10);
  const partition::Partitioning fine = partition::partition_nat(d, 3);
  StateVector s1(10), s2(10);
  std::map<std::string, double> m1, m2;
  run_parts(c, coarse, s1, &m1);
  run_parts(c, fine, s2, &m2);
  ASSERT_GT(fine.num_parts(), coarse.num_parts());
  EXPECT_GT(m2.at("sv.outer_bytes_moved"), m1.at("sv.outer_bytes_moved"));
  EXPECT_LT(s1.max_abs_diff(s2), 1e-10);
}

TEST(Hierarchical, FlopsAccounted) {
  const Circuit c = circuits::bv(8);
  const dag::CircuitDag d(c);
  const partition::Partitioning p = partition::partition_nat(d, 4);
  StateVector s(8);
  std::map<std::string, double> m;
  run_parts(c, p, s, &m);
  EXPECT_GT(m.at("sv.flops"), 0.0);
  EXPECT_GT(m.at("sv.inner_bytes_touched"), 0.0);
}

TEST(Hierarchical, FanOutRule) {
  EXPECT_TRUE(fans_out(4, 256, 4));
  EXPECT_FALSE(fans_out(8, 2, 4));   // fewer cosets than threads
  EXPECT_FALSE(fans_out(21, 8, 4));  // 4 inner vectors exceed the budget
  EXPECT_TRUE(fans_out(19, 8, 4));   // 4 x 2^19 is exactly the budget
  EXPECT_TRUE(fans_out(21, 8, 1));   // one thread: the serial loop
}

// Fan-out path: every part of a 12-qubit circuit at limit 4 has 2^8 cosets,
// so each of 4 workers runs a block of them through its own inner vector.
TEST(Hierarchical, FanOutBitIdenticalAcrossThreadCounts) {
  constexpr unsigned n = 12;
  const Circuit c = testutil::random_circuit(n, 240, 11);
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = 4;
  const partition::Partitioning parts = partition::make_partition(d, opt);
  for (const partition::Part& p : parts.parts)
    ASSERT_TRUE(fans_out(p.working_set(), Index{1} << (n - p.working_set()),
                         4));
  const StateVector init = testutil::random_state(n, 3);
  StateVector flat = init;
  FlatSimulator().run(c, flat);

  StateVector one = init, four = init, nested = init;
  parallel::set_num_threads(1);
  run_parts(c, parts, one);
  parallel::set_num_threads(4);
  std::uint64_t before = pool_tasks();
  run_parts(c, parts, four);
  const std::uint64_t tasks = pool_tasks() - before;
  before = pool_tasks();
  {
    // As inside a sweep point: one thread, no pool tasks.
    parallel::inline_scope inline_only;
    run_parts(c, parts, nested);
  }
  const std::uint64_t nested_tasks = pool_tasks() - before;
  parallel::set_num_threads(0);

  expect_bit_identical(one, four);
  expect_bit_identical(one, nested);
  EXPECT_LT(four.max_abs_diff(flat), 1e-10);
  // One pool task per worker per part; copies and kernels ran inline.
  EXPECT_EQ(tasks, 4 * parts.num_parts());
  EXPECT_EQ(nested_tasks, 0u);
}

// Split-copy path: one part covering all but one qubit has 2 cosets, fewer
// than 3 or 4 threads, so one inner vector is used and each gather and
// scatter is split over the pool (at n = 15 into several chunks; with 3
// threads they start at offsets that are not powers of two). The hole in
// the middle splits the part's qubits; the top hole leaves the part
// holding qubits 0..n-2.
TEST(Hierarchical, SplitCopyBitIdenticalAcrossThreadCounts) {
  for (const unsigned n : {9u, 15u})
    for (const Qubit hole :
         {static_cast<Qubit>(n / 2), static_cast<Qubit>(n - 1)}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " hole=" + std::to_string(hole));
      // A random circuit on every qubit except `hole`, which stays outside
      // the part and picks the coset.
      std::vector<Qubit> part_qubits;
      for (Qubit q = 0; q < n; ++q)
        if (q != hole) part_qubits.push_back(q);
      const Circuit small = testutil::random_circuit(n - 1, 120, n);
      Circuit c(n);
      std::vector<std::size_t> gates;
      for (Gate g : small.gates()) {
        for (Qubit& q : g.qubits) q = part_qubits[q];
        gates.push_back(c.num_gates());
        c.add(std::move(g));
      }
      ASSERT_FALSE(fans_out(n - 1, 2, 3));
      ASSERT_FALSE(fans_out(n - 1, 2, 4));
      const StateVector init = testutil::random_state(n, 5);
      StateVector flat = init;
      FlatSimulator().run(c, flat);

      StateVector one = init, three = init, four = init;
      parallel::set_num_threads(1);
      run_part(c, gates, part_qubits, one);
      parallel::set_num_threads(3);
      run_part(c, gates, part_qubits, three);
      parallel::set_num_threads(4);
      run_part(c, gates, part_qubits, four);
      parallel::set_num_threads(0);

      expect_bit_identical(one, three);
      expect_bit_identical(one, four);
      EXPECT_LT(four.max_abs_diff(flat), 1e-10);
    }
}

// The engine's gather/apply/scatter split is wall-clock: fanned-out
// workers overlap, so summing their stopwatches would exceed the wall.
TEST(Hierarchical, EnginePhaseSecondsFitInExecuteWall) {
  Options o;
  o.target = Target::Hierarchical;
  o.limit = 8;
  parallel::set_num_threads(4);
  const Result r = Engine::compile(circuits::qft(16), o).execute();
  parallel::set_num_threads(0);
  const double gather = r.metrics.at("gather.seconds");
  const double apply = r.metrics.at("apply.seconds");
  const double scatter = r.metrics.at("scatter.seconds");
  EXPECT_GT(gather, 0.0);
  EXPECT_GT(apply, 0.0);
  EXPECT_GT(scatter, 0.0);
  EXPECT_LE(gather + apply + scatter, r.metrics.at("execute.wall_seconds"));
}

}  // namespace
}  // namespace hisim::sv
