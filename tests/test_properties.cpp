// Property-based sweeps: random circuits through every simulation path
// must agree with the flat reference, and every partitioner must emit
// valid acyclic partitionings for arbitrary (seeded) inputs.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hisvsim/engine.hpp"
#include "partition/exact.hpp"
#include "sv/hierarchical.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

using testutil::random_circuit;

class RandomCircuits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuits, AllPathsAgree) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 77 + 1);
  const unsigned n = 5 + static_cast<unsigned>(rng.below(4));       // 5..8
  const std::size_t gates = 20 + rng.below(60);
  const Circuit c = random_circuit(n, gates, seed);
  const sv::StateVector ref = sv::FlatSimulator().simulate(c);

  const dag::CircuitDag d(c);
  const unsigned limit = 3 + static_cast<unsigned>(rng.below(n - 3));

  for (auto s : {partition::Strategy::Nat, partition::Strategy::Dfs,
                 partition::Strategy::DagP}) {
    partition::PartitionOptions opt;
    opt.limit = limit;
    opt.strategy = s;
    opt.seed = seed;
    const auto parts = partition::make_partition(d, opt);
    partition::validate(d, parts);
    const auto state = sv::HierarchicalSimulator().simulate(c, parts);
    EXPECT_LT(state.max_abs_diff(ref), 1e-9)
        << "seed " << seed << " " << partition::strategy_name(s) << " limit "
        << limit;
  }

  // Distributed HiSVSIM and the IQS baseline must agree with flat too.
  const unsigned p = 1 + static_cast<unsigned>(rng.below(2));
  for (Target t : {Target::DistributedSerial, Target::IqsBaseline}) {
    Options opt;
    opt.target = t;
    opt.process_qubits = p;
    opt.seed = seed;
    EXPECT_LT(Engine::compile(c, opt).execute().state.max_abs_diff(ref), 1e-9)
        << target_name(t) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomCircuits,
                         ::testing::Range<std::uint64_t>(1, 21));

class RandomPartitions : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPartitions, ExactNeverWorseThanHeuristics) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
  const Circuit c = random_circuit(n, 10 + rng.below(15), seed + 99);
  const dag::CircuitDag d(c);
  unsigned max_arity = 1;
  for (const Gate& g : c.gates())
    max_arity = std::max(max_arity, g.arity());
  const unsigned limit =
      std::max(max_arity, 3u) + static_cast<unsigned>(rng.below(2));
  const auto exact = partition::partition_exact(d, limit, 1u << 18);
  partition::validate(d, exact.partitioning);
  for (auto s : {partition::Strategy::Nat, partition::Strategy::Dfs,
                 partition::Strategy::DagP}) {
    partition::PartitionOptions opt;
    opt.limit = limit;
    opt.strategy = s;
    opt.seed = seed;
    const auto parts = partition::make_partition(d, opt);
    if (exact.proven_optimal) {
      EXPECT_LE(exact.partitioning.num_parts(), parts.num_parts())
          << "seed " << seed << " vs " << partition::strategy_name(s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomPartitions,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(Properties, NormPreservedThroughEveryPath) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = random_circuit(6, 40, seed);
    Options opt;
    opt.limit = 4;
    EXPECT_NEAR(Engine::compile(c, opt).execute().state.norm(), 1.0, 1e-9);
    Options opt2;
    opt2.target = Target::DistributedSerial;
    opt2.process_qubits = 2;
    EXPECT_NEAR(Engine::compile(c, opt2).execute().state.norm(), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace hisim
