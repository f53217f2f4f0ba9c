#include <gtest/gtest.h>

#include <cstdint>

#include "circuits/generators.hpp"
#include "partition/partition.hpp"

namespace hisim::partition {
namespace {

struct Case {
  std::string name;
  unsigned qubits;
  unsigned limit;
};

class DagpSuite : public ::testing::TestWithParam<Case> {};

TEST_P(DagpSuite, ValidAndWithinLimit) {
  const Case& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = tc.limit;
  const Partitioning p = partition_dagp(d, opt);
  validate(d, p);
  EXPECT_LE(p.max_working_set(), tc.limit);
}

TEST_P(DagpSuite, BeatsOrMatchesNat) {
  const Case& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = tc.limit;
  const Partitioning dagp = partition_dagp(d, opt);
  const Partitioning nat = partition_nat(d, tc.limit);
  // dagP's merge phase guarantees local optimality; it should essentially
  // never lose to the purely greedy natural cutoff by more than a part.
  EXPECT_LE(dagp.num_parts(), nat.num_parts() + 1)
      << tc.name << " limit " << tc.limit;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, DagpSuite,
    ::testing::Values(Case{"bv", 10, 5}, Case{"bv", 10, 8},
                      Case{"cat_state", 10, 4}, Case{"qft", 8, 5},
                      Case{"ising", 10, 5}, Case{"qaoa", 8, 5},
                      Case{"cc", 10, 6}, Case{"qnn", 8, 5},
                      Case{"qpe", 8, 5}, Case{"adder37", 10, 6},
                      Case{"grover", 8, 8}),
    [](const auto& ti) {
      return ti.param.name + "_q" + std::to_string(ti.param.qubits) +
             "_L" + std::to_string(ti.param.limit);
    });

/// FNV-1a over every part's gate list and qubit list, in part order.
std::uint64_t digest(const Partitioning& p) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Part& part : p.parts) {
    add(part.gates.size());
    for (std::size_t g : part.gates) add(g);
    add(part.qubits.size());
    for (Qubit q : part.qubits) add(q);
  }
  return h;
}

struct Pinned {
  std::string name;
  unsigned qubits, limit;
  std::size_t parts;
  std::uint64_t digest;
};

class DagpPinned : public ::testing::TestWithParam<Pinned> {};

// dagP's output is pinned: part counts and digests recorded when working
// sets were still computed with tree sets. Faster set arithmetic must not
// change a single partition. The 70- and 100-qubit rows need multi-word
// qubit bitsets.
TEST_P(DagpPinned, SamePartitions) {
  const Pinned& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = tc.limit;
  const Partitioning p = partition_dagp(d, opt);
  validate(d, p);
  EXPECT_EQ(p.num_parts(), tc.parts);
  EXPECT_EQ(digest(p), tc.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, DagpPinned,
    ::testing::Values(
        Pinned{"qft", 16, 8, 13, 0x2ed911a4703191b7ull},
        Pinned{"qaoa", 16, 10, 17, 0x182b12086f0084b1ull},
        Pinned{"ising", 20, 12, 2, 0x241a8e6adc4671e3ull},
        Pinned{"qpe", 16, 10, 6, 0x2286e3ee183af329ull},
        Pinned{"cc", 20, 8, 3, 0xb64bce0d96f9994aull},
        Pinned{"adder37", 24, 14, 3, 0xa8046a6ff7963acdull},
        Pinned{"qaoa", 70, 16, 51, 0xc7aff334c17cc0bbull},
        Pinned{"qft", 100, 20, 103, 0x5a8a7a542ce2074bull}),
    [](const auto& ti) {
      return ti.param.name + "_q" + std::to_string(ti.param.qubits) +
             "_L" + std::to_string(ti.param.limit);
    });

TEST(Dagp, SinglePartWhenCircuitFits) {
  const Circuit c = circuits::qft(5);
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = 5;
  const Partitioning p = partition_dagp(d, opt);
  EXPECT_EQ(p.num_parts(), 1u);
}

TEST(Dagp, DeterministicForFixedSeed) {
  const Circuit c = circuits::qaoa(10, 2, 9);
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = 5;
  opt.seed = 777;
  const Partitioning a = partition_dagp(d, opt);
  const Partitioning b = partition_dagp(d, opt);
  EXPECT_EQ(a.part_of, b.part_of);
}

TEST(Dagp, CoarseningPreservesValidity) {
  const Circuit c = circuits::qpe(9);
  const dag::CircuitDag d(c);
  PartitionOptions with, without;
  with.limit = without.limit = 5;
  with.coarsen = true;
  without.coarsen = false;
  const Partitioning a = partition_dagp(d, with);
  const Partitioning b = partition_dagp(d, without);
  validate(d, a);
  validate(d, b);
}

TEST(Dagp, MergePhaseNeverIncreasesParts) {
  const Circuit c = circuits::ising(10, 3, 2);
  const dag::CircuitDag d(c);
  PartitionOptions merged, unmerged;
  merged.limit = unmerged.limit = 5;
  merged.merge = true;
  unmerged.merge = false;
  const Partitioning a = partition_dagp(d, merged);
  const Partitioning b = partition_dagp(d, unmerged);
  validate(d, a);
  validate(d, b);
  EXPECT_LE(a.num_parts(), b.num_parts());
}

TEST(Dagp, EmptyCircuit) {
  const Circuit c(4);
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = 2;
  const Partitioning p = partition_dagp(d, opt);
  EXPECT_EQ(p.num_parts(), 0u);
}

TEST(Dagp, PartitionTimeRecorded) {
  const Circuit c = circuits::qft(8);
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = 4;
  opt.strategy = Strategy::DagP;
  const Partitioning p = make_partition(d, opt);
  EXPECT_GT(p.partition_seconds, 0.0);
}

}  // namespace
}  // namespace hisim::partition
