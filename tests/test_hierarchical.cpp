// The hierarchical executor (Alg. 1): every level-2 part relayouts its
// moved qubits onto apply_gates' cache block in place (sv::permute_qubits)
// and runs there. Tests the permutation against an index map, and the
// targets that relayout against the flat reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "dag/circuit_dag.hpp"
#include "hisvsim/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

void expect_bit_identical(const sv::StateVector& a, const sv::StateVector& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0) << what;
}

std::uint64_t pool_tasks() {
  return trace::MetricsRegistry::global().counter("pool.tasks").value();
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
  Options o;
  o.limit = tc.limit;
  o.strategy = tc.strategy;
  o.opt_level = 0;
  const ExecutionPlan plan = Engine::compile(c, o);
  partition::PartitionOptions po;
  po.limit = tc.limit;
  po.strategy = tc.strategy;
  po.seed = o.seed;
  const auto parts = partition::make_partition(dag::CircuitDag(c), po);
  EXPECT_EQ(plan.num_parts(), parts.num_parts());
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(plan.execute().state.max_abs_diff(flat), 1e-10)
      << tc.name << " " << partition::strategy_name(tc.strategy);
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

// ---- sv::permute_qubits ----------------------------------------------------

/// Amplitude i of `s` moved to the index whose bit to[q] is bit q of i.
sv::StateVector reference_permute(const sv::StateVector& s,
                                  const std::vector<Qubit>& to) {
  sv::StateVector out(s.num_qubits());
  for (Index i = 0; i < s.size(); ++i) {
    Index j = 0;
    for (Qubit q = 0; q < to.size(); ++q)
      if (bits::test(i, q)) j |= Index{1} << to[q];
    out[j] = s[i];
  }
  return out;
}

/// The slot maps of one size: the identity, every single swap, disjoint
/// swaps from the top and from slot 0, a cycle of every length from 2 to
/// n (starting at slot 0 and ending at the top), and seeded shuffles.
std::vector<std::vector<Qubit>> slot_maps(unsigned n, Rng& rng) {
  std::vector<Qubit> id(n);
  std::iota(id.begin(), id.end(), Qubit{0});
  std::vector<std::vector<Qubit>> maps = {id};
  for (Qubit a = 0; a < n; ++a)
    for (Qubit b = a + 1; b < n; ++b) {
      std::vector<Qubit> m = id;
      std::swap(m[a], m[b]);
      maps.push_back(m);
    }
  for (bool from_top : {true, false}) {
    std::vector<Qubit> m = id;
    for (Qubit k = 0; k + 1 < n; k += 2) {
      const Qubit a = from_top ? n - 1 - k : k;
      const Qubit b = from_top ? n - 2 - k : k + 1;
      std::swap(m[a], m[b]);
    }
    maps.push_back(m);
  }
  for (unsigned len = 2; len <= n; ++len)
    for (Qubit first : {Qubit{0}, static_cast<Qubit>(n - len)}) {
      std::vector<Qubit> m = id;
      for (unsigned k = 0; k < len; ++k)
        m[first + k] = first + (k + 1) % len;
      maps.push_back(m);
    }
  for (int r = 0; r < 4; ++r) {
    std::vector<Qubit> m = id;
    for (std::size_t i = m.size(); i > 1; --i)
      std::swap(m[i - 1], m[rng.below(i)]);
    maps.push_back(m);
  }
  return maps;
}

TEST(Relayout, MatchesIndexMapReference) {
  Rng rng(17);
  parallel::set_num_threads(4);
  for (unsigned n = 1; n <= 12; ++n) {
    const sv::StateVector start = testutil::random_state(n, n);
    for (const std::vector<Qubit>& to : slot_maps(n, rng)) {
      const std::string what =
          "n=" + std::to_string(n) + " to=" + ::testing::PrintToString(to);
      const sv::StateVector want = reference_permute(start, to);
      sv::StateVector pooled = start, nested = start;
      const Index moved = sv::permute_qubits(pooled, to);
      {
        // As inside a sweep point or a distributed rank.
        parallel::inline_scope inline_only;
        EXPECT_EQ(sv::permute_qubits(nested, to), moved) << what;
      }
      expect_bit_identical(pooled, want, what);
      expect_bit_identical(nested, want, what);
      // A product of k disjoint swaps is one pass, which moves every
      // amplitude but those whose swapped bits agree pairwise; anything
      // else takes two passes.
      unsigned swaps = 0;
      bool involution = true;
      for (Qubit q = 0; q < n; ++q) {
        involution = involution && to[to[q]] == q;
        swaps += to[q] > q;
      }
      if (involution)
        EXPECT_EQ(moved, start.size() - (start.size() >> swaps)) << what;
      else
        EXPECT_LE(moved, 2 * start.size()) << what;
    }
  }
  parallel::set_num_threads(0);
}

// ---- executing across the cache block --------------------------------------

/// A seeded circuit on n qubits dense in controls and diagonals: controlled
/// phases and rotations, Toffolis, ZZ triples, rzz and 1q phases, with a
/// few dense gates and swaps between them, on qubits drawn from the whole
/// register, so parts move qubits on both sides of the 16-slot block.
Circuit dense_in_controls(unsigned n, std::size_t gates, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(n);
  const auto q = [&] { return static_cast<Qubit>(rng.below(n)); };
  const auto other = [&](std::initializer_list<Qubit> used) {
    Qubit x = q();
    while (std::find(used.begin(), used.end(), x) != used.end()) x = q();
    return x;
  };
  for (Qubit k = 0; k < n; ++k) c.add(Gate::h(k));
  while (c.num_gates() < gates) {
    const Qubit a = q(), b = other({a});
    const double th = rng.uniform(-3.0, 3.0);
    switch (rng.below(10)) {
      case 0: c.add(Gate::cp(a, b, th)); break;
      case 1: c.add(Gate::crz(a, b, th)); break;
      case 2: c.add(Gate::cz(a, b)); break;
      case 3: c.add(Gate::ccx(a, b, other({a, b}))); break;
      case 4:
        c.add(Gate::cx(a, b));
        c.add(Gate::p(b, th));
        c.add(Gate::cx(a, b));
        break;
      case 5: c.add(Gate::rzz(a, b, th)); break;
      case 6: c.add(rng.below(2) ? Gate::t(a) : Gate::rz(a, th)); break;
      case 7: c.add(Gate::cx(a, b)); break;
      case 8: c.add(rng.below(2) ? Gate::ry(a, th) : Gate::swap(a, b)); break;
      default: c.add(Gate::cswap(a, b, other({a, b}))); break;
    }
  }
  return c;
}

TEST(Hierarchical, DenseRandomCircuitsAcrossTheBlock) {
  for (std::uint64_t seed : {3ull, 41ull, 97ull}) {
    Rng rng(seed);
    std::vector<Options> configs;
    // Hierarchical at n = 18: a limit from the widest gate (3) to the
    // block, and one wider than the block.
    for (unsigned limit :
         {3 + static_cast<unsigned>(rng.below(14)), 18u}) {
      Options o;
      o.limit = limit;
      configs.push_back(o);
    }
    // Distributed at p = 2 with level 2 auto needs n = 19: at 18 the
    // 16-qubit shard is the block, so auto level 2 is off.
    for (Target t : {Target::DistributedSerial, Target::DistributedThreaded}) {
      Options o;
      o.target = t;
      o.process_qubits = 2;
      configs.push_back(o);
    }
    for (const Options& o : configs) {
      const unsigned n = target_is_distributed(o.target) ? 19 : 18;
      const Circuit c = dense_in_controls(n, 260, seed);
      const std::string what = std::string(target_name(o.target)) +
                               " limit " + std::to_string(o.limit) +
                               " seed " + std::to_string(seed);
      const ExecutionPlan plan = Engine::compile(c, o);
      const Result r1 = plan.execute();
      const Result r2 = plan.execute();
      EXPECT_LT(r1.state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-9)
          << what;
      expect_bit_identical(r1.state, r2.state, what);
      // At limit 18 the one part moves all 18 qubits and keeps the 16
      // already in the block; every narrower part set relayouts.
      if (o.limit <= 16)
        EXPECT_GT(r1.metrics.at("relayout.bytes"), 0.0) << what;
      else
        EXPECT_EQ(r1.metrics.count("relayout.bytes"), 1u) << what;
    }
  }
}

// Every thread count, and a run inline as inside a sweep point, gives the
// same bits: the relayouts are exact and each amplitude sees the same
// gate sequence.
TEST(Hierarchical, BitIdenticalAcrossThreadCounts) {
  const Circuit c = dense_in_controls(18, 200, 5);
  Options o;
  o.limit = 8;
  const ExecutionPlan plan = Engine::compile(c, o);
  parallel::set_num_threads(1);
  const Result one = plan.execute();
  EXPECT_GT(one.metrics.at("relayout.bytes"), 0.0);
  for (unsigned threads : {3u, 4u}) {
    parallel::set_num_threads(threads);
    expect_bit_identical(one.state, plan.execute().state,
                         std::to_string(threads) + " threads");
  }
  const std::uint64_t before = pool_tasks();
  {
    parallel::inline_scope inline_only;
    expect_bit_identical(one.state, plan.execute().state, "inline");
  }
  EXPECT_EQ(pool_tasks(), before);
  parallel::set_num_threads(0);
}

// The engine reports apply and relayout as wall-clock phases inside the
// execute.
TEST(Hierarchical, EnginePhaseSecondsFitInExecuteWall) {
  Options o;
  o.limit = 8;
  parallel::set_num_threads(4);
  const Result r = Engine::compile(circuits::qft(18), o).execute();
  parallel::set_num_threads(0);
  const double apply = r.metrics.at("apply.seconds");
  const double relayout = r.metrics.at("relayout.seconds");
  EXPECT_GT(apply, 0.0);
  EXPECT_GT(relayout, 0.0);
  EXPECT_GT(r.metrics.at("relayout.bytes"), 0.0);
  EXPECT_LE(apply + relayout, r.metrics.at("execute.wall_seconds"));
}

}  // namespace
}  // namespace hisim
