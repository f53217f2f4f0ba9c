// Property-based sweeps: random circuits through every simulation path
// must agree with the flat reference, and every partitioner must emit
// valid acyclic partitionings for arbitrary (seeded) inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/rng.hpp"
#include "dist/hisvsim_dist.hpp"
#include "hisvsim/engine.hpp"
#include "partition/exact.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

using testutil::random_circuit;

bool bit_identical(const sv::StateVector& a, const sv::StateVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// One draw of the compile configuration a target chooses: p process
/// qubits, the level-1 limit, the level-2 limit (0 = auto; n - p or more
/// = off on the distributed targets) and the strategy.
struct Draw {
  unsigned p = 0, limit = 0, level2 = 0;
  partition::Strategy strategy = partition::Strategy::DagP;

  std::string describe() const {
    std::ostringstream os;
    os << "p=" << p << " limit=" << limit << " level2=" << level2
       << " strategy=" << partition::strategy_name(strategy);
    return os.str();
  }
};

/// p in [0, n-2]; the level-1 limit in [lo, n-p], where one node starts at
/// the widest gate and shards start at 2 (narrower shards lower the wide
/// gates to the limit); the level-2 limit 0, an explicit off in
/// [n-p, n-p+2], or in [widest gate left, limit].
Draw draw_config(Rng& rng, unsigned n, unsigned widest) {
  Draw d;
  d.p = static_cast<unsigned>(rng.below(n - 1));
  const unsigned l = n - d.p;
  const unsigned lo = d.p == 0 ? widest : 2;
  d.limit = lo + static_cast<unsigned>(rng.below(l - lo + 1));
  const unsigned w = std::min(widest, d.limit);
  const unsigned pick = static_cast<unsigned>(rng.below(d.limit - w + 3));
  if (pick == 0)
    d.level2 = 0;
  else if (pick == 1)
    d.level2 = l + static_cast<unsigned>(rng.below(3));
  else
    d.level2 = w + pick - 2;
  constexpr partition::Strategy kStrategies[] = {
      partition::Strategy::Nat, partition::Strategy::Dfs,
      partition::Strategy::DagP};
  d.strategy = kStrategies[rng.below(3)];
  return d;
}

class RandomCircuits : public ::testing::TestWithParam<std::uint64_t> {};

// Every target, under every drawn configuration, matches flat within 1e-9,
// and executing one plan twice gives the same bits.
TEST_P(RandomCircuits, AllPathsAgree) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 77 + 1);
  const unsigned n = 5 + static_cast<unsigned>(rng.below(4));       // 5..8
  const std::size_t gates = 20 + rng.below(60);
  const Circuit c = random_circuit(n, gates, seed);
  const sv::StateVector ref = sv::FlatSimulator().simulate(c);
  unsigned widest = 1;
  for (const Gate& g : c.gates()) widest = std::max(widest, g.arity());

  for (int draw = 0; draw < 4; ++draw) {
    const Draw d = draw_config(rng, n, widest);
    SCOPED_TRACE("seed " + std::to_string(seed) + " n=" + std::to_string(n) +
                 " " + d.describe());

    // One node is (p = 0, limit n): flat has no level 2, hierarchical runs
    // Alg. 1 at the drawn level-2 limit (0 = auto). The sharded targets
    // take the whole draw.
    std::vector<Options> targets;
    const auto add = [&](Target t) {
      Options o;
      o.target = t;
      o.strategy = d.strategy;
      o.seed = seed;
      if (t == Target::Hierarchical) o.limit = d.level2;
      if (target_is_distributed(t)) {
        o.process_qubits = d.p;
        o.limit = d.limit;
        if (t != Target::IqsBaseline) o.level2_limit = d.level2;
      }
      targets.push_back(o);
    };
    if (d.p == 0) {
      add(Target::Flat);
      add(Target::Hierarchical);
    } else {
      add(Target::DistributedSerial);
      add(Target::DistributedThreaded);
      add(Target::IqsBaseline);
    }
    for (const Options& o : targets) {
      const ExecutionPlan plan = Engine::compile(c, o);
      plan.validate();  // layouts, gate cover, level-2 partitionings
      const sv::StateVector first = plan.execute().state;
      EXPECT_LT(first.max_abs_diff(ref), 1e-9) << target_name(o.target);
      EXPECT_TRUE(bit_identical(first, plan.execute().state))
          << target_name(o.target) << " repeat differs";
    }

    // One rank at any level-1 limit, on both exchange backends: the
    // single-node targets only reach limit n.
    if (d.p != 0) continue;
    dist::DistOptions dopt;
    dopt.part.limit = d.limit;
    dopt.part.strategy = d.strategy;
    dopt.part.seed = seed;
    dopt.level2_limit = d.level2;
    const dist::DistPlan plan = dist::compile_plan(c, dopt);
    dist::validate_plan(plan);
    for (dist::CommBackend* backend :
         {&dist::serial_backend(), &dist::threaded_backend()}) {
      dist::DistState a(n, 0), b(n, 0);
      dist::execute_plan(plan, a, {}, nullptr, backend);
      dist::execute_plan(plan, b, {}, nullptr, backend);
      EXPECT_LT(a.local(0).max_abs_diff(ref), 1e-9) << "one-rank plan";
      EXPECT_TRUE(bit_identical(a.local(0), b.local(0)))
          << "one-rank plan repeat differs";
    }
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
    partition::validate(d, parts);
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
