#include "dist/hisvsim_dist.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/dist_state.hpp"
#include "hisvsim/engine.hpp"
#include "sv/simulator.hpp"

namespace hisim::dist {
namespace {

TEST(DistState, InitialStateIsGround) {
  DistState st(6, 2);
  const sv::StateVector full = st.to_state_vector();
  EXPECT_NEAR(std::abs(full[0] - 1.0), 0.0, 1e-15);
  EXPECT_NEAR(full.norm(), 1.0, 1e-15);
}

TEST(DistState, RedistributePreservesAmplitudes) {
  DistState st(6, 2);
  // Scribble a recognizable pattern through rank-local access.
  for (unsigned r = 0; r < st.num_ranks(); ++r)
    for (Index i = 0; i < st.local(r).size(); ++i)
      st.local(r)[i] = cplx(static_cast<double>(st.layout().global_index(r, i)), 0);
  const sv::StateVector before = st.to_state_vector();
  NetworkModel net;
  CommStats stats;
  const RankLayout target =
      RankLayout::for_part(6, 2, {4, 5}, st.layout());
  st.redistribute(target, net, stats);
  const sv::StateVector after = st.to_state_vector();
  EXPECT_LT(before.max_abs_diff(after), 1e-15);
  EXPECT_GT(stats.bytes_total, 0u);
  EXPECT_EQ(stats.exchanges, 1u);
  EXPECT_GT(stats.modeled_max_seconds, 0.0);
  EXPECT_GE(stats.modeled_max_seconds, stats.modeled_avg_seconds);
}

TEST(DistState, RedistributeToSameLayoutIsFree) {
  DistState st(5, 1);
  NetworkModel net;
  CommStats stats;
  st.redistribute(st.layout(), net, stats);
  EXPECT_EQ(stats.exchanges, 0u);
  EXPECT_EQ(stats.bytes_total, 0u);
}

struct DistCase {
  std::string name;
  unsigned qubits;
  unsigned p;
  partition::Strategy strategy;
  unsigned level2;
  /// Compile through the engine, whose level2 0 is auto (the cache limit)
  /// and whose level2 >= n - p is off; compile_plan's 0 is off.
  bool engine = false;
};

class DistributedMatchesFlat : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedMatchesFlat, SameAmplitudes) {
  const DistCase& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  if (tc.engine) {
    Options o;
    o.target = Target::DistributedThreaded;
    o.process_qubits = tc.p;
    o.strategy = tc.strategy;
    o.level2_limit = tc.level2;
    const Result r = Engine::compile(c, o).execute();
    EXPECT_LT(r.state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-9);
    if (tc.level2 == 0)
      EXPECT_GT(r.inner_parts, 0u) << "auto level 2 is on";
    else
      EXPECT_EQ(r.inner_parts, 0u) << "level 2 as wide as a shard is off";
    return;
  }
  DistOptions opt;
  opt.process_qubits = tc.p;
  opt.part.strategy = tc.strategy;
  opt.level2_limit = tc.level2;
  const DistPlan plan = compile_plan(c, opt);
  DistState state(tc.qubits, tc.p);
  execute_plan(plan, state, {});
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(state.to_state_vector().max_abs_diff(flat), 1e-10)
      << tc.name << " p=" << tc.p;
  EXPECT_GT(plan.num_parts(), 0u);
  if (tc.level2 != 0) {
    EXPECT_GE(plan.inner_parts, plan.num_parts());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, DistributedMatchesFlat,
    ::testing::Values(
        DistCase{"bv", 9, 2, partition::Strategy::DagP, 0},
        DistCase{"bv", 9, 3, partition::Strategy::Nat, 0},
        DistCase{"cat_state", 8, 2, partition::Strategy::Dfs, 0},
        DistCase{"qft", 8, 2, partition::Strategy::DagP, 0},
        DistCase{"qft", 8, 3, partition::Strategy::DagP, 3},
        DistCase{"ising", 9, 2, partition::Strategy::DagP, 0},
        DistCase{"qaoa", 8, 2, partition::Strategy::DagP, 4},
        DistCase{"cc", 9, 3, partition::Strategy::DagP, 0},
        DistCase{"qpe", 8, 2, partition::Strategy::DagP, 0},
        DistCase{"qnn", 8, 2, partition::Strategy::Nat, 0},
        DistCase{"adder37", 10, 2, partition::Strategy::DagP, 0},
        DistCase{"grover", 7, 2, partition::Strategy::DagP, 0},
        // p = 0: one rank, one step holding the whole circuit (the flat
        // and hierarchical targets' plans). grover's 7-qubit MCX stays
        // unlowered on one node, so its level 2 is the whole width.
        DistCase{"qft", 8, 0, partition::Strategy::DagP, 0},
        DistCase{"qft", 8, 0, partition::Strategy::DagP, 4},
        DistCase{"qaoa", 8, 0, partition::Strategy::Nat, 3},
        DistCase{"grover", 7, 0, partition::Strategy::Nat, 7},
        // Through the engine at n - p = 17 > sv::kCacheQubits: level 2 is
        // on by default and off at the shard width.
        DistCase{"qft", 19, 2, partition::Strategy::DagP, 0, true},
        DistCase{"qft", 19, 2, partition::Strategy::DagP, 17, true}),
    [](const auto& ti) {
      return ti.param.name + "_p" + std::to_string(ti.param.p) + "_" +
             partition::strategy_name(ti.param.strategy) + "_l2" +
             std::to_string(ti.param.level2) +
             (ti.param.engine ? "_engine" : "");
    });

TEST(Distributed, AtMostOneRedistributionPerPart) {
  const Circuit c = circuits::cat_state(8);
  DistOptions opt;
  opt.process_qubits = 2;
  const DistPlan plan = compile_plan(c, opt);
  DistState state(8, 2);
  std::map<std::string, double> m;
  execute_plan(plan, state, {}, &m);
  // A part whose qubits are already local (the first one under the
  // identity layout) costs no exchange, so exchanges <= parts.
  EXPECT_GT(plan.num_parts(), 1u);
  EXPECT_LE(m.at("exchange.count"), static_cast<double>(plan.num_parts()));
  EXPECT_GE(m.at("exchange.count"), 1.0);
}

TEST(Distributed, CommDecreasesWithFewerParts) {
  const Circuit c = circuits::ising(9, 3, 5);
  DistState s1(9, 2), s2(9, 2);
  DistOptions nat, dagp;
  nat.process_qubits = dagp.process_qubits = 2;
  nat.part.strategy = partition::Strategy::Nat;
  dagp.part.strategy = partition::Strategy::DagP;
  const DistPlan plan_nat = compile_plan(c, nat);
  const DistPlan plan_dagp = compile_plan(c, dagp);
  std::map<std::string, double> m_nat, m_dagp;
  execute_plan(plan_nat, s1, {}, &m_nat);
  execute_plan(plan_dagp, s2, {}, &m_dagp);
  EXPECT_LE(plan_dagp.num_parts(), plan_nat.num_parts());
  EXPECT_LE(m_dagp.at("exchange.count"), m_nat.at("exchange.count"));
}

TEST(DistState, RedistributeRejectsMismatchedTarget) {
  DistState st(6, 2);
  NetworkModel net;
  CommStats stats;
  // Wrong qubit count and wrong process-qubit split both throw.
  EXPECT_THROW(st.redistribute(RankLayout::identity(5, 2), net, stats), Error);
  EXPECT_THROW(st.redistribute(RankLayout::identity(6, 3), net, stats), Error);
  EXPECT_EQ(stats.exchanges, 0u);
}

TEST(DistState, RedistributeWithExplicitBackendsAgree) {
  // Same scenario as RedistributePreservesAmplitudes, through both
  // backends explicitly: contents and accounting must be identical.
  NetworkModel net;
  sv::StateVector results[2];
  CommStats stats[2];
  CommBackend* backends[2] = {&serial_backend(), &threaded_backend()};
  for (int b = 0; b < 2; ++b) {
    DistState st(6, 2);
    for (unsigned r = 0; r < st.num_ranks(); ++r)
      for (Index i = 0; i < st.local(r).size(); ++i)
        st.local(r)[i] =
            cplx(static_cast<double>(st.layout().global_index(r, i)), 0);
    const RankLayout target = RankLayout::for_part(6, 2, {4, 5}, st.layout());
    st.redistribute(target, net, stats[b], *backends[b]);
    results[b] = st.to_state_vector();
  }
  EXPECT_EQ(stats[0], stats[1]);
  for (Index i = 0; i < results[0].size(); ++i)
    EXPECT_EQ(results[0][i], results[1][i]);
}

TEST(Distributed, ThreadedBackendMatchesFlatReference) {
  const Circuit c = circuits::qft(9);
  DistState state(9, 2);
  DistOptions opt;
  opt.process_qubits = 2;
  std::map<std::string, double> m;
  execute_plan(compile_plan(c, opt), state, {}, &m, &threaded_backend());
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(state.to_state_vector().max_abs_diff(flat), 1e-10);
  EXPECT_GT(m.at("step.wall_seconds.sum"), 0.0);
  EXPECT_GE(m.at("exchange.overlap_seconds.sum"), 0.0);
}

TEST(RunBits, CountsFixedLowSlotsUpToTheCap) {
  EXPECT_EQ(run_bits({}), 0u);
  EXPECT_EQ(run_bits(std::vector<unsigned>{1, 0, 2, 3}), 0u);
  EXPECT_EQ(run_bits(std::vector<unsigned>{0, 1, 3, 2}), 2u);
  EXPECT_EQ(run_bits(std::vector<unsigned>{0, 1, 2}), 3u);
  std::vector<unsigned> wide(kMaxRunBits + 4);
  std::iota(wide.begin(), wide.end(), 0u);
  EXPECT_EQ(run_bits(wide), kMaxRunBits);
}

// Independent oracle for the run copies (exchange and gather): every
// amplitude holds its own canonical global index, written and checked one
// amplitude at a time through RankLayout::global_index's per-bit loop.
void write_global_indices(DistState& st) {
  for (unsigned r = 0; r < st.num_ranks(); ++r)
    for (Index i = 0; i < st.layout().local_dim(); ++i)
      st.local(r)[i] =
          cplx(static_cast<double>(st.layout().global_index(r, i)), 0);
}

void expect_global_indices(const DistState& st, const std::string& where) {
  Index bad = 0;
  for (unsigned r = 0; r < st.num_ranks(); ++r)
    for (Index i = 0; i < st.layout().local_dim(); ++i)
      bad += st.local(r)[i] !=
             cplx(static_cast<double>(st.layout().global_index(r, i)), 0);
  EXPECT_EQ(bad, 0u) << where << ": shard amplitudes off their layout";
  const sv::StateVector full = st.to_state_vector();
  bad = 0;
  for (Index g = 0; g < full.size(); ++g)
    bad += full[g] != cplx(static_cast<double>(g), 0);
  EXPECT_EQ(bad, 0u) << where << ": to_state_vector()[g] != g";
}

/// Run width of the exchange from `from` to `to`: its pull map sends slot
/// s of the new combined index to slot from.slot_of(to.qubit_at(s)).
unsigned exchange_run_bits(const RankLayout& from, const RankLayout& to) {
  std::vector<unsigned> inv(to.local_qubits());
  for (unsigned s = 0; s < inv.size(); ++s)
    inv[s] = from.slot_of(to.qubit_at(s));
  return run_bits(inv);
}

struct RunCase {
  std::string name;
  unsigned n, p, physical;
  std::vector<Qubit> part;     // target = for_part(part) from identity...
  std::vector<Qubit> slot_of;  // ...or this explicit layout when set
  unsigned exchange_bits;      // run width the case is built to cover
};

class RunCopies : public ::testing::TestWithParam<RunCase> {};

TEST_P(RunCopies, ShardsAndGatherMatchGlobalIndexOracle) {
  const RunCase& tc = GetParam();
  const RankLayout start = RankLayout::identity(tc.n, tc.p);
  const RankLayout target =
      tc.slot_of.empty() ? RankLayout::for_part(tc.n, tc.p, tc.part, start)
                         : RankLayout(tc.n, tc.p, tc.slot_of);
  ASSERT_EQ(exchange_run_bits(start, target), tc.exchange_bits);
  NetworkModel net;
  for (CommBackend* backend : {&serial_backend(), &threaded_backend()}) {
    const std::string where = tc.name + "/" + backend->name();
    DistState st(tc.n, tc.p, tc.physical);
    write_global_indices(st);
    expect_global_indices(st, where + " identity");
    CommStats stats;
    st.redistribute(target, net, stats, *backend);
    ASSERT_EQ(st.layout(), target);
    EXPECT_EQ(stats.exchanges, 1u);
    expect_global_indices(st, where + " target");
    // And back: the inverse exchange, into the identity layout's runs.
    st.redistribute(start, net, stats, *backend);
    expect_global_indices(st, where + " back");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, RunCopies,
    ::testing::Values(
        // Victim of qubit 4 is slot 0: every amplitude is its own run.
        RunCase{"width0", 6, 2, 0, {1, 2, 3, 4}, {}, 0},
        // Qubit 6 displaces slot 5: runs of 2^5.
        RunCase{"middle", 8, 2, 0, {0, 1, 2, 3, 6}, {}, 5},
        // Only the two process slots swap: whole shards are runs (b = l).
        RunCase{"full_l", 6, 2, 0, {}, {0, 1, 2, 3, 5, 4}, 4},
        // Same with l = 15 > kMaxRunBits: runs stop at the cap.
        RunCase{"capped", 17, 2, 0, {},
                {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 15},
                kMaxRunBits},
        // 8 virtual ranks on 3 hosts (blocks of 3, 3, 2).
        RunCase{"virtual", 7, 3, 3, {0, 1, 5, 6}, {}, 2}),
    [](const auto& ti) { return ti.param.name; });

TEST(DistState, LoadStateVectorInvertsGatherUnderNonIdentityLayout) {
  Rng rng(14);
  const std::vector<std::vector<Qubit>> parts = {{1, 2, 3, 4}, {0, 1, 2, 5}};
  for (const std::vector<Qubit>& part : parts) {
    DistState st(6, 2);
    NetworkModel net;
    CommStats stats;
    st.redistribute(RankLayout::for_part(6, 2, part, st.layout()), net, stats);
    ASSERT_FALSE(st.layout() == RankLayout::identity(6, 2));
    sv::StateVector in(6);
    for (Index g = 0; g < in.size(); ++g)
      in[g] = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    st.load_state_vector(in);
    const sv::StateVector out = st.to_state_vector();
    EXPECT_EQ(std::memcmp(out.data(), in.data(), in.bytes()), 0);
  }

  DistState st(6, 2);
  try {
    st.load_state_vector(sv::StateVector(5));
    ADD_FAILURE() << "size mismatch accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "initial state has 5 qubits, plan expects 6"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hisim::dist
