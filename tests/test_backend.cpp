// CommBackend contract: SerialBackend and ThreadedBackend must be
// observationally identical — bit-identical shard contents and identical
// CommStats on any exchange sequence — differing only in *when* data moves
// (the threaded backend overlaps movement with compute and reports
// measured wall-clock comm/overlap).

#include "dist/backend.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "common/rng.hpp"
#include "dist/dist_state.hpp"
#include "dist/hisvsim_dist.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim::dist {
namespace {

/// Exact (bitwise) shard comparison — backends move amplitudes, they never
/// do arithmetic, so even the doubles must match exactly.
void expect_bit_identical(const DistState& a, const DistState& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  ASSERT_TRUE(a.layout() == b.layout());
  for (unsigned r = 0; r < a.num_ranks(); ++r) {
    const sv::StateVector &sa = a.local(r), &sb = b.local(r);
    ASSERT_EQ(sa.size(), sb.size());
    for (Index i = 0; i < sa.size(); ++i)
      ASSERT_EQ(sa[i], sb[i]) << "rank " << r << " amp " << i;
  }
}

using Metrics = std::map<std::string, double>;

/// The modeled exchange accounting both backends must agree on: derived
/// from the permutations, never from timing.
void expect_same_exchange_accounting(const Metrics& a, const Metrics& b) {
  for (const char* key :
       {"exchange.count", "exchange.bytes", "exchange.messages",
        "exchange.modeled_seconds.sum", "exchange.modeled_avg_seconds"})
    EXPECT_EQ(a.at(key), b.at(key)) << key;
}

void scribble(DistState& st) {
  for (unsigned r = 0; r < st.num_ranks(); ++r)
    for (Index i = 0; i < st.local(r).size(); ++i)
      st.local(r)[i] =
          cplx(static_cast<double>(st.layout().global_index(r, i)), 0.25);
}

/// Random subset of at most n - p qubits (possibly empty).
std::vector<Qubit> random_part(Rng& rng, unsigned n, unsigned p) {
  return testutil::random_qubit_subset(rng, n, n - p);
}

TEST(BackendParity, RandomRedistributeChains) {
  Rng rng(0xBACC);
  for (unsigned chain = 0; chain < 8; ++chain) {
    const unsigned n = 7 + chain % 3;  // 7..9 qubits
    const unsigned p = 1 + chain % 3;  // 2..8 ranks
    const unsigned hosts = chain % 2 == 0 ? 0 : (1u << p) - 1;  // virtual too
    DistState serial_st(n, p, hosts), threaded_st(n, p, hosts);
    scribble(serial_st);
    scribble(threaded_st);
    NetworkModel net;
    CommStats serial_stats, threaded_stats;
    for (unsigned step = 0; step < 6; ++step) {
      const std::vector<Qubit> part = random_part(rng, n, p);
      const RankLayout target =
          RankLayout::for_part(part, serial_st.layout(), n - p);
      serial_st.redistribute(target, net, serial_stats, serial_backend());
      threaded_st.redistribute(target, net, threaded_stats,
                               threaded_backend());
      expect_bit_identical(serial_st, threaded_st);
      EXPECT_EQ(serial_stats, threaded_stats) << "chain " << chain << " step "
                                              << step;
    }
    // The chains did move data (unless every random part was local).
    EXPECT_EQ(serial_stats.exchanges, threaded_stats.exchanges);
  }
}

TEST(BackendParity, AsyncShardWaitsOutOfOrder) {
  const unsigned n = 9, p = 3;
  DistState serial_st(n, p), threaded_st(n, p);
  scribble(serial_st);
  scribble(threaded_st);
  NetworkModel net;
  CommStats s1, s2;
  const RankLayout target =
      RankLayout::for_part({6, 7, 8}, serial_st.layout(), n - p);
  serial_st.redistribute(target, net, s1, serial_backend());
  auto handle = threaded_st.redistribute_async(target, net, s2,
                                               threaded_backend());
  ASSERT_NE(handle, nullptr);
  // Touch shards in reverse arrival-agnostic order; each wait must make
  // exactly that shard safe to read.
  for (unsigned r = threaded_st.num_ranks(); r-- > 0;) {
    handle->wait_shard(r);
    for (Index i = 0; i < threaded_st.local(r).size(); ++i)
      EXPECT_EQ(threaded_st.local(r)[i], serial_st.local(r)[i]);
  }
  handle->wait_all();
  EXPECT_GE(handle->seconds(), 0.0);
  EXPECT_EQ(s1, s2);
}

TEST(BackendParity, NoOpRedistributeReturnsNullHandle) {
  DistState st(6, 2);
  NetworkModel net;
  CommStats stats;
  EXPECT_EQ(st.redistribute_async(st.layout(), net, stats,
                                  threaded_backend()),
            nullptr);
  EXPECT_EQ(stats.exchanges, 0u);
}

struct CircuitCase {
  const char* name;
  unsigned qubits;
  unsigned p;
  unsigned level2;
};

class BackendCircuitParity : public ::testing::TestWithParam<CircuitCase> {};

TEST_P(BackendCircuitParity, StatesAndStatsMatchSerial) {
  const auto& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);

  DistOptions opt;
  opt.process_qubits = tc.p;
  opt.level2_limit = tc.level2;
  const DistPlan plan = compile_plan(c, opt);
  DistState serial_st(tc.qubits, tc.p), threaded_st(tc.qubits, tc.p);
  Metrics serial_m, threaded_m;
  execute_plan(plan, serial_st, {}, &serial_m, &serial_backend());
  execute_plan(plan, threaded_st, {}, &threaded_m, &threaded_backend());

  expect_bit_identical(serial_st, threaded_st);
  expect_same_exchange_accounting(serial_m, threaded_m);
  EXPECT_EQ(serial_m.at("apply.seconds.count"),
            threaded_m.at("apply.seconds.count"));

  // Both stay correct against the flat reference.
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(threaded_st.to_state_vector().max_abs_diff(flat), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, BackendCircuitParity,
    ::testing::Values(CircuitCase{"bv", 9, 2, 0}, CircuitCase{"qft", 8, 3, 0},
                      CircuitCase{"ising", 9, 2, 0},
                      CircuitCase{"qaoa", 8, 2, 4},
                      CircuitCase{"grover", 7, 2, 0},
                      CircuitCase{"cc", 9, 3, 0}),
    [](const auto& ti) {
      return std::string(ti.param.name) + "_p" +
             std::to_string(ti.param.p) + "_l2" +
             std::to_string(ti.param.level2);
    });

TEST(Backend, MeasuredTimesAreReportedAndBounded) {
  // The measured counterpart of the modeled pipelined estimate, on both
  // backends: hidden work never exceeds the comm or compute actually done.
  for (const char* name : {"qft", "ising"}) {
    const Circuit c = circuits::make_by_name(name, 9);
    for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
      SCOPED_TRACE(std::string(name) + " on " + backend_kind_name(kind));
      DistState state(9, 2);
      DistOptions opt;
      opt.process_qubits = 2;
      Metrics m;
      execute_plan(compile_plan(c, opt), state, {}, &m, &backend_for(kind));

      EXPECT_GT(m.at("step.wall_seconds.sum"), 0.0);
      // Both circuits relayout at least once.
      const double comm = m.at("exchange.measured_seconds.sum");
      const double compute = m.at("apply.seconds.sum");
      EXPECT_GT(comm, 0.0);
      const double overlap = m.at("exchange.overlap_seconds.sum");
      EXPECT_GE(overlap, 0.0);
      // Overlap is a window intersection: it cannot exceed the comm
      // window, the compute window, or (a fortiori) their sum.
      EXPECT_LE(overlap, comm + 1e-9);
      EXPECT_LE(overlap, compute + 1e-9);
      EXPECT_LE(overlap, comm + compute + 1e-9);
      if (kind == BackendKind::Serial) {
        // Synchronous backend: the exchange finished before any rank
        // began computing, so the windows never intersect.
        EXPECT_EQ(overlap, 0.0);
      }
    }
  }
}

TEST(Backend, ParseAndNames) {
  EXPECT_EQ(parse_backend("serial"), BackendKind::Serial);
  EXPECT_EQ(parse_backend("threaded"), BackendKind::Threaded);
  EXPECT_THROW(parse_backend("mpi"), Error);
  EXPECT_STREQ(backend_kind_name(BackendKind::Serial), "serial");
  EXPECT_STREQ(backend_kind_name(BackendKind::Threaded), "threaded");
  EXPECT_STREQ(serial_backend().name(), "serial");
  EXPECT_STREQ(threaded_backend().name(), "threaded");
}

TEST(Validation, DistStateRejectsBadShapes) {
  EXPECT_THROW(DistState(0, 0), Error);           // no qubits
  EXPECT_THROW(DistState(4, 5), Error);           // p > n
  EXPECT_THROW(DistState(6, 2, 5), Error);        // 5 hosts for 4 vranks
  EXPECT_NO_THROW(DistState(6, 2, 3));            // virtual ranks OK
  EXPECT_NO_THROW(DistState(6, 6));               // p == n is a valid corner
}

TEST(Validation, RankLayoutRejectsBadPermutations) {
  EXPECT_THROW(RankLayout(4, 5, {0, 1, 2, 3}), Error);     // p > n
  EXPECT_THROW(RankLayout(4, 2, {0, 1, 2}), Error);        // wrong size
  EXPECT_THROW(RankLayout(4, 2, {0, 1, 2, 4}), Error);     // slot out of range
  EXPECT_THROW(RankLayout(4, 2, {0, 1, 1, 3}), Error);     // duplicate slot
  EXPECT_THROW(
      RankLayout::for_part({0, 1, 2, 3, 4}, RankLayout::identity(6, 2), 4),
      Error);  // part wider than the shard
}

}  // namespace
}  // namespace hisim::dist
