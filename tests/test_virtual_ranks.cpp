// Footnote 2 of the paper: the power-of-two MPI rank constraint can be
// relaxed by mapping virtual ranks onto physical ranks. These tests cover
// the block mapping, the free co-located traffic, and end-to-end
// correctness on non-power-of-two host counts.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "dist/hisvsim_dist.hpp"
#include "dist/iqs_baseline.hpp"
#include "sv/simulator.hpp"

namespace hisim::dist {
namespace {

TEST(VirtualRanks, BlockMappingCoversAll) {
  DistState st(8, 3, /*physical_ranks=*/3);  // 8 vranks on 3 hosts
  EXPECT_EQ(st.physical_ranks(), 3u);
  std::vector<int> per_host(3, 0);
  for (unsigned v = 0; v < st.num_ranks(); ++v) {
    const unsigned h = st.physical_of(v);
    ASSERT_LT(h, 3u);
    ++per_host[h];
  }
  // ceil(8/3)=3 block: hosts get 3,3,2.
  EXPECT_EQ(per_host[0], 3);
  EXPECT_EQ(per_host[1], 3);
  EXPECT_EQ(per_host[2], 2);
}

TEST(VirtualRanks, DefaultIsOneToOne) {
  DistState st(6, 2);
  EXPECT_EQ(st.physical_ranks(), 4u);
  for (unsigned v = 0; v < 4; ++v) EXPECT_EQ(st.physical_of(v), v);
}

TEST(VirtualRanks, RejectsBadCounts) {
  EXPECT_THROW(DistState(6, 2, 5), Error);  // more hosts than vranks
}

TEST(VirtualRanks, CoLocatedTrafficIsFree) {
  // All virtual ranks on ONE host: redistribution moves data but costs
  // no network bytes.
  DistState st(8, 3, /*physical_ranks=*/1);
  NetworkModel net;
  CommStats stats;
  const RankLayout target = RankLayout::for_part(8, 3, {5, 6, 7}, st.layout());
  st.redistribute(target, net, stats);
  EXPECT_EQ(stats.bytes_total, 0u);
  EXPECT_EQ(stats.messages_total, 0u);
}

TEST(VirtualRanks, FewerHostsFewerBytes) {
  auto bytes_with_hosts = [](unsigned hosts) {
    DistState st(8, 3, hosts);
    NetworkModel net;
    CommStats stats;
    const RankLayout target =
        RankLayout::for_part(8, 3, {5, 6, 7}, st.layout());
    st.redistribute(target, net, stats);
    return stats.bytes_total;
  };
  EXPECT_GE(bytes_with_hosts(8), bytes_with_hosts(4));
  EXPECT_GE(bytes_with_hosts(4), bytes_with_hosts(2));
  EXPECT_EQ(bytes_with_hosts(1), 0u);
}

class VirtualRankCorrectness : public ::testing::TestWithParam<unsigned> {};

TEST_P(VirtualRankCorrectness, DistributedMatchesFlat) {
  const unsigned hosts = GetParam();
  const Circuit c = circuits::ising(9, 2, 6);
  DistState state(9, 3, hosts);
  DistOptions opt;
  opt.process_qubits = 3;
  execute_plan(compile_plan(c, opt), state, {});
  const auto flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(state.to_state_vector().max_abs_diff(flat), 1e-10)
      << hosts << " hosts";
}

INSTANTIATE_TEST_SUITE_P(Hosts, VirtualRankCorrectness,
                         ::testing::Values(1u, 2u, 3u, 5u, 6u, 7u, 8u));

TEST(VirtualRanks, IqsBaselineAlsoWorks) {
  const Circuit c = circuits::bv(9);
  DistState state(9, 3, 3);
  IqsBaselineSimulator().run(c, state);
  const auto flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(state.to_state_vector().max_abs_diff(flat), 1e-10);
}

}  // namespace
}  // namespace hisim::dist
