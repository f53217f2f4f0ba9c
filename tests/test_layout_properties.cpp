// Property sweeps over the distributed layout machinery: random part
// sequences must keep every redistribution a bijection, preserve the
// state, and converge to layouts whose part qubits are local.

#include <gtest/gtest.h>

#include <set>

#include "circuits/generators.hpp"
#include "common/rng.hpp"
#include "dist/dist_state.hpp"

namespace hisim::dist {
namespace {

class LayoutChains : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayoutChains, RandomPartSequencePreservesState) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const unsigned n = 6 + static_cast<unsigned>(rng.below(3));
  const unsigned p = 1 + static_cast<unsigned>(rng.below(3));
  const unsigned l = n - p;
  DistState st(n, p);
  // Non-trivial amplitudes.
  for (unsigned r = 0; r < st.num_ranks(); ++r)
    for (Index i = 0; i < st.local(r).size(); ++i)
      st.local(r)[i] =
          cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const sv::StateVector before = st.to_state_vector();

  NetworkModel net;
  CommStats stats;
  for (int step = 0; step < 6; ++step) {
    // Random part: distinct qubits, size 1..l.
    const unsigned w = 1 + static_cast<unsigned>(rng.below(l));
    std::set<Qubit> part;
    while (part.size() < w) part.insert(static_cast<Qubit>(rng.below(n)));
    const std::vector<Qubit> pq(part.begin(), part.end());
    const RankLayout target = RankLayout::for_part(pq, st.layout(), n - p);
    st.redistribute(target, net, stats);
    for (Qubit q : pq) EXPECT_TRUE(st.layout().is_local(q)) << "seed " << seed;
    // Bijection: locate(global_index(r, i)) round-trips.
    for (unsigned r = 0; r < st.num_ranks(); ++r) {
      const Index i = rng.below(st.layout().local_dim());
      const auto [r2, i2] = st.layout().locate(st.layout().global_index(r, i));
      EXPECT_EQ(r2, r);
      EXPECT_EQ(i2, i);
    }
  }
  EXPECT_LT(st.to_state_vector().max_abs_diff(before), 1e-15)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LayoutChains,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(LayoutProperties, StableQubitsAvoidTraffic) {
  // Re-requesting a superset-compatible part that is already local must
  // not move any data.
  const unsigned n = 8, p = 2;
  DistState st(n, p);
  NetworkModel net;
  CommStats s1, s2;
  const RankLayout first = RankLayout::for_part({0, 1, 2}, st.layout(), n - p);
  st.redistribute(first, net, s1);
  EXPECT_EQ(s1.exchanges, 0u);  // identity layout already has 0-5 local
  const RankLayout again = RankLayout::for_part({2, 1}, st.layout(), n - p);
  st.redistribute(again, net, s2);
  EXPECT_EQ(s2.exchanges, 0u);
}

TEST(LayoutProperties, MinimalMovementHeuristic) {
  // Moving one process qubit into the part should not relocate unrelated
  // local qubits: their slots stay fixed.
  const unsigned n = 8, p = 2;
  const RankLayout prev = RankLayout::identity(n, p);
  const RankLayout next = RankLayout::for_part({0, 1, 7}, prev, n - p);
  // Qubits 0..5 were local; 0 and 1 keep their slots.
  EXPECT_EQ(next.slot_of(0), prev.slot_of(0));
  EXPECT_EQ(next.slot_of(1), prev.slot_of(1));
  // Qubit 7 must now be local.
  EXPECT_TRUE(next.is_local(7));
}

TEST(LayoutProperties, CommVolumeBoundedByState) {
  // One redistribution can move at most the whole distributed state.
  const unsigned n = 9, p = 3;
  DistState st(n, p);
  NetworkModel net;
  CommStats stats;
  const RankLayout target =
      RankLayout::for_part({6, 7, 8}, st.layout(), n - p);
  st.redistribute(target, net, stats);
  EXPECT_LE(stats.bytes_total, dim(n) * kAmpBytes);
  EXPECT_GT(stats.bytes_total, 0u);
}

}  // namespace
}  // namespace hisim::dist
