#include "dist/layout.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"

namespace hisim::dist {
namespace {

TEST(Layout, IdentityRoundTrip) {
  const RankLayout lay = RankLayout::identity(6, 2);
  EXPECT_EQ(lay.num_ranks(), 4u);
  EXPECT_EQ(lay.local_qubits(), 4u);
  for (unsigned r = 0; r < 4; ++r)
    for (Index i = 0; i < 16; ++i) {
      const Index g = lay.global_index(r, i);
      EXPECT_EQ(g, (Index{r} << 4) | i);
      const auto [r2, i2] = lay.locate(g);
      EXPECT_EQ(r2, r);
      EXPECT_EQ(i2, i);
    }
}

TEST(Layout, PaperFig3Example) {
  // 4 qubits, 4 ranks: identity layout [a3,a2 | a1,a0].
  const RankLayout lay = RankLayout::identity(4, 2);
  // amplitude a_0110 (global 6) lives on rank P(0,1)=1, local l(1,0)=2.
  const auto [r, i] = lay.locate(0b0110);
  EXPECT_EQ(r, 1u);
  EXPECT_EQ(i, 2u);
}

TEST(Layout, PermutationValidated) {
  EXPECT_THROW(RankLayout(3, 1, {0, 0, 2}), Error);
  EXPECT_THROW(RankLayout(3, 1, {0, 1}), Error);
  EXPECT_THROW(RankLayout(3, 1, {0, 1, 5}), Error);
}

TEST(Layout, ForPartPlacesPartQubitsLocal) {
  const RankLayout prev = RankLayout::identity(8, 3);
  const std::vector<Qubit> part = {5, 6, 7};  // previously process qubits
  const RankLayout lay = RankLayout::for_part(part, prev, 5);
  for (Qubit q : part) EXPECT_TRUE(lay.is_local(q)) << q;
  // All slots used exactly once is enforced by the constructor.
}

TEST(Layout, ForPartKeepsStableQubits) {
  const RankLayout prev = RankLayout::identity(8, 2);
  // Part over qubits already local: layout should be unchanged.
  const RankLayout lay = RankLayout::for_part({0, 1, 2}, prev, 6);
  EXPECT_TRUE(lay == prev);
}

TEST(Layout, ForPartRejectsOversizedPart) {
  const RankLayout prev = RankLayout::identity(4, 2);
  EXPECT_THROW(RankLayout::for_part({0, 1, 2}, prev, 2), Error);
}

TEST(Layout, GlobalIndexBijective) {
  const RankLayout prev = RankLayout::identity(6, 2);
  const RankLayout lay = RankLayout::for_part({4, 5, 1}, prev, 4);
  std::set<Index> seen;
  for (unsigned r = 0; r < lay.num_ranks(); ++r)
    for (Index i = 0; i < lay.local_dim(); ++i) {
      const Index g = lay.global_index(r, i);
      EXPECT_TRUE(seen.insert(g).second);
      const auto [r2, i2] = lay.locate(g);
      EXPECT_EQ(r2, r);
      EXPECT_EQ(i2, i);
    }
  EXPECT_EQ(seen.size(), Index{1} << 6);
}

}  // namespace
}  // namespace hisim::dist
