// Ring-8 pin of the configuration-space minimization. The enumeration walks
// 9^8 header combinations (several seconds in an optimized build), so this
// runs as a tier2 test rather than with the unit suite.
#include "router/config_space.h"

#include <gtest/gtest.h>

namespace raw::router {
namespace {

TEST(SpaceTier2Test, Ring8Pinned) {
  const SpaceSummary s = enumerate_space(8);
  EXPECT_EQ(s.global_configs, 344'373'768u);  // 9^8 x 8
  EXPECT_EQ(s.distinct_tile_configs, 297u);
  EXPECT_EQ(s.distinct_blocks, 22u);
}

}  // namespace
}  // namespace raw::router
