// Regression test for the frame-budget split across shard pools. A floored
// division would silently drop up to K-1 remainder frames of a
// non-divisible budget — a worker configured for 10 frames over K=4
// shards would run with 8. SplitFramesAcrossShards conserves
// the budget exactly: sum == total for every total >= K, with the one-frame
// floor (each pool must be usable) as the only case where the sum exceeds
// the budget. The reader-level test pins the capacities a
// ShardedNetworkReader actually builds, not just the arithmetic.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "test_util.h"

namespace mcn::shard {
namespace {

TEST(FrameBudgetTest, SplitConservesTotalFrames) {
  for (int k = 1; k <= 4; ++k) {
    // Non-divisible budgets are the regression: every remainder class,
    // plus divisible anchors.
    for (size_t total : {1u, 2u, 3u, 5u, 7u, 10u, 11u, 13u, 64u, 100u}) {
      const std::vector<size_t> frames = SplitFramesAcrossShards(total, k);
      ASSERT_EQ(frames.size(), static_cast<size_t>(k));
      const size_t sum =
          std::accumulate(frames.begin(), frames.end(), size_t{0});
      if (total >= static_cast<size_t>(k)) {
        EXPECT_EQ(sum, total) << "total=" << total << " k=" << k;
      } else {
        // One-frame floor: K small pools, never an unusable zero-frame one.
        EXPECT_EQ(sum, static_cast<size_t>(k))
            << "total=" << total << " k=" << k;
      }
      // The split is balanced: shares differ by at most one frame, larger
      // shares first (deterministic across runs and call sites).
      for (size_t s = 1; s < frames.size(); ++s) {
        EXPECT_LE(frames[s], frames[s - 1]);
        EXPECT_LE(frames[0] - frames[s], size_t{1});
      }
    }
  }
  // Zero budget stays zero (the unbounded-pool convention downstream).
  for (int k = 1; k <= 4; ++k) {
    for (size_t f : SplitFramesAcrossShards(0, k)) EXPECT_EQ(f, 0u);
  }
}

TEST(FrameBudgetTest, ReaderPoolsMatchTheSplit) {
  const uint64_t base = test::AnnounceSeed("frame_budget_test");
  test::SmallConfig config;
  config.seed = base;
  auto instance = test::MakeSmallInstance(config).value();
  for (int k : {1, 2, 3, 4}) {
    GridTilePartitioner partitioner;
    auto part = partitioner.Build(instance->graph, k).value();
    ShardedStorage storage(std::move(part));
    const ShardedNetworkFiles files =
        BuildShardedNetwork(&storage, instance->graph, instance->facilities)
            .value();
    for (size_t total : {5u, 7u, 11u, 64u}) {
      const std::vector<size_t> frames = SplitFramesAcrossShards(total, k);
      ShardedNetworkReader reader(&storage, files, frames);
      size_t built = 0;
      for (int s = 0; s < k; ++s) {
        built += reader.shard_pool(static_cast<ShardId>(s)).capacity();
      }
      const size_t expected =
          total >= static_cast<size_t>(k) ? total : static_cast<size_t>(k);
      EXPECT_EQ(built, expected) << "total=" << total << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace mcn::shard
