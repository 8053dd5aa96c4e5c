#include <gtest/gtest.h>

#include "heaven/precomputed.h"
#include "heaven/prefetch.h"

namespace heaven {
namespace {

// ------------------------------------------------------------ Precomputed --

TEST(PrecomputedTest, InsertLookupHit) {
  Statistics stats;
  PrecomputedCatalog catalog(&stats);
  MdInterval region({0, 0}, {9, 9});
  catalog.Insert(1, Condenser::kAvg, region, 17.5);
  auto hit = catalog.Lookup(1, Condenser::kAvg, region);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 17.5);
  EXPECT_EQ(stats.Get(Ticker::kPrecomputedHits), 1u);
}

TEST(PrecomputedTest, MissOnDifferentKeyParts) {
  Statistics stats;
  PrecomputedCatalog catalog(&stats);
  MdInterval region({0, 0}, {9, 9});
  catalog.Insert(1, Condenser::kAvg, region, 17.5);
  EXPECT_FALSE(catalog.Lookup(2, Condenser::kAvg, region).has_value());
  EXPECT_FALSE(catalog.Lookup(1, Condenser::kSum, region).has_value());
  EXPECT_FALSE(
      catalog.Lookup(1, Condenser::kAvg, MdInterval({0, 0}, {9, 8}))
          .has_value());
  EXPECT_EQ(stats.Get(Ticker::kPrecomputedMisses), 3u);
}

TEST(PrecomputedTest, OverwriteUpdatesValue) {
  Statistics stats;
  PrecomputedCatalog catalog(&stats);
  MdInterval region({0}, {9});
  catalog.Insert(1, Condenser::kMax, region, 1.0);
  catalog.Insert(1, Condenser::kMax, region, 2.0);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(*catalog.Lookup(1, Condenser::kMax, region), 2.0);
}

TEST(PrecomputedTest, InvalidateObjectDropsOnlyThatObject) {
  Statistics stats;
  PrecomputedCatalog catalog(&stats);
  MdInterval region({0}, {9});
  catalog.Insert(1, Condenser::kAvg, region, 1.0);
  catalog.Insert(1, Condenser::kSum, region, 2.0);
  catalog.Insert(2, Condenser::kAvg, region, 3.0);
  catalog.InvalidateObject(1);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog.Lookup(2, Condenser::kAvg, region).has_value());
}

TEST(PrecomputedTest, SerializeRestoreRoundTrip) {
  Statistics stats;
  PrecomputedCatalog catalog(&stats);
  catalog.Insert(1, Condenser::kAvg, MdInterval({0}, {9}), 3.25);
  catalog.Insert(2, Condenser::kMin, MdInterval({-5, 0}, {5, 9}), -100.5);

  PrecomputedCatalog restored(&stats);
  ASSERT_TRUE(restored.Restore(catalog.Serialize()).ok());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(*restored.Lookup(1, Condenser::kAvg, MdInterval({0}, {9})), 3.25);
  EXPECT_EQ(
      *restored.Lookup(2, Condenser::kMin, MdInterval({-5, 0}, {5, 9})),
      -100.5);
}

TEST(PrecomputedTest, RestoreEmptyImage) {
  Statistics stats;
  PrecomputedCatalog catalog(&stats);
  EXPECT_TRUE(catalog.Restore("").ok());
  EXPECT_EQ(catalog.size(), 0u);
}

TEST(PrecomputedTest, RestoreRejectsTruncation) {
  Statistics stats;
  PrecomputedCatalog catalog(&stats);
  catalog.Insert(1, Condenser::kAvg, MdInterval({0}, {9}), 3.25);
  std::string image = catalog.Serialize();
  image.resize(image.size() - 2);
  PrecomputedCatalog restored(&stats);
  EXPECT_FALSE(restored.Restore(image).ok());
}

// --------------------------------------------------------------- Prefetch --

SnapshotRegistryView MakeRegistry() {
  SnapshotRegistry registry;
  auto add = [&](SuperTileId id, MediumId medium, uint64_t offset) {
    SuperTileMeta meta;
    meta.id = id;
    meta.medium = medium;
    meta.offset = offset;
    meta.size_bytes = 100;
    meta.hull = MdInterval({0}, {9});
    registry.InsertOrAssign(id, meta);
  };
  add(1, 0, 0);
  add(2, 0, 100);
  add(3, 0, 200);
  add(4, 1, 0);
  add(5, 0, 300);
  return registry.Snapshot();
}

bool SkipNone(SuperTileId) { return false; }

TEST(PrefetchTest, PicksNextOffsetsOnSameMedium) {
  auto registry = MakeRegistry();
  auto targets = ChoosePrefetchTargets(registry, 0, 100, 2, SkipNone);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 2u);  // at offset 100
  EXPECT_EQ(targets[1], 3u);  // at offset 200
}

TEST(PrefetchTest, SkipsOtherMedia) {
  auto registry = MakeRegistry();
  auto targets = ChoosePrefetchTargets(registry, 1, 0, 10, SkipNone);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 4u);
}

TEST(PrefetchTest, SkipsCachedAndEarlierOffsets) {
  auto registry = MakeRegistry();
  auto targets = ChoosePrefetchTargets(
      registry, 0, 150, 10, [](SuperTileId id) { return id == 3; });
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 5u);  // 2 is behind the head, 3 is cached
}

TEST(PrefetchTest, RespectsMaxCount) {
  auto registry = MakeRegistry();
  auto targets = ChoosePrefetchTargets(registry, 0, 0, 1, SkipNone);
  EXPECT_EQ(targets.size(), 1u);
}

TEST(PrefetchTest, EmptyRegistry) {
  SnapshotRegistry registry;
  EXPECT_TRUE(
      ChoosePrefetchTargets(registry.Snapshot(), 0, 0, 5, SkipNone).empty());
}

}  // namespace
}  // namespace heaven
