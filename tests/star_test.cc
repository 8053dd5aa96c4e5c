#include "heaven/star.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "array/tiling.h"
#include "common/rng.h"
#include "heaven/size_adaptation.h"
#include "heaven/space_filling_curve.h"

namespace heaven {
namespace {

/// Builds tile descriptors for a regular tiling of `domain`.
std::vector<TileDescriptor> MakeTiles(const MdInterval& domain,
                                      const std::vector<int64_t>& extents,
                                      size_t cell_size) {
  std::vector<TileDescriptor> tiles;
  TileId next_id = 1;
  for (const MdInterval& tile_domain : RegularTiling(domain, extents)) {
    TileDescriptor tile;
    tile.tile_id = next_id++;
    tile.domain = tile_domain;
    tile.size_bytes = tile_domain.CellCount() * cell_size;
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

/// Every tile appears in exactly one group; hulls cover members.
void CheckPartition(const std::vector<TileDescriptor>& tiles,
                    const std::vector<SuperTileGroup>& groups) {
  std::set<TileId> seen;
  std::map<TileId, const TileDescriptor*> by_id;
  for (const TileDescriptor& tile : tiles) by_id[tile.tile_id] = &tile;
  for (const SuperTileGroup& group : groups) {
    EXPECT_FALSE(group.tiles.empty());
    uint64_t payload = 0;
    for (TileId id : group.tiles) {
      EXPECT_TRUE(seen.insert(id).second) << "tile " << id << " duplicated";
      ASSERT_TRUE(by_id.count(id));
      EXPECT_TRUE(group.hull.Contains(by_id[id]->domain));
      payload += by_id[id]->size_bytes;
    }
    EXPECT_EQ(payload, group.payload_bytes);
  }
  EXPECT_EQ(seen.size(), tiles.size());
}

TEST(StarTest, SingleGroupWhenBudgetLarge) {
  MdInterval domain({0, 0}, {39, 39});
  auto tiles = MakeTiles(domain, {10, 10}, 1);
  auto groups = StarPartition(tiles, domain, {10, 10}, 1 << 20);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->size(), 1u);
  CheckPartition(tiles, *groups);
}

TEST(StarTest, OneTilePerGroupWhenBudgetTiny) {
  MdInterval domain({0, 0}, {39, 39});
  auto tiles = MakeTiles(domain, {10, 10}, 1);
  auto groups = StarPartition(tiles, domain, {10, 10}, 100);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->size(), 16u);
  CheckPartition(tiles, *groups);
}

TEST(StarTest, GroupPayloadRespectsBudget) {
  MdInterval domain({0, 0}, {79, 79});
  auto tiles = MakeTiles(domain, {10, 10}, 4);  // 400-byte tiles, 64 of them
  const uint64_t budget = 1800;                 // 4 tiles per group
  auto groups = StarPartition(tiles, domain, {10, 10}, budget);
  ASSERT_TRUE(groups.ok());
  CheckPartition(tiles, *groups);
  for (const SuperTileGroup& group : *groups) {
    EXPECT_LE(group.payload_bytes, budget);
  }
  // Near-cubic: groups should be 2x2 tiles, so 16 groups.
  EXPECT_EQ(groups->size(), 16u);
}

TEST(StarTest, GroupsAreSpatiallyCompact) {
  MdInterval domain({0, 0}, {79, 79});
  auto tiles = MakeTiles(domain, {10, 10}, 4);
  auto groups = StarPartition(tiles, domain, {10, 10}, 1800);
  ASSERT_TRUE(groups.ok());
  for (const SuperTileGroup& group : *groups) {
    // A 2x2 tile group has a 20x20 hull.
    EXPECT_EQ(group.hull.CellCount(), 400u);
  }
}

TEST(StarTest, ThreeDimensionalPartition) {
  MdInterval domain({0, 0, 0}, {19, 19, 19});
  auto tiles = MakeTiles(domain, {5, 5, 5}, 2);
  auto groups = StarPartition(tiles, domain, {5, 5, 5}, 2000);
  ASSERT_TRUE(groups.ok());
  CheckPartition(tiles, *groups);
  for (const SuperTileGroup& group : *groups) {
    EXPECT_LE(group.payload_bytes, 2000u);
  }
}

TEST(StarTest, BorderTilesHandled) {
  MdInterval domain({0, 0}, {24, 17});  // not divisible by 10
  auto tiles = MakeTiles(domain, {10, 10}, 1);
  auto groups = StarPartition(tiles, domain, {10, 10}, 250);
  ASSERT_TRUE(groups.ok());
  CheckPartition(tiles, *groups);
}

TEST(StarTest, MisalignedTileRejected) {
  MdInterval domain({0, 0}, {19, 19});
  auto tiles = MakeTiles(domain, {10, 10}, 1);
  tiles[0].domain = MdInterval({1, 0}, {9, 9});  // shifted off-grid
  EXPECT_FALSE(StarPartition(tiles, domain, {10, 10}, 1000).ok());
}

TEST(StarTest, EmptyInputYieldsNoGroups) {
  auto groups = StarPartition({}, MdInterval({0}, {9}), {5}, 100);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());
}

TEST(EStarTest, HandlesIrregularTiling) {
  // Tiles of different sizes that no regular grid describes.
  std::vector<TileDescriptor> tiles(3);
  tiles[0].tile_id = 1;
  tiles[0].domain = MdInterval({0, 0}, {4, 9});
  tiles[0].size_bytes = 50;
  tiles[1].tile_id = 2;
  tiles[1].domain = MdInterval({5, 0}, {9, 4});
  tiles[1].size_bytes = 25;
  tiles[2].tile_id = 3;
  tiles[2].domain = MdInterval({5, 5}, {9, 9});
  tiles[2].size_bytes = 25;
  auto groups = EStarPartition(tiles, 60);
  ASSERT_TRUE(groups.ok());
  CheckPartition(tiles, *groups);
  for (const SuperTileGroup& group : *groups) {
    EXPECT_LE(group.payload_bytes, 60u);
  }
}

TEST(EStarTest, PacksNeighborsTogether) {
  MdInterval domain({0, 0}, {39, 39});
  auto tiles = MakeTiles(domain, {10, 10}, 1);  // 100-byte tiles
  auto groups = EStarPartition(tiles, 400);     // 4 tiles per group
  ASSERT_TRUE(groups.ok());
  CheckPartition(tiles, *groups);
  EXPECT_EQ(groups->size(), 4u);
  // Z-order packs 2x2 quadrants: each group hull is a 20x20 quadrant.
  for (const SuperTileGroup& group : *groups) {
    EXPECT_EQ(group.hull.CellCount(), 400u);
  }
}

TEST(EStarTest, AccessPreferencesChangeGrouping) {
  MdInterval domain({0, 0}, {39, 39});
  auto tiles = MakeTiles(domain, {10, 10}, 1);
  // Strong preference along dim 1: groups should become rows.
  auto groups = EStarPartition(tiles, 400, {1.0, 1000.0});
  ASSERT_TRUE(groups.ok());
  CheckPartition(tiles, *groups);
  for (const SuperTileGroup& group : *groups) {
    // A row of 4 tiles: hull extent 10 x 40.
    EXPECT_EQ(group.hull.Extent(0), 10);
    EXPECT_EQ(group.hull.Extent(1), 40);
  }
}

TEST(EStarTest, OversizedTileGetsOwnGroup) {
  std::vector<TileDescriptor> tiles(2);
  tiles[0].tile_id = 1;
  tiles[0].domain = MdInterval({0}, {9});
  tiles[0].size_bytes = 5000;  // exceeds the budget alone
  tiles[1].tile_id = 2;
  tiles[1].domain = MdInterval({10}, {19});
  tiles[1].size_bytes = 10;
  auto groups = EStarPartition(tiles, 100);
  ASSERT_TRUE(groups.ok());
  CheckPartition(tiles, *groups);
  EXPECT_EQ(groups->size(), 2u);
}

class StarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StarPropertyTest, RandomConfigurationsPartitionExactly) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const size_t dims = 1 + rng.Uniform(3);
    std::vector<int64_t> hi(dims);
    std::vector<int64_t> extents(dims);
    for (size_t d = 0; d < dims; ++d) {
      hi[d] = rng.UniformRange(10, 60);
      extents[d] = rng.UniformRange(3, 15);
    }
    MdInterval domain{MdPoint(std::vector<int64_t>(dims, 0)), MdPoint(hi)};
    auto tiles = MakeTiles(domain, extents, 1 + rng.Uniform(8));
    const uint64_t budget = 1ull << rng.UniformRange(8, 20);

    auto star = StarPartition(tiles, domain, extents, budget);
    ASSERT_TRUE(star.ok());
    CheckPartition(tiles, *star);

    auto estar = EStarPartition(tiles, budget);
    ASSERT_TRUE(estar.ok());
    CheckPartition(tiles, *estar);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarPropertyTest,
                         ::testing::Values(17, 171, 1717));

// ---------------------------------------------------------------- Z-order --

uint64_t ZKey(const MdPoint& p, const MdPoint& origin) {
  return GetCurve(CurveKind::kZOrder).Key(p, origin);
}

TEST(ZOrderTest, OriginMapsToZero) {
  EXPECT_EQ(ZKey(MdPoint{3, 7}, MdPoint{3, 7}), 0u);
}

TEST(ZOrderTest, InterleavesBits) {
  MdPoint origin{0, 0};
  // (1,0) and (0,1) differ in which interleaved bit is set.
  const uint64_t k10 = ZKey(MdPoint{1, 0}, origin);
  const uint64_t k01 = ZKey(MdPoint{0, 1}, origin);
  EXPECT_NE(k10, k01);
  EXPECT_EQ(k10 | k01, ZKey(MdPoint{1, 1}, origin));
}

TEST(ZOrderTest, LocalityNearbyPointsHaveNearbyKeys) {
  MdPoint origin{0, 0};
  const uint64_t base = ZKey(MdPoint{8, 8}, origin);
  const uint64_t near = ZKey(MdPoint{9, 8}, origin);
  const uint64_t far = ZKey(MdPoint{100, 100}, origin);
  EXPECT_LT(near > base ? near - base : base - near,
            far > base ? far - base : base - far);
}

TEST(ZOrderTest, NegativeShiftedCoordinatesClampToZero) {
  // Points below the origin clamp rather than wrap.
  EXPECT_EQ(ZKey(MdPoint{-5, -5}, MdPoint{0, 0}), 0u);
}

// --------------------------------------------------------- size adaptation --

TEST(SizeAdaptationTest, OptimumMatchesAnalyticFormula) {
  TapeDriveProfile profile = MidTapeProfile();
  const uint64_t query_bytes = 64ull << 20;
  const uint64_t optimum = OptimalSuperTileBytes(profile, query_bytes);
  const double expected = std::sqrt(static_cast<double>(query_bytes) *
                                    profile.MeanAccessSeconds() *
                                    profile.transfer_bytes_per_s);
  EXPECT_NEAR(static_cast<double>(optimum), expected, expected * 0.01);
}

TEST(SizeAdaptationTest, SlowerPositioningMeansLargerSuperTiles) {
  const uint64_t q = 64ull << 20;
  EXPECT_GT(OptimalSuperTileBytes(SlowTapeProfile(), q) /
                (SlowTapeProfile().transfer_bytes_per_s /
                 FastTapeProfile().transfer_bytes_per_s + 1),
            0u);
  // Normalize by transfer rate: compare pure positioning effect via the
  // predicted curves instead.
  const uint64_t small = 1 << 20;
  const uint64_t large = 1ull << 30;
  // For the slow drive, tiny super-tiles are much worse than large ones.
  EXPECT_GT(PredictedRetrievalSeconds(SlowTapeProfile(), q, small),
            PredictedRetrievalSeconds(SlowTapeProfile(), q, large));
}

TEST(SizeAdaptationTest, ClampedToBounds) {
  TapeDriveProfile profile = MidTapeProfile();
  EXPECT_GE(OptimalSuperTileBytes(profile, 1), 1u << 20);
  EXPECT_LE(OptimalSuperTileBytes(profile, 1ull << 50),
            profile.capacity_bytes / 8);
}

TEST(SizeAdaptationTest, PredictedCurveIsUShaped) {
  TapeDriveProfile profile = MidTapeProfile();
  const uint64_t q = 256ull << 20;
  const uint64_t opt = OptimalSuperTileBytes(profile, q);
  const double at_opt = PredictedRetrievalSeconds(profile, q, opt);
  EXPECT_LT(at_opt, PredictedRetrievalSeconds(profile, q, opt / 64));
  EXPECT_LT(at_opt, PredictedRetrievalSeconds(profile, q, opt * 64));
}

}  // namespace
}  // namespace heaven
