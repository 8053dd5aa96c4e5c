#include "heaven/super_tile.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "storage/serialize.h"

namespace heaven {
namespace {

Tile MakeTile(const MdInterval& domain, double fill) {
  Tile tile(domain, CellType::kFloat);
  tile.Fill(fill);
  return tile;
}

TEST(SuperTileTest, AddAndFindTiles) {
  SuperTile st(1, 10, CellType::kFloat);
  ASSERT_TRUE(st.AddTile(100, MakeTile(MdInterval({0, 0}, {3, 3}), 1.0)).ok());
  ASSERT_TRUE(st.AddTile(101, MakeTile(MdInterval({0, 4}, {3, 7}), 2.0)).ok());
  EXPECT_EQ(st.tile_count(), 2u);
  auto found = st.FindTile(101);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->CellAsDouble(MdPoint{1, 5}), 2.0);
  EXPECT_FALSE(st.FindTile(999).ok());
}

TEST(SuperTileTest, TypeMismatchRejected) {
  SuperTile st(1, 10, CellType::kFloat);
  Tile wrong(MdInterval({0}, {3}), CellType::kDouble);
  EXPECT_FALSE(st.AddTile(1, std::move(wrong)).ok());
}

TEST(SuperTileTest, HullCoversAllTiles) {
  SuperTile st(1, 10, CellType::kFloat);
  ASSERT_TRUE(st.AddTile(1, MakeTile(MdInterval({0, 0}, {3, 3}), 0)).ok());
  ASSERT_TRUE(st.AddTile(2, MakeTile(MdInterval({8, 8}, {9, 9}), 0)).ok());
  auto hull = st.Hull();
  ASSERT_TRUE(hull.ok());
  EXPECT_EQ(*hull, MdInterval({0, 0}, {9, 9}));
  SuperTile empty(2, 10, CellType::kFloat);
  EXPECT_FALSE(empty.Hull().ok());
}

TEST(SuperTileTest, PayloadBytes) {
  SuperTile st(1, 10, CellType::kFloat);
  ASSERT_TRUE(st.AddTile(1, MakeTile(MdInterval({0, 0}, {3, 3}), 0)).ok());
  EXPECT_EQ(st.PayloadBytes(), 16u * 4u);
}

TEST(SuperTileTest, SerializeDeserializeRoundTrip) {
  SuperTile st(42, 7, CellType::kFloat);
  Tile t1 = MakeTile(MdInterval({0, 0}, {3, 3}), 1.5);
  t1.SetCellFromDouble(MdPoint{2, 2}, 9.0);
  ASSERT_TRUE(st.AddTile(100, std::move(t1)).ok());
  ASSERT_TRUE(st.AddTile(101, MakeTile(MdInterval({4, 0}, {7, 3}), 2.5)).ok());

  const std::string container = st.Serialize();
  auto decoded = SuperTile::Deserialize(container);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id(), 42u);
  EXPECT_EQ(decoded->object_id(), 7u);
  EXPECT_EQ(decoded->cell_type(), CellType::kFloat);
  EXPECT_EQ(decoded->tile_count(), 2u);
  auto found = decoded->FindTile(100);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->CellAsDouble(MdPoint{2, 2}), 9.0);
  EXPECT_EQ((*found)->CellAsDouble(MdPoint{0, 0}), 1.5);
}

TEST(SuperTileTest, DeserializeRejectsBadMagic) {
  SuperTile st(1, 1, CellType::kFloat);
  ASSERT_TRUE(st.AddTile(1, MakeTile(MdInterval({0}, {3}), 0)).ok());
  std::string container = st.Serialize();
  container[0] ^= 0xff;
  auto decoded = SuperTile::Deserialize(container);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(SuperTileTest, DeserializeDetectsPayloadCorruption) {
  SuperTile st(1, 1, CellType::kFloat);
  ASSERT_TRUE(st.AddTile(1, MakeTile(MdInterval({0}, {3}), 5)).ok());
  std::string container = st.Serialize();
  container[container.size() - 1] ^= 0x01;
  EXPECT_TRUE(SuperTile::Deserialize(container).status().IsCorruption());
}

TEST(SuperTileTest, DeserializeRejectsTruncation) {
  SuperTile st(1, 1, CellType::kFloat);
  ASSERT_TRUE(st.AddTile(1, MakeTile(MdInterval({0}, {3}), 5)).ok());
  std::string container = st.Serialize();
  container.resize(container.size() / 2);
  EXPECT_FALSE(SuperTile::Deserialize(container).ok());
}

TEST(SuperTileMetaTest, RegistrySerializationRoundTrip) {
  std::vector<SuperTileMeta> metas(2);
  metas[0].id = 1;
  metas[0].object_id = 5;
  metas[0].medium = 3;
  metas[0].offset = 1024;
  metas[0].size_bytes = 4096;
  metas[0].hull = MdInterval({0, 0}, {9, 9});
  metas[0].tile_ids = {10, 11, 12};
  metas[0].crc32c = 0xdeadbeef;
  metas[1].id = 2;
  metas[1].object_id = 5;
  metas[1].medium = 0;
  metas[1].offset = 0;
  metas[1].size_bytes = 100;
  metas[1].hull = MdInterval({10, 0}, {19, 9});
  metas[1].tile_ids = {13};

  auto restored = DeserializeSuperTileMetas(SerializeSuperTileMetas(metas));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ((*restored)[0].tile_ids, (std::vector<TileId>{10, 11, 12}));
  EXPECT_EQ((*restored)[1].hull, MdInterval({10, 0}, {19, 9}));
  EXPECT_EQ((*restored)[0].offset, 1024u);
  EXPECT_EQ((*restored)[0].crc32c, 0xdeadbeefu);
  EXPECT_EQ((*restored)[1].crc32c, 0u);
}

TEST(SuperTileMetaTest, LegacyV1RegistryImageIsCorruption) {
  // A pre-checksum registry image: no version tag, count first, no crc32c
  // field per entry. Its entries could not be verified, so it is refused.
  std::string image;
  PutFixed64(&image, 1);       // count (below the version-tag sentinel)
  PutFixed64(&image, 7);       // id
  PutFixed64(&image, 5);       // object_id
  PutFixed32(&image, 2);       // medium
  PutFixed64(&image, 512);     // offset
  PutFixed64(&image, 2048);    // size_bytes
  EncodeInterval(&image, MdInterval({0}, {9}));
  PutFixed32(&image, 1);       // tile count
  PutFixed64(&image, 42);      // tile id
  auto restored = DeserializeSuperTileMetas(image);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SuperTileMetaTest, LegacyV2RegistryImageIsCorruption) {
  // A tagged v2 image (CRC but no per-entry index blob).
  std::string image;
  PutFixed64(&image, 0xffffffffffffffffULL);  // version tag
  PutFixed32(&image, 2);
  PutFixed64(&image, 1);       // count
  PutFixed64(&image, 7);       // id
  PutFixed64(&image, 5);       // object_id
  PutFixed32(&image, 2);       // medium
  PutFixed64(&image, 512);     // offset
  PutFixed64(&image, 2048);    // size_bytes
  PutFixed32(&image, 0x1234);  // crc32c
  EncodeInterval(&image, MdInterval({0}, {9}));
  PutFixed32(&image, 1);       // tile count
  PutFixed64(&image, 42);      // tile id
  auto restored = DeserializeSuperTileMetas(image);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SuperTileMetaTest, EmptyImageYieldsEmptyRegistry) {
  auto restored = DeserializeSuperTileMetas("");
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

}  // namespace
}  // namespace heaven
