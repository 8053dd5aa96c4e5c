#include "heaven/heaven_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/logging.h"

namespace heaven {
namespace {

MddArray Ramp(const MdInterval& domain, CellType type = CellType::kFloat) {
  MddArray data(domain, type);
  data.Generate([](const MdPoint& p) {
    double v = 0.0;
    for (size_t d = 0; d < p.dims(); ++d) {
      v = v * 100.0 + static_cast<double>(p[d] % 50);
    }
    return v;
  });
  return data;
}

class HeavenDbTest : public ::testing::Test {
 protected:
  void OpenDb(std::function<void(HeavenOptions*)> tweak = nullptr) {
    db_.reset();
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    if (tweak) tweak(&options);
    auto db = HeavenDb::Open(env_.get(), "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    OpenDb();
    auto coll = db_->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = coll.value();
  }

  /// Opens a database on a fresh, empty environment.
  void OpenFreshDb(std::function<void(HeavenOptions*)> tweak) {
    db_.reset();
    env_ = std::make_unique<MemEnv>();
    OpenDb(std::move(tweak));
  }

  ObjectId Insert(const std::string& name, const MdInterval& domain) {
    auto id = db_->InsertObject(collection_, name, Ramp(domain));
    HEAVEN_CHECK(id.ok()) << id.status().ToString();
    return id.value();
  }

  bool AllTilesAt(ObjectId id, TileLocation location) {
    for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
      if (tile.location != location) return false;
    }
    return true;
  }

  /// With overviews on, `name`'s overview sibling exists and stayed on
  /// disk: the migrating export inserted it without migrating it in turn.
  void ExpectOverviewOnDisk(const std::string& name) {
    auto overview = db_->FindObject(name + "__overview");
    ASSERT_TRUE(overview.ok()) << overview.status().ToString();
    EXPECT_TRUE(AllTilesAt(overview->object_id, TileLocation::kDisk));
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  CollectionId collection_ = 0;
};

TEST_F(HeavenDbTest, DuplicateCollectionRejected) {
  EXPECT_FALSE(db_->CreateCollection("c").ok());
}

TEST_F(HeavenDbTest, DuplicateObjectNameRejected) {
  Insert("a", MdInterval({0, 0}, {9, 9}));
  auto dup = db_->InsertObject(collection_, "a", Ramp(MdInterval({0}, {9})));
  EXPECT_FALSE(dup.ok());
}

TEST_F(HeavenDbTest, InsertChargesClientDiskTime) {
  EXPECT_EQ(db_->ClientSeconds(), 0.0);
  Insert("a", MdInterval({0, 0}, {49, 49}));
  EXPECT_GT(db_->ClientSeconds(), 0.0);
  EXPECT_EQ(db_->TapeSeconds(), 0.0);  // nothing on tape yet
}

TEST_F(HeavenDbTest, ExportMovesAllTilesToTertiary) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {49, 49}));
  const size_t blobs_before = db_->engine()->blobs()->NumBlobs();
  EXPECT_GT(blobs_before, 0u);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_EQ(db_->engine()->blobs()->NumBlobs(), 0u);  // disk blobs gone
  EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
  EXPECT_GT(db_->TapeSeconds(), 0.0);
}

TEST_F(HeavenDbTest, ExportIsIdempotent) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  const size_t supertiles = db_->RegisteredSuperTiles();
  ASSERT_TRUE(db_->ExportObject(id).ok());  // nothing left to export
  EXPECT_EQ(db_->RegisteredSuperTiles(), supertiles);
}

TEST_F(HeavenDbTest, ReadSpansDiskAndTape) {
  // Two objects: one on disk, one on tape; both readable transparently.
  ObjectId disk_obj = Insert("disk", MdInterval({0, 0}, {19, 19}));
  ObjectId tape_obj = Insert("tape", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(tape_obj).ok());
  auto a = db_->ReadObject(disk_obj);
  auto b = db_->ReadObject(tape_obj);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());  // same ramp
}

TEST_F(HeavenDbTest, CacheServesRepeatedReads) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MdInterval region({0, 0}, {9, 9});
  ASSERT_TRUE(db_->ReadRegion(id, region).ok());
  const double tape_after_first = db_->TapeSeconds();
  const uint64_t st_reads = db_->stats()->Get(Ticker::kSuperTilesRead);
  ASSERT_TRUE(db_->ReadRegion(id, region).ok());
  EXPECT_EQ(db_->TapeSeconds(), tape_after_first);  // no new tape work
  EXPECT_EQ(db_->stats()->Get(Ticker::kSuperTilesRead), st_reads);
  EXPECT_GT(db_->stats()->Get(Ticker::kCacheHits), 0u);
}

TEST_F(HeavenDbTest, StatePersistsAcrossReopen) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MddArray expected = Ramp(MdInterval({0, 0}, {19, 19}));
  OpenDb();  // reopen over the same MemEnv

  // Catalog + super-tile registry rehydrate from the storage engine...
  auto object = db_->FindObject("a");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object->object_id, id);
  EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    EXPECT_EQ(tile.location, TileLocation::kTertiary);
  }
  // ...and the cartridges themselves reload from their backing files, so
  // the archived data is fully readable after the reopen.
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), expected);
}

// The export frees the disk pages of "a" after the checkpoint that still
// lists them; the reopen replays that free. Each page must come back free
// once, or "b" and "c" end up sharing pages.
TEST_F(HeavenDbTest, PagesFreedAfterACheckpointAreReusedOnce) {
  const auto tweak = [](HeavenOptions* options) {
    options->storage.checkpoint_wal_bytes = 4096;
  };
  OpenFreshDb(tweak);
  auto coll = db_->CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  collection_ = *coll;
  const MdInterval domain({0, 0}, {39, 39});
  const ObjectId a = Insert("a", domain);  // its commit checkpoints
  ASSERT_LT(db_->engine()->WalBytes(), 4096u);
  ASSERT_TRUE(db_->ExportObject(a).ok());
  ASSERT_GT(db_->engine()->WalBytes(), 0u);  // the export did not
  OpenDb(tweak);
  const ObjectId b = Insert("b", domain);
  MddArray other(domain, CellType::kFloat);
  other.Generate([](const MdPoint&) { return -1.0; });
  auto c = db_->InsertObject(collection_, "c", other);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  for (const auto& [id, expected] :
       {std::pair{a, Ramp(domain)}, {b, Ramp(domain)}, {*c, other}}) {
    auto read = db_->ReadObject(id);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(*read == expected) << "object " << id;
  }
}

TEST_F(HeavenDbTest, MixedStateSurvivesReopen) {
  ObjectId tape_obj = Insert("t", MdInterval({0, 0}, {19, 19}));
  ObjectId disk_obj = Insert("d", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(tape_obj).ok());
  OpenDb();
  MddArray expected = Ramp(MdInterval({0, 0}, {19, 19}));
  auto a = db_->ReadObject(tape_obj);
  auto b = db_->ReadObject(disk_obj);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value(), expected);
  EXPECT_EQ(b.value(), expected);
  // And the archive keeps working after reopen: export the disk object.
  ASSERT_TRUE(db_->ExportObject(disk_obj).ok());
  auto again = db_->ReadObject(disk_obj);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), expected);
}

TEST_F(HeavenDbTest, ReimportBringsTilesBackToDisk) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  MddArray original = Ramp(MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->ReimportObject(id).ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    EXPECT_EQ(tile.location, TileLocation::kDisk);
  }
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), original);
}

TEST_F(HeavenDbTest, ReimportOfDiskObjectIsNoOp) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  EXPECT_TRUE(db_->ReimportObject(id).ok());
}

TEST_F(HeavenDbTest, DeleteRemovesEverything) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->Aggregate(id, Condenser::kAvg,
                             MdInterval({0, 0}, {19, 19}))
                  .ok());
  ASSERT_TRUE(db_->DeleteObject(id).ok());
  EXPECT_FALSE(db_->ReadObject(id).ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  EXPECT_EQ(db_->precomputed()->size(), 0u);
  EXPECT_FALSE(db_->FindObject("a").ok());
}

TEST_F(HeavenDbTest, AggregateUsesPrecomputedCatalog) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MdInterval region({0, 0}, {19, 19});
  auto first = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(first.ok());
  const double tape_after_first = db_->TapeSeconds();
  // Clear the cache so a recomputation would hit tape.
  db_->cache()->Clear();
  auto second = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(db_->TapeSeconds(), tape_after_first);  // served from catalog
  EXPECT_GT(db_->stats()->Get(Ticker::kPrecomputedHits), 0u);
}

TEST_F(HeavenDbTest, PrecomputedDisabledRecomputes) {
  OpenDb([](HeavenOptions* options) { options->enable_precomputed = false; });
  auto coll = db_->CreateCollection("c2");
  ASSERT_TRUE(coll.ok());
  auto id = db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {9, 9})));
  ASSERT_TRUE(id.ok());
  MdInterval region({0, 0}, {9, 9});
  ASSERT_TRUE(db_->Aggregate(*id, Condenser::kSum, region).ok());
  ASSERT_TRUE(db_->Aggregate(*id, Condenser::kSum, region).ok());
  EXPECT_EQ(db_->precomputed()->size(), 0u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kPrecomputedHits), 0u);
}

TEST_F(HeavenDbTest, DecoupledExportKeepsClientClockFlat) {
  OpenDb([](HeavenOptions* options) { options->decoupled_export = true; });
  auto coll = db_->CreateCollection("c3");
  ASSERT_TRUE(coll.ok());
  auto id =
      db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {49, 49})));
  ASSERT_TRUE(id.ok());
  const double client_before = db_->ClientSeconds();
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  // Handoff is free for the client.
  EXPECT_EQ(db_->ClientSeconds(), client_before);
  ASSERT_TRUE(db_->DrainExports().ok());
  EXPECT_EQ(db_->ClientSeconds(), client_before);  // TCT did the tape work
  EXPECT_GT(db_->TapeSeconds(), 0.0);
  // Data still correct.
  auto read = db_->ReadObject(*id);
  ASSERT_TRUE(read.ok());
}

TEST_F(HeavenDbTest, SynchronousExportChargesClient) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {49, 49}));
  const double client_before = db_->ClientSeconds();
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_GT(db_->ClientSeconds(), client_before);
}

TEST_F(HeavenDbTest, TileAtATimeBaselineUsesManySuperTiles) {
  ObjectId a = Insert("a", MdInterval({0, 0}, {29, 29}));
  ObjectId b = Insert("b", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObjectTileAtATime(a).ok());
  const size_t baseline_sts = db_->RegisteredSuperTiles();
  ASSERT_TRUE(db_->ExportObject(b).ok());
  const size_t heaven_sts = db_->RegisteredSuperTiles() - baseline_sts;
  // Tile-at-a-time creates one container per tile; STAR groups them.
  EXPECT_GT(baseline_sts, heaven_sts);
  // Both stay readable.
  EXPECT_TRUE(db_->ReadObject(a).ok());
  EXPECT_TRUE(db_->ReadObject(b).ok());
}

TEST_F(HeavenDbTest, ReadRegionsBatchesSuperTileFetches) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {39, 39}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  std::vector<std::pair<ObjectId, MdInterval>> queries = {
      {id, MdInterval({0, 0}, {9, 9})},
      {id, MdInterval({30, 30}, {39, 39})},
      {id, MdInterval({10, 10}, {19, 19})},
  };
  auto results = db_->ReadRegions(queries);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  MddArray full = Ramp(MdInterval({0, 0}, {39, 39}));
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = Trim(full, queries[i].second);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*results)[i], *expected) << i;
  }
}

TEST_F(HeavenDbTest, PrefetchPopulatesCache) {
  OpenDb([](HeavenOptions* options) {
    options->enable_prefetch = true;
    options->prefetch_depth = 2;
  });
  auto coll = db_->CreateCollection("c4");
  ASSERT_TRUE(coll.ok());
  auto id =
      db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {49, 49})));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  ASSERT_TRUE(db_->ReadRegion(*id, MdInterval({0, 0}, {4, 4})).ok());
  EXPECT_GT(db_->stats()->Get(Ticker::kPrefetchIssued), 0u);
}

/// Exports a 64x64 float object as at least four super-tiles on one
/// medium; returns them in offset order.
std::vector<SuperTileMeta> ExportSweepObject(HeavenDb* db, ObjectId* id) {
  auto coll = db->CreateCollection("sweep");
  HEAVEN_CHECK(coll.ok());
  auto inserted =
      db->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {63, 63})));
  HEAVEN_CHECK(inserted.ok());
  *id = *inserted;
  HEAVEN_CHECK(db->ExportObject(*id).ok());
  std::vector<SuperTileMeta> sts = db->RegistrySnapshot();
  std::sort(sts.begin(), sts.end(),
            [](const SuperTileMeta& a, const SuperTileMeta& b) {
              return a.offset < b.offset;
            });
  HEAVEN_CHECK(sts.size() >= 4);
  for (const SuperTileMeta& meta : sts) {
    HEAVEN_CHECK(meta.medium == sts[0].medium);
  }
  return sts;
}

/// Reads one tile stored in super-tile `st`.
void ReadTileOf(HeavenDb* db, ObjectId id, SuperTileId st) {
  for (const TileDescriptor& tile : db->engine()->catalog()->ListTiles(id)) {
    if (tile.super_tile != st) continue;
    auto read = db->ReadRegion(id, tile.domain);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    return;
  }
  FAIL() << "no tile in super-tile " << st;
}

TEST_F(HeavenDbTest, PrefetchEvictedUnhitIsNotUseful) {
  OpenFreshDb([](HeavenOptions* options) {
    options->enable_prefetch = true;
    options->prefetch_depth = 1;
    options->supertile_bytes = 4 << 10;
  });
  ObjectId id = 0;
  const std::vector<SuperTileMeta> sts = ExportSweepObject(db_.get(), &id);
  // Room for exactly two containers: every admission evicts the LRU one.
  uint64_t largest = 0;
  for (const SuperTileMeta& meta : sts) {
    largest = std::max(largest, meta.size_bytes);
  }
  OpenDb([&](HeavenOptions* options) {
    options->enable_prefetch = true;
    options->prefetch_depth = 1;
    options->supertile_bytes = 4 << 10;
    options->cache.capacity_bytes = 2 * largest;
  });
  SuperTileCache* cache = db_->cache();
  ASSERT_NO_FATAL_FAILURE(ReadTileOf(db_.get(), id, sts[0].id));
  EXPECT_TRUE(cache->Contains(sts[1].id));  // prefetched
  ASSERT_NO_FATAL_FAILURE(ReadTileOf(db_.get(), id, sts[2].id));
  EXPECT_FALSE(cache->Contains(sts[1].id));  // evicted by 3's prefetch, unhit
  ASSERT_NO_FATAL_FAILURE(ReadTileOf(db_.get(), id, sts[1].id));  // a miss
  ASSERT_NO_FATAL_FAILURE(ReadTileOf(db_.get(), id, sts[1].id));  // a hit
  EXPECT_EQ(db_->stats()->Get(Ticker::kPrefetchIssued), 3u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kPrefetchUseful), 0u);
  // The same hit on a prefetched entry is useful, once.
  ASSERT_NO_FATAL_FAILURE(ReadTileOf(db_.get(), id, sts[2].id));
  ASSERT_NO_FATAL_FAILURE(ReadTileOf(db_.get(), id, sts[2].id));
  EXPECT_EQ(db_->stats()->Get(Ticker::kPrefetchUseful), 1u);
}

TEST_F(HeavenDbTest, PrefetchReadRetriesTransientFault) {
  auto tweak = [](HeavenOptions* options) {
    options->enable_prefetch = true;
    options->prefetch_depth = 1;
    options->supertile_bytes = 4 << 10;
    // Seed 8 spares the query's read and fails the prefetch's read once.
    options->fault_policy.enabled = true;
    options->fault_policy.seed = 8;
    options->fault_policy.max_faults = 1;
    options->fault_policy.tape_read_error_p = 0.5;
  };
  OpenFreshDb(tweak);
  ObjectId id = 0;
  const std::vector<SuperTileMeta> sts = ExportSweepObject(db_.get(), &id);
  ASSERT_NO_FATAL_FAILURE(ReadTileOf(db_.get(), id, sts[0].id));
  const Statistics& stats = *db_->stats();
  EXPECT_EQ(stats.Get(Ticker::kFaultsInjected), 1u);
  EXPECT_EQ(stats.Get(Ticker::kTapeRetries), 1u);
  EXPECT_EQ(stats.Get(Ticker::kPrefetchErrors), 0u);
  EXPECT_EQ(stats.Get(Ticker::kPrefetchIssued), 1u);
  EXPECT_TRUE(db_->cache()->Contains(sts[1].id));
}

TEST_F(HeavenDbTest, EStarPartitionerExportWorks) {
  OpenDb([](HeavenOptions* options) {
    options->partitioner = PartitionerKind::kEStar;
  });
  auto coll = db_->CreateCollection("c5");
  ASSERT_TRUE(coll.ok());
  MddArray data = Ramp(MdInterval({0, 0}, {29, 29}));
  auto id = db_->InsertObject(*coll, "a", data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  auto read = db_->ReadObject(*id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data);
}

TEST_F(HeavenDbTest, ReadRegionValidation) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  EXPECT_FALSE(db_->ReadRegion(id, MdInterval({0, 0}, {10, 10})).ok());
  EXPECT_FALSE(db_->ReadRegion(9999, MdInterval({0, 0}, {1, 1})).ok());
}

TEST_F(HeavenDbTest, FrameReadOutsideDomainRejected) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  auto frame = ObjectFrame::FromBoxes({MdInterval({5, 5}, {15, 15})});
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(db_->ReadFrame(id, *frame).ok());
}

TEST_F(HeavenDbTest, FrameReadTouchesFewerSuperTilesThanHull) {
  OpenDb([](HeavenOptions* options) {
    options->disk_tile_bytes = 1024;
    options->supertile_bytes = 2048;
  });
  auto coll = db_->CreateCollection("c6");
  ASSERT_TRUE(coll.ok());
  auto id =
      db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {63, 63})));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());

  // Two opposite corners; the hull is the whole object.
  auto frame = ObjectFrame::FromBoxes(
      {MdInterval({0, 0}, {7, 7}), MdInterval({56, 56}, {63, 63})});
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(db_->ReadFrame(*id, *frame).ok());
  const uint64_t frame_sts = db_->stats()->Get(Ticker::kSuperTilesRead);

  db_->cache()->Clear();
  db_->stats()->Reset();
  ASSERT_TRUE(db_->ReadRegion(*id, MdInterval({0, 0}, {63, 63})).ok());
  const uint64_t hull_sts = db_->stats()->Get(Ticker::kSuperTilesRead);
  EXPECT_LT(frame_sts, hull_sts);
}


TEST_F(HeavenDbTest, UpdateRegionOnDiskObject) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  MddArray patch(MdInterval({5, 5}, {8, 8}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return 7.5; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->At(MdPoint{6, 6}), 7.5);
  // Cells outside the patch are untouched.
  MddArray original = Ramp(MdInterval({0, 0}, {19, 19}));
  EXPECT_EQ(read->At(MdPoint{0, 0}), original.At(MdPoint{0, 0}));
  EXPECT_EQ(read->At(MdPoint{15, 15}), original.At(MdPoint{15, 15}));
}

TEST_F(HeavenDbTest, UpdateRegionOnTapeObjectReimportsTiles) {
  // 40x40 floats -> several 2 KiB tiles, so the patch hits only some.
  ObjectId id = Insert("a", MdInterval({0, 0}, {39, 39}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MddArray patch(MdInterval({0, 0}, {3, 3}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return -1.0; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  // The patched tiles moved back to disk; others stay on tape.
  bool any_disk = false;
  bool any_tape = false;
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    if (tile.location == TileLocation::kDisk) any_disk = true;
    if (tile.location == TileLocation::kTertiary) any_tape = true;
  }
  EXPECT_TRUE(any_disk);
  EXPECT_TRUE(any_tape);
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->At(MdPoint{1, 1}), -1.0);
  MddArray original = Ramp(MdInterval({0, 0}, {39, 39}));
  EXPECT_EQ(read->At(MdPoint{30, 30}), original.At(MdPoint{30, 30}));
  // The object can be migrated again after the update.
  ASSERT_TRUE(db_->ExportObject(id).ok());
  auto after = db_->ReadObject(id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), read.value());
}

TEST_F(HeavenDbTest, UpdateRegionInvalidatesPrecomputed) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  MdInterval region({0, 0}, {9, 9});
  auto before = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(before.ok());
  MddArray patch(region, CellType::kFloat);
  patch.Generate([](const MdPoint&) { return 42.0; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  auto after = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 42.0);
  EXPECT_NE(*before, *after);
}

TEST_F(HeavenDbTest, UpdateRegionValidation) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  MddArray outside(MdInterval({5, 5}, {12, 12}), CellType::kFloat);
  EXPECT_FALSE(db_->UpdateRegion(id, outside).ok());
  MddArray wrong_type(MdInterval({0, 0}, {3, 3}), CellType::kDouble);
  EXPECT_FALSE(db_->UpdateRegion(id, wrong_type).ok());
  EXPECT_FALSE(db_->UpdateRegion(9999, wrong_type).ok());
}

TEST_F(HeavenDbTest, WholeObjectUpdateOnTapeDropsAllSuperTiles) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
  MddArray patch(MdInterval({0, 0}, {19, 19}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return 3.0; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    EXPECT_EQ(tile.location, TileLocation::kDisk);
  }
}


TEST_F(HeavenDbTest, MigrationPolicyDisabledByDefault) {
  Insert("a", MdInterval({0, 0}, {39, 39}));
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  EXPECT_GT(db_->engine()->blobs()->TotalBytes(), 0u);
}

TEST_F(HeavenDbTest, MigrationPolicyMigratesOldestFirst) {
  // Each 40x40 float object is 6.4 KB; watermarks force migration after
  // the second insert. With overviews on, the migrating export of a also
  // inserts the 400 B a__overview — the insert nested inside an export.
  for (int64_t overview_scale : {1, 4}) {
    SCOPED_TRACE("overview_scale_factor=" + std::to_string(overview_scale));
    OpenFreshDb([&](HeavenOptions* options) {
      options->migrate_high_watermark_bytes = 10 << 10;
      options->migrate_low_watermark_bytes = 7 << 10;
      options->overview_scale_factor = overview_scale;
    });
    auto coll = db_->CreateCollection("cm");
    ASSERT_TRUE(coll.ok());
    auto a =
        db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {39, 39})));
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);  // below watermark
    auto b =
        db_->InsertObject(*coll, "b", Ramp(MdInterval({0, 0}, {39, 39})));
    ASSERT_TRUE(b.ok());
    // The oldest object (a) was migrated once; b stays on disk.
    EXPECT_TRUE(AllTilesAt(*a, TileLocation::kTertiary));
    EXPECT_TRUE(AllTilesAt(*b, TileLocation::kDisk));
    EXPECT_LE(db_->engine()->blobs()->TotalBytes(), 7u << 10);
    if (overview_scale > 1) ExpectOverviewOnDisk("a");
  }
}

TEST_F(HeavenDbTest, MigrationPolicyViaTct) {
  for (int64_t overview_scale : {1, 4}) {
    SCOPED_TRACE("overview_scale_factor=" + std::to_string(overview_scale));
    OpenFreshDb([&](HeavenOptions* options) {
      options->decoupled_export = true;
      options->migrate_high_watermark_bytes = 10 << 10;
      options->migrate_low_watermark_bytes = 7 << 10;
      options->overview_scale_factor = overview_scale;
    });
    auto coll = db_->CreateCollection("cm2");
    ASSERT_TRUE(coll.ok());
    auto a =
        db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {39, 39})));
    ASSERT_TRUE(a.ok());
    auto b =
        db_->InsertObject(*coll, "b", Ramp(MdInterval({0, 0}, {39, 39})));
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(db_->DrainExports().ok());
    EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
    // Background migration never charged the client clock with tape time.
    EXPECT_LT(db_->ClientSeconds(), 1.0);
    EXPECT_GT(db_->TapeSeconds(), 0.0);
    // As in the synchronous policy, the oldest object (a) was migrated
    // and b stays on disk: queueing a already counted its bytes as gone,
    // reaching the low watermark. The TCT ran exactly that one export; the
    // overview insert inside it queued nothing more.
    EXPECT_TRUE(AllTilesAt(*a, TileLocation::kTertiary));
    EXPECT_TRUE(AllTilesAt(*b, TileLocation::kDisk));
    EXPECT_EQ(db_->stats()->Get(Ticker::kTctExports), 1u);
    if (overview_scale > 1) ExpectOverviewOnDisk("a");
  }
}


TEST_F(HeavenDbTest, ReclaimMediumRecoversDeadBytes) {
  // Two objects exported to tape; deleting one leaves dead extents.
  ObjectId a = Insert("a", MdInterval({0, 0}, {29, 29}));
  ObjectId b = Insert("b", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObject(a).ok());
  ASSERT_TRUE(db_->ExportObject(b).ok());
  MddArray b_data = Ramp(MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->DeleteObject(a).ok());

  // Find the medium holding b's (live) super-tiles — reclamation must
  // relocate them and erase the source.
  uint64_t reclaimed_total = 0;
  for (MediumId m = 0; m < db_->library()->num_media(); ++m) {
    auto used = db_->library()->MediumUsedBytes(m);
    ASSERT_TRUE(used.ok());
    if (*used == 0) continue;
    auto reclaimed = db_->ReclaimMedium(m);
    ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
    reclaimed_total += *reclaimed;
    auto after = db_->library()->MediumUsedBytes(m);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, 0u);
    break;  // one source medium is enough for the test
  }
  EXPECT_GT(reclaimed_total, 0u);  // a's dead extents were freed
  // b survives intact after relocation.
  auto read = db_->ReadObject(b);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), b_data);
}

TEST_F(HeavenDbTest, FailedReclaimLeavesRegistryUntouched) {
  // One object, one tile per container, dealt round-robin onto two media.
  OpenFreshDb([](HeavenOptions* options) { options->library.num_media = 2; });
  auto coll = db_->CreateCollection("r");
  ASSERT_TRUE(coll.ok());
  const MddArray data = Ramp(MdInterval({0, 0}, {39, 39}));
  auto a = db_->InsertObject(*coll, "a", data, {10, 10});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(db_->ExportObjectTileAtATime(*a).ok());
  const std::vector<SuperTileMeta> before = db_->RegistrySnapshot();
  uint64_t container_bytes = 0;
  for (const SuperTileMeta& meta : before) {
    container_bytes = std::max(container_bytes, meta.size_bytes);
  }
  auto used0 = db_->library()->MediumUsedBytes(0);
  auto used1 = db_->library()->MediumUsedBytes(1);
  ASSERT_TRUE(used0.ok() && used1.ok());
  ASSERT_EQ(*used0, *used1);
  ASSERT_GT(*used0, 2 * container_bytes);  // several containers per medium

  // Reopen with cartridges that hold one more container, not two: the
  // reclaim of medium 0 relocates one super-tile, then runs out of space.
  OpenDb([&](HeavenOptions* options) {
    options->library.num_media = 2;
    options->library.profile.capacity_bytes = *used1 + container_bytes * 3 / 2;
  });
  auto reclaimed = db_->ReclaimMedium(0);
  EXPECT_EQ(reclaimed.status().code(), StatusCode::kResourceExhausted)
      << reclaimed.status().ToString();
  auto after1 = db_->library()->MediumUsedBytes(1);
  ASSERT_TRUE(after1.ok());
  EXPECT_GT(*after1, *used1);  // one copy landed before the failure

  // A publishing mutator afterwards must not expose a half-moved registry.
  ASSERT_TRUE(db_->SetObjectCurve(*a, CurveKind::kHilbert).ok());
  const std::vector<SuperTileMeta> after = db_->RegistrySnapshot();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].medium, before[i].medium) << "super-tile " << i;
    EXPECT_EQ(after[i].offset, before[i].offset) << "super-tile " << i;
  }
  EXPECT_TRUE(SerializeSuperTileMetas(after) ==
              SerializeSuperTileMetas(before));
  auto read = db_->ReadObject(*a);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), data);
}

/// A mutator run against object `id` whose commit is made to fail.
struct FailingMutator {
  std::string name;
  std::function<Status(HeavenDb*, ObjectId)> run;
};

void PrintTo(const FailingMutator& mutator, std::ostream* os) {
  *os << mutator.name;
}

class FailedMutatorTest : public ::testing::TestWithParam<FailingMutator> {};

TEST_P(FailedMutatorTest, LeavesMemoryUntouched) {
  // Writes go through a fault-injecting env, so the commit can be failed.
  MemEnv base;
  FaultInjectionEnv env(&base);
  HeavenOptions options;
  options.library.profile = MidTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.supertile_bytes = 2048;  // a few 10x10 float tiles per container
  auto db = HeavenDb::Open(&env, "/db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto coll = (*db)->CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  const MddArray data = Ramp(MdInterval({0, 0}, {39, 39}));
  auto a = (*db)->InsertObject(*coll, "a", data, {10, 10});
  auto b = (*db)->InsertObject(*coll, "b", data, {10, 10});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*db)->ExportObject(*a).ok());
  const std::vector<SuperTileMeta> before = (*db)->RegistrySnapshot();
  ASSERT_GT(before.size(), 1u);
  ASSERT_LT(before.size(), 16u);  // containers hold several tiles
  auto curve = (*db)->ObjectCurve(*a);
  ASSERT_TRUE(curve.ok());

  env.SetWriteLimit(1);  // the commit's first write fails
  Status status = GetParam().run(db->get(), *a);
  env.ClearWriteLimit();
  ASSERT_FALSE(status.ok());

  // A publishing mutator on another object must not expose the failed
  // mutator's edits.
  ASSERT_TRUE((*db)->SetObjectCurve(*b, CurveKind::kHilbert).ok());
  EXPECT_TRUE(SerializeSuperTileMetas((*db)->RegistrySnapshot()) ==
              SerializeSuperTileMetas(before));
  auto curve_after = (*db)->ObjectCurve(*a);
  ASSERT_TRUE(curve_after.ok());
  EXPECT_EQ(*curve_after, *curve);
  auto read = (*db)->ReadObject(*a);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), data);
}

Status Patch(HeavenDb* db, ObjectId id, const MdInterval& region) {
  MddArray patch(region, CellType::kFloat);
  patch.Generate([](const MdPoint&) { return -1.0; });
  return db->UpdateRegion(id, patch);
}

INSTANTIATE_TEST_SUITE_P(
    Mutators, FailedMutatorTest,
    ::testing::Values(
        FailingMutator{"Delete",
                       [](HeavenDb* db, ObjectId id) {
                         return db->DeleteObject(id);
                       }},
        FailingMutator{"Reimport",
                       [](HeavenDb* db, ObjectId id) {
                         return db->ReimportObject(id);
                       }},
        // One tile leaves its container; the container stays registered.
        FailingMutator{"UpdatePartialDeparture",
                       [](HeavenDb* db, ObjectId id) {
                         return Patch(db, id, MdInterval({0, 0}, {0, 0}));
                       }},
        // Every tile leaves; every container is dropped.
        FailingMutator{"UpdateFullDeparture",
                       [](HeavenDb* db, ObjectId id) {
                         return Patch(db, id, MdInterval({0, 0}, {39, 39}));
                       }},
        FailingMutator{"SetObjectCurve",
                       [](HeavenDb* db, ObjectId id) {
                         return db->SetObjectCurve(id, CurveKind::kHilbert);
                       }}),
    [](const ::testing::TestParamInfo<FailingMutator>& info) {
      return info.param.name;
    });

TEST_F(HeavenDbTest, ConcurrentCreateCollectionRegistersNameOnce) {
  OpenFreshDb(nullptr);
  constexpr int kThreads = 8;
  std::vector<Status> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = db_->CreateCollection("same").status(); });
  }
  for (std::thread& thread : threads) thread.join();
  int created = 0;
  for (const Status& status : results) {
    if (status.ok()) {
      ++created;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kAlreadyExists)
          << status.ToString();
    }
  }
  EXPECT_EQ(created, 1);
  const auto collections = db_->engine()->catalog()->ListCollections();
  ASSERT_EQ(collections.size(), 1u);
  EXPECT_EQ(collections[0].second, "same");
}

// Aggregate caches a value only while no mutation has published since its
// snapshot pin, so an UpdateRegion racing it can never leave the value of
// the old cells behind — in memory or in the persisted catalog.
TEST_F(HeavenDbTest, ConcurrentAggregateAndUpdateCacheNoStaleValue) {
  const MdInterval domain({0, 0}, {39, 39});
  const ObjectId id = Insert("a", domain);
  // Aggregate over `region` must equal the sum over what ReadObject
  // returns; counts the regions where it does not.
  int stale = 0;
  auto check = [&](const MdInterval& region) {
    auto read = db_->ReadObject(id);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    auto want = CondenseRegion(*read, Condenser::kSum, region);
    ASSERT_TRUE(want.ok());
    auto got = db_->Aggregate(id, Condenser::kSum, region);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (*got != *want) ++stale;
  };
  constexpr int kRounds = 40;
  std::vector<MdInterval> regions;
  for (int round = 0; round < kRounds; ++round) {
    // A fresh region each round, so the racing Aggregate always computes.
    regions.emplace_back(MdPoint({0, 0}), MdPoint({9 + round / 30,
                                                   9 + round % 30}));
    ASSERT_TRUE(db_->ExportObject(id).ok());  // archived: reads hit tape
    MddArray patch(MdInterval({5, 5}, {12, 12}), CellType::kFloat);
    patch.Generate([&](const MdPoint&) { return 1000.0 + round; });
    std::atomic<bool> go{false};
    std::thread reader([&] {
      while (!go.load()) std::this_thread::yield();
      EXPECT_TRUE(db_->Aggregate(id, Condenser::kSum, regions.back()).ok());
    });
    std::thread writer([&] {
      while (!go.load()) std::this_thread::yield();
      EXPECT_TRUE(db_->UpdateRegion(id, patch).ok());
    });
    go.store(true);
    reader.join();
    writer.join();
    check(regions.back());
  }
  EXPECT_EQ(stale, 0) << "stale aggregates in " << kRounds << " rounds";
  stale = 0;
  OpenDb();  // the persisted catalog must hold no stale value either
  for (const MdInterval& region : regions) check(region);
  EXPECT_EQ(stale, 0) << "stale aggregates after reopen";
}

TEST_F(HeavenDbTest, ReclaimEmptyMediumIsNoOp) {
  auto reclaimed = db_->ReclaimMedium(3);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 0u);
}

TEST_F(HeavenDbTest, ConcurrentTctExportAndReads) {
  OpenDb([](HeavenOptions* options) { options->decoupled_export = true; });
  auto coll = db_->CreateCollection("cc");
  ASSERT_TRUE(coll.ok());
  std::vector<ObjectId> objects;
  for (int i = 0; i < 6; ++i) {
    auto id = db_->InsertObject(*coll, "o" + std::to_string(i),
                                Ramp(MdInterval({0, 0}, {19, 19})));
    ASSERT_TRUE(id.ok());
    objects.push_back(*id);
    ASSERT_TRUE(db_->ExportObject(*id).ok());  // enqueue on the TCT
  }
  // Read while the TCT drains — results must be correct regardless of
  // whether each object is still on disk or already migrated.
  MddArray expected = Ramp(MdInterval({0, 0}, {19, 19}));
  for (int round = 0; round < 3; ++round) {
    for (ObjectId id : objects) {
      auto read = db_->ReadObject(id);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(read.value(), expected);
    }
  }
  ASSERT_TRUE(db_->DrainExports().ok());
}


TEST_F(HeavenDbTest, ConcurrentMutatorsSerializeOnOneLock) {
  // Every mutator takes the one non-recursive db_mu_, and with overviews on
  // each export inserts its overview while holding it. Four clients drive
  // object lifecycles at once: nothing self-deadlocks (that would hit the
  // test timeout) and every object ends as its client's serial sequence
  // leaves it.
  OpenDb([](HeavenOptions* options) { options->overview_scale_factor = 4; });
  constexpr int kClients = 4;
  const MdInterval domain({0, 0}, {39, 39});
  MddArray patch(MdInterval({4, 4}, {11, 11}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return -1.0; });
  MddArray patched = Ramp(domain);
  for (int64_t x = 4; x <= 11; ++x) {
    for (int64_t y = 4; y <= 11; ++y) patched.Set(MdPoint{x, y}, -1.0);
  }
  std::vector<ObjectId> kept(kClients, 0);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const std::string suffix = std::to_string(i);
      auto a = db_->InsertObject(collection_, "a" + suffix, Ramp(domain));
      auto b = db_->InsertObject(collection_, "b" + suffix, Ramp(domain));
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_TRUE(db_->UpdateRegion(*a, patch).ok());
      ASSERT_TRUE(db_->ExportObject(*a).ok());
      ASSERT_TRUE(db_->ExportObjectTileAtATime(*b).ok());
      ASSERT_TRUE(db_->ReimportObject(*a).ok());
      ASSERT_TRUE(db_->ExportObject(*a).ok());
      ASSERT_TRUE(db_->SetObjectCurve(*b, CurveKind::kHilbert).ok());
      ASSERT_TRUE(db_->DeleteObject(*b).ok());
      kept[i] = *a;
    });
  }
  for (std::thread& client : clients) client.join();

  auto expected_overview = ScaleDown(patched, 4);
  ASSERT_TRUE(expected_overview.ok());
  for (int i = 0; i < kClients; ++i) {
    const std::string name = "a" + std::to_string(i);
    ASSERT_NE(kept[i], 0u) << name;
    EXPECT_TRUE(AllTilesAt(kept[i], TileLocation::kTertiary)) << name;
    auto read = db_->ReadObject(kept[i]);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.value(), patched) << name;
    // The overview was taken from the patched data, once.
    ExpectOverviewOnDisk(name);
    auto overview = db_->FindObject(name + "__overview");
    ASSERT_TRUE(overview.ok());
    auto preview = db_->ReadObject(overview->object_id);
    ASSERT_TRUE(preview.ok());
    EXPECT_EQ(preview.value(), *expected_overview) << name;
    EXPECT_FALSE(db_->FindObject("b" + std::to_string(i)).ok());
  }
}

TEST_F(HeavenDbTest, ReadsDuringReclaimStayCorrect) {
  // Reclaim moves b's super-tiles back and forth between media while a
  // reader keeps reading b through an admit-nothing cache. A read pinning
  // the old snapshot finds the old extents intact, or fails their CRC once
  // the source is erased and retries on the new snapshot: every read
  // returns b's cells.
  OpenFreshDb([](HeavenOptions* options) { options->cache.capacity_bytes = 1; });
  auto coll = db_->CreateCollection("r");
  ASSERT_TRUE(coll.ok());
  collection_ = *coll;
  const MdInterval domain({0, 0}, {29, 29});
  ObjectId a = Insert("a", domain);
  ObjectId b = Insert("b", domain);
  ASSERT_TRUE(db_->ExportObject(a).ok());
  ASSERT_TRUE(db_->ExportObject(b).ok());
  ASSERT_TRUE(db_->DeleteObject(a).ok());
  const MddArray expected = Ramp(domain);

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto read = db_->ReadObject(b);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(read.value(), expected);
      reads.fetch_add(1);
    }
  });
  while (reads.load() == 0) std::this_thread::yield();
  int reclaims = 0;
  for (int round = 0; round < 10; ++round) {
    for (MediumId m = 0; m < db_->library()->num_media(); ++m) {
      auto used = db_->library()->MediumUsedBytes(m);
      ASSERT_TRUE(used.ok());
      if (*used == 0) continue;
      auto reclaimed = db_->ReclaimMedium(m);
      EXPECT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
      ++reclaims;
    }
  }
  done.store(true);
  reader.join();
  EXPECT_GE(reclaims, 10);
  EXPECT_GT(reads.load(), 0);
  auto read = db_->ReadObject(b);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), expected);
}

TEST_F(HeavenDbTest, FailedExportLeavesObjectOnDisk) {
  // One cartridge; the tape write of a later container fails, after the
  // first ones landed (the seed fixes which).
  OpenFreshDb([](HeavenOptions* options) { options->library.num_media = 1; });
  auto coll = db_->CreateCollection("x");
  ASSERT_TRUE(coll.ok());
  const MddArray data = Ramp(MdInterval({0, 0}, {99, 99}));
  auto a = db_->InsertObject(*coll, "a", data);
  ASSERT_TRUE(a.ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 1;
  policy.max_faults = 1;
  policy.tape_write_error_p = 0.5;
  FaultInjector injector(policy, db_->stats());
  db_->library()->SetFaultInjector(&injector);
  Status exported = db_->ExportObject(*a);
  db_->library()->SetFaultInjector(nullptr);
  EXPECT_EQ(exported.code(), StatusCode::kIOError) << exported.ToString();
  auto used = db_->library()->MediumUsedBytes(0);
  ASSERT_TRUE(used.ok());
  EXPECT_GT(*used, 0u);  // containers landed before the failure

  // They are dead extents: the registry was rolled back, a later
  // publishing mutator exposes nothing, and the tiles stay on disk, also
  // across a reopen.
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  ASSERT_TRUE(db_->SetObjectCurve(*a, CurveKind::kHilbert).ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  EXPECT_TRUE(AllTilesAt(*a, TileLocation::kDisk));
  OpenDb([](HeavenOptions* options) { options->library.num_media = 1; });
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  EXPECT_TRUE(AllTilesAt(*a, TileLocation::kDisk));
  auto read = db_->ReadObject(*a);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), data);
  // A clean retry exports the whole object.
  ASSERT_TRUE(db_->ExportObject(*a).ok());
  EXPECT_TRUE(AllTilesAt(*a, TileLocation::kTertiary));
  read = db_->ReadObject(*a);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), data);
}

TEST_F(HeavenDbTest, OverviewMaterializedOnExport) {
  OpenDb([](HeavenOptions* options) { options->overview_scale_factor = 4; });
  auto coll = db_->CreateCollection("ov");
  ASSERT_TRUE(coll.ok());
  MddArray data = Ramp(MdInterval({0, 0}, {39, 39}));
  auto id = db_->InsertObject(*coll, "scene", data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());

  // The overview sibling exists, is disk-resident and 1:4 scaled.
  auto overview = db_->FindObject("scene__overview");
  ASSERT_TRUE(overview.ok()) << overview.status().ToString();
  EXPECT_EQ(overview->domain, MdInterval({0, 0}, {9, 9}));
  for (const TileDescriptor& tile :
       db_->engine()->catalog()->ListTiles(overview->object_id)) {
    EXPECT_EQ(tile.location, TileLocation::kDisk);
  }
  // Browsing the overview costs no tape time.
  const double tape_before = db_->TapeSeconds();
  auto preview = db_->ReadObject(overview->object_id);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(db_->TapeSeconds(), tape_before);
  auto expected = ScaleDown(data, 4);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(preview.value(), *expected);
  // Re-export does not duplicate the overview.
  ASSERT_TRUE(db_->ReimportObject(*id).ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  EXPECT_FALSE(
      db_->InsertObject(*coll, "scene__overview", data).ok());  // exists
}

TEST_F(HeavenDbTest, FailedExportLeavesNoOverview) {
  // The overview is staged in the export's own transaction: when a tape
  // write fails, neither the super-tiles nor the overview are committed.
  OpenFreshDb([](HeavenOptions* options) {
    options->library.num_media = 1;
    options->overview_scale_factor = 4;
  });
  auto coll = db_->CreateCollection("x");
  ASSERT_TRUE(coll.ok());
  const MddArray data = Ramp(MdInterval({0, 0}, {99, 99}));
  auto a = db_->InsertObject(*coll, "a", data);
  ASSERT_TRUE(a.ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 1;
  policy.max_faults = 1;
  policy.tape_write_error_p = 0.5;
  FaultInjector injector(policy, db_->stats());
  db_->library()->SetFaultInjector(&injector);
  Status exported = db_->ExportObject(*a);
  db_->library()->SetFaultInjector(nullptr);
  EXPECT_EQ(exported.code(), StatusCode::kIOError) << exported.ToString();
  EXPECT_FALSE(db_->FindObject("a__overview").ok());
  EXPECT_FALSE(db_->engine()->catalog()->FindObject("a__overview").ok());
  // A clean retry exports the object and materializes its overview once.
  ASSERT_TRUE(db_->ExportObject(*a).ok());
  EXPECT_TRUE(AllTilesAt(*a, TileLocation::kTertiary));
  ExpectOverviewOnDisk("a");
}

TEST_F(HeavenDbTest, OverviewDisabledByDefault) {
  ObjectId id = Insert("plain", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_FALSE(db_->FindObject("plain__overview").ok());
}


TEST_F(HeavenDbTest, ElevatorScheduleVisibleInTapeTrace) {
  // Property: with media-elevator scheduling, the read offsets within each
  // medium form a non-decreasing sequence per batch (the tape only sweeps
  // forward) — verified against the recorded I/O trace.
  OpenDb([](HeavenOptions* options) {
    options->inter_clustering = false;  // scatter across media
    options->supertile_bytes = 4096;
    options->cache.capacity_bytes = 1;
  });
  auto coll = db_->CreateCollection("tr");
  ASSERT_TRUE(coll.ok());
  auto id = db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {39, 39})));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());

  db_->library()->EnableTrace(true);
  std::vector<std::pair<ObjectId, MdInterval>> queries = {
      {*id, MdInterval({0, 0}, {15, 15})},
      {*id, MdInterval({24, 24}, {39, 39})},
      {*id, MdInterval({8, 8}, {31, 31})},
  };
  ASSERT_TRUE(db_->ReadRegions(queries).ok());

  std::map<MediumId, uint64_t> last_offset;
  for (const TapeTraceEvent& event : db_->library()->Trace()) {
    if (event.kind != TapeTraceEvent::Kind::kRead) continue;
    auto it = last_offset.find(event.medium);
    if (it != last_offset.end()) {
      EXPECT_GE(event.offset, it->second)
          << "backward seek within medium " << event.medium;
    }
    last_offset[event.medium] = event.offset;
  }
  EXPECT_FALSE(last_offset.empty());
}

}  // namespace
}  // namespace heaven
