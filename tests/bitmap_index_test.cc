#include "heaven/bitmap_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "common/bitvector.h"
#include "common/coding.h"
#include "common/env.h"
#include "heaven/heaven_db.h"

namespace heaven {
namespace {

// ---------------------------------------------------------------------------
// WAH bitvector

TEST(WahBitVectorTest, AppendAndTestMatchReference) {
  std::mt19937_64 rng(42);
  std::vector<bool> reference;
  WahBitVector vec;
  // Mixed content: random stretches plus long runs, to hit literals,
  // zero fills, and one fills.
  for (int block = 0; block < 20; ++block) {
    if (block % 3 == 0) {
      const bool bit = (block % 2) == 0;
      const uint64_t run = 31 * 7 + (rng() % 40);
      vec.AppendRun(bit, run);
      reference.insert(reference.end(), run, bit);
    } else {
      for (int i = 0; i < 100; ++i) {
        const bool bit = (rng() & 1) != 0;
        vec.Append(bit);
        reference.push_back(bit);
      }
    }
  }
  ASSERT_EQ(vec.bits(), reference.size());
  uint64_t ones = 0;
  for (uint64_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(vec.Test(i), reference[i]) << "bit " << i;
    ones += reference[i] ? 1 : 0;
  }
  EXPECT_EQ(vec.ones(), ones);
}

TEST(WahBitVectorTest, LongRunsCompressToFills) {
  WahBitVector vec;
  vec.AppendRun(false, 1 << 20);
  vec.Append(true);
  vec.AppendRun(false, 1 << 20);
  EXPECT_EQ(vec.bits(), (2u << 20) + 1);
  EXPECT_EQ(vec.ones(), 1u);
  // Two megabit runs and one literal: a handful of words, not 64 KiB.
  EXPECT_LT(vec.words(), 8u);
  EXPECT_TRUE(vec.Test(1 << 20));
  EXPECT_FALSE(vec.Test((1 << 20) - 1));
  EXPECT_FALSE(vec.Test((1 << 20) + 1));
}

TEST(WahBitVectorTest, SerializeRoundTrips) {
  std::mt19937_64 rng(7);
  WahBitVector vec;
  vec.AppendRun(false, 500);
  for (int i = 0; i < 45; ++i) vec.Append((rng() & 1) != 0);
  vec.AppendRun(true, 93);
  std::string image;
  vec.Serialize(&image);
  Decoder dec(image);
  auto parsed = WahBitVector::Deserialize(&dec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(parsed.value(), vec);
}

TEST(WahBitVectorTest, DeserializeRejectsTruncation) {
  WahBitVector vec;
  vec.AppendRun(true, 200);
  std::string image;
  vec.Serialize(&image);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    Decoder dec(std::string_view(image).substr(0, cut));
    EXPECT_FALSE(WahBitVector::Deserialize(&dec).ok()) << "cut " << cut;
  }
}

TEST(WahBitVectorTest, CursorMatchesBruteForceOnMonotonicRanges) {
  std::mt19937_64 rng(99);
  std::vector<bool> reference;
  WahBitVector vec;
  for (int i = 0; i < 4000; ++i) {
    // Sparse-ish: mostly zeros with clustered ones.
    const bool bit = (i / 64) % 5 == 0 && (rng() % 3) == 0;
    vec.Append(bit);
    reference.push_back(bit);
  }
  WahBitVector::Cursor count_cursor(vec);
  WahBitVector::Cursor any_cursor(vec);
  uint64_t lo = 0;
  while (lo < reference.size()) {
    const uint64_t hi =
        std::min<uint64_t>(reference.size(), lo + 1 + rng() % 200);
    uint64_t expected = 0;
    for (uint64_t i = lo; i < hi; ++i) expected += reference[i] ? 1 : 0;
    EXPECT_EQ(count_cursor.CountRange(lo, hi), expected)
        << "[" << lo << ", " << hi << ")";
    EXPECT_EQ(any_cursor.AnyInRange(lo, hi), expected > 0);
    lo = hi + rng() % 150;  // disjoint, increasing: the cursor contract
  }
}

// ---------------------------------------------------------------------------
// Predicate classification

TEST(ClassifyValueRangeTest, VerdictsAreSound) {
  std::mt19937_64 rng(5);
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
  for (int trial = 0; trial < 2000; ++trial) {
    const double a = static_cast<double>(static_cast<int>(rng() % 21) - 10);
    const double b = static_cast<double>(static_cast<int>(rng() % 21) - 10);
    const double min = std::min(a, b), max = std::max(a, b);
    CellPredicate pred;
    pred.cmp = ops[rng() % 6];
    pred.value = static_cast<double>(static_cast<int>(rng() % 21) - 10);
    const PredicateOutcome outcome = ClassifyValueRange(pred, min, max);
    // Probe the range endpoints and a midpoint: every probed value lies
    // in [min, max], so the verdict must hold for it.
    for (double v : {min, max, (min + max) / 2}) {
      const bool sat = EvalCellPredicate(pred, v);
      if (outcome == PredicateOutcome::kAllSatisfy) EXPECT_TRUE(sat);
      if (outcome == PredicateOutcome::kNoneSatisfy) EXPECT_FALSE(sat);
    }
  }
}

// ---------------------------------------------------------------------------
// SuperTileIndex

Tile MakeTile(const MdInterval& domain,
              const std::function<double(const MdPoint&)>& f) {
  Tile tile(domain, CellType::kFloat);
  for (MdPointIterator it(domain); !it.Done(); it.Next()) {
    tile.SetCellFromDouble(it.point(), f(it.point()));
  }
  return tile;
}

TEST(SuperTileIndexTest, BuildAggregatesAndMasks) {
  SuperTile st(1, 10, CellType::kFloat);
  // Tile 1: all zero. Tile 2: one nonzero corner cell. Tile 3: dense.
  ASSERT_TRUE(
      st.AddTile(1, MakeTile(MdInterval({0, 0}, {7, 7}),
                             [](const MdPoint&) { return 0.0; }))
          .ok());
  ASSERT_TRUE(st.AddTile(2, MakeTile(MdInterval({0, 8}, {7, 15}),
                                     [](const MdPoint& p) {
                                       return p[0] == 7 && p[1] == 15 ? 4.5
                                                                      : 0.0;
                                     }))
                  .ok());
  ASSERT_TRUE(st.AddTile(3, MakeTile(MdInterval({8, 0}, {15, 7}),
                                     [](const MdPoint& p) {
                                       return static_cast<double>(p[0] - 10);
                                     }))
                  .ok());

  const SuperTileIndex index = SuperTileIndex::BuildFrom(st);
  EXPECT_EQ(index.entries().size(), 3u);
  EXPECT_EQ(index.total_cells(), 3u * 64u);
  EXPECT_EQ(index.nonzero_cells(), 1u + 56u);  // tile 3: rows 8,9 map to
  EXPECT_FALSE(index.all_zero());              // -2,-1; row 10 is zero
  EXPECT_EQ(index.min_value(), -2.0);
  EXPECT_EQ(index.max_value(), 5.0);

  const TileIndexEntry* zero_entry = index.Find(1);
  ASSERT_NE(zero_entry, nullptr);
  EXPECT_EQ(zero_entry->nonzero_cells, 0u);
  EXPECT_EQ(zero_entry->min_value, 0.0);
  EXPECT_EQ(zero_entry->max_value, 0.0);

  const TileIndexEntry* corner_entry = index.Find(2);
  ASSERT_NE(corner_entry, nullptr);
  EXPECT_EQ(corner_entry->nonzero_cells, 1u);
  EXPECT_EQ(corner_entry->max_value, 4.5);
  // The mask proves boxes away from the corner empty and the corner box
  // occupied — partial-overlap pruning in miniature.
  EXPECT_FALSE(SuperTileIndex::AnyNonZeroInBox(*corner_entry,
                                               MdInterval({0, 8}, {6, 14})));
  EXPECT_TRUE(SuperTileIndex::AnyNonZeroInBox(*corner_entry,
                                              MdInterval({7, 15}, {7, 15})));
  // Box disjoint from the tile: nothing to find.
  EXPECT_FALSE(SuperTileIndex::AnyNonZeroInBox(
      *corner_entry, MdInterval({100, 100}, {101, 101})));

  EXPECT_EQ(index.Find(42), nullptr);
}

TEST(SuperTileIndexTest, SerializeRoundTrips) {
  std::mt19937_64 rng(123);
  SuperTile st(9, 3, CellType::kFloat);
  for (TileId t = 1; t <= 4; ++t) {
    const int64_t base = static_cast<int64_t>(t - 1) * 8;
    ASSERT_TRUE(st.AddTile(t, MakeTile(MdInterval({base, 0}, {base + 7, 7}),
                                       [&](const MdPoint&) {
                                         return rng() % 10 == 0
                                                    ? static_cast<double>(
                                                          rng() % 100)
                                                    : 0.0;
                                       }))
                    .ok());
  }
  const SuperTileIndex index = SuperTileIndex::BuildFrom(st);
  const std::string image = index.Serialize();
  auto parsed = SuperTileIndex::Deserialize(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->total_cells(), index.total_cells());
  EXPECT_EQ(parsed->nonzero_cells(), index.nonzero_cells());
  EXPECT_EQ(parsed->min_value(), index.min_value());
  EXPECT_EQ(parsed->max_value(), index.max_value());
  ASSERT_EQ(parsed->entries().size(), index.entries().size());
  for (size_t i = 0; i < index.entries().size(); ++i) {
    const TileIndexEntry& a = index.entries()[i];
    const TileIndexEntry& b = parsed->entries()[i];
    EXPECT_EQ(a.tile_id, b.tile_id);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.min_value, b.min_value);
    EXPECT_EQ(a.max_value, b.max_value);
    EXPECT_EQ(a.nonzero_cells, b.nonzero_cells);
    EXPECT_TRUE(a.nonzero == b.nonzero);
  }
  EXPECT_FALSE(SuperTileIndex::Deserialize(image.substr(0, 5)).ok());
}

// ---------------------------------------------------------------------------
// End-to-end pruning through HeavenDb

/// 95%-sparse data: a few dense blobs on an otherwise zero canvas,
/// deterministic in the cell position.
double SparseValue(const MdPoint& p) {
  const bool in_blob = (p[0] >= 5 && p[0] <= 12 && p[1] >= 5 && p[1] <= 12) ||
                       (p[0] >= 70 && p[0] <= 76 && p[1] >= 64 && p[1] <= 71);
  if (!in_blob) return 0.0;
  return static_cast<double>((p[0] * 31 + p[1]) % 40) + 1.0;
}

class BitmapIndexDbTest : public ::testing::Test {
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

  MddArray Sparse(const MdInterval& domain) {
    MddArray data(domain, CellType::kFloat);
    data.Generate(SparseValue);
    return data;
  }

  ObjectId InsertSparse(const std::string& name, const MdInterval& domain) {
    auto id = db_->InsertObject(collection_, name, Sparse(domain));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.value();
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  CollectionId collection_ = 0;
};

TEST_F(BitmapIndexDbTest, ExportBuildsIndexOnEverySuperTile) {
  ObjectId id = InsertSparse("a", MdInterval({0, 0}, {79, 79}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  const std::vector<SuperTileMeta> metas = db_->RegistrySnapshot();
  ASSERT_GT(metas.size(), 0u);
  for (const SuperTileMeta& meta : metas) {
    ASSERT_NE(meta.index, nullptr) << "super-tile " << meta.id;
    EXPECT_GT(meta.index->total_cells(), 0u);
  }
  const auto stats = db_->IndexStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].supertiles, metas.size());
  EXPECT_EQ(stats[0].indexed_supertiles, metas.size());
  EXPECT_GT(stats[0].index_bytes, 0u);
}

TEST_F(BitmapIndexDbTest, IndexSurvivesReopen) {
  ObjectId id = InsertSparse("a", MdInterval({0, 0}, {79, 79}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  const std::vector<SuperTileMeta> before = db_->RegistrySnapshot();

  OpenDb();  // reopen from the same env
  const std::vector<SuperTileMeta> after = db_->RegistrySnapshot();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_NE(after[i].index, nullptr);
    EXPECT_EQ(after[i].index->Serialize(), before[i].index->Serialize());
  }
  // The reloaded index still prunes: an all-zero corner read touches no
  // super-tile payload.
  const uint64_t pruned_before =
      db_->stats()->Get(Ticker::kIndexPrunedSuperTiles);
  auto read = db_->ReadRegion(id, MdInterval({40, 0}, {55, 15}));
  ASSERT_TRUE(read.ok());
  EXPECT_GT(db_->stats()->Get(Ticker::kIndexPrunedSuperTiles), pruned_before);
}

TEST_F(BitmapIndexDbTest, PruningMatchesBruteForceOnRandomRegions) {
  const MdInterval domain({0, 0}, {79, 79});
  const MddArray original = Sparse(domain);
  ObjectId id = InsertSparse("a", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());

  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t x0 = static_cast<int64_t>(rng() % 70);
    const int64_t y0 = static_cast<int64_t>(rng() % 70);
    const MdInterval region({x0, y0},
                            {std::min<int64_t>(79, x0 + 1 + rng() % 25),
                             std::min<int64_t>(79, y0 + 1 + rng() % 25)});
    auto read = db_->ReadRegion(id, region);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    for (MdPointIterator it(region); !it.Done(); it.Next()) {
      ASSERT_EQ(read->At(it.point()), original.At(it.point()))
          << "trial " << trial << " cell mismatch";
    }
  }
  // The sparse workload must actually have exercised the pruner.
  EXPECT_GT(db_->stats()->Get(Ticker::kIndexLookups), 0u);
  EXPECT_GT(db_->stats()->Get(Ticker::kIndexPrunedTiles), 0u);
  EXPECT_GT(db_->stats()->Get(Ticker::kIndexPrunedBytes), 0u);
}

TEST_F(BitmapIndexDbTest, DisablingPruningReturnsIdenticalResults) {
  const MdInterval domain({0, 0}, {79, 79});
  const MdInterval region({30, 30}, {60, 60});

  auto run = [&](bool enable_index, MddArray* out, uint64_t* pruned) {
    env_ = std::make_unique<MemEnv>();
    OpenDb([&](HeavenOptions* o) { o->enable_index = enable_index; });
    auto coll = db_->CreateCollection("c2");
    ASSERT_TRUE(coll.ok());
    auto id = db_->InsertObject(coll.value(), "a", Sparse(domain));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(db_->ExportObject(id.value()).ok());
    auto read = db_->ReadRegion(id.value(), region);
    ASSERT_TRUE(read.ok());
    *out = std::move(read).value();
    *pruned = db_->stats()->Get(Ticker::kIndexPrunedSuperTiles) +
              db_->stats()->Get(Ticker::kIndexPrunedTiles);
  };

  MddArray with_pruning, without_pruning;
  uint64_t pruned_on = 0, pruned_off = 0;
  run(true, &with_pruning, &pruned_on);
  run(false, &without_pruning, &pruned_off);
  EXPECT_EQ(with_pruning, without_pruning);
  EXPECT_GT(pruned_on, 0u);
  EXPECT_EQ(pruned_off, 0u);  // the knob really bypasses the index
}

TEST_F(BitmapIndexDbTest, LegacyObjectsWithoutIndexStayReadable) {
  OpenDb([](HeavenOptions* o) { o->enable_index = false; });
  auto coll = db_->CreateCollection("legacy");
  ASSERT_TRUE(coll.ok());
  const MdInterval domain({0, 0}, {79, 79});
  auto id = db_->InsertObject(coll.value(), "a", Sparse(domain));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(id.value()).ok());
  for (const SuperTileMeta& meta : db_->RegistrySnapshot()) {
    EXPECT_EQ(meta.index, nullptr);
  }

  // Reopen with the index enabled: old registry entries carry no index
  // blob and must read back unpruned but correct.
  OpenDb();
  for (const SuperTileMeta& meta : db_->RegistrySnapshot()) {
    EXPECT_EQ(meta.index, nullptr);
  }
  auto read = db_->ReadObject(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Sparse(domain));
  EXPECT_EQ(db_->stats()->Get(Ticker::kIndexPrunedSuperTiles), 0u);
}

TEST_F(BitmapIndexDbTest, QuantifierMatchesBruteForce) {
  const MdInterval domain({0, 0}, {79, 79});
  const MddArray original = Sparse(domain);
  ObjectId id = InsertSparse("a", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());

  auto brute = [&](const MdInterval& region, const CellPredicate& pred,
                   bool universal) {
    bool all = true, exists = false;
    for (MdPointIterator it(region); !it.Done(); it.Next()) {
      const bool sat = EvalCellPredicate(pred, original.At(it.point()));
      all = all && sat;
      exists = exists || sat;
    }
    return universal ? all : exists;
  };

  std::mt19937_64 rng(11);
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t x0 = static_cast<int64_t>(rng() % 70);
    const int64_t y0 = static_cast<int64_t>(rng() % 70);
    const MdInterval region({x0, y0},
                            {std::min<int64_t>(79, x0 + 1 + rng() % 30),
                             std::min<int64_t>(79, y0 + 1 + rng() % 30)});
    CellPredicate pred;
    pred.cmp = ops[rng() % 6];
    pred.value = static_cast<double>(rng() % 45);
    const bool universal = (rng() & 1) != 0;
    auto got = db_->EvaluateQuantifier(id, region, pred, universal);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), brute(region, pred, universal))
        << "trial " << trial << " op " << static_cast<int>(pred.cmp)
        << " value " << pred.value << " universal " << universal;
  }
  EXPECT_GT(db_->stats()->Get(Ticker::kIndexLookups), 0u);
}

TEST_F(BitmapIndexDbTest, QuantifierRejectsRegionOutsideDomain) {
  ObjectId id = InsertSparse("a", MdInterval({0, 0}, {19, 19}));
  CellPredicate pred;
  pred.cmp = CompareOp::kGt;
  pred.value = 0.0;
  EXPECT_FALSE(
      db_->EvaluateQuantifier(id, MdInterval({0, 0}, {25, 25}), pred, false)
          .ok());
}

TEST_F(BitmapIndexDbTest, UpdateInvalidatesAffectedIndexes) {
  // A partial-super-tile update drops the stale index rather than serving
  // wrong pruning decisions; absence is always sound.
  const MdInterval domain({0, 0}, {79, 79});
  ObjectId id = InsertSparse("a", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());

  MddArray patch(MdInterval({40, 0}, {47, 7}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return 7.0; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());

  // The patched cells must be visible in a subsequent read even though
  // the original index claimed that area all-zero.
  auto read = db_->ReadRegion(id, MdInterval({40, 0}, {47, 7}));
  ASSERT_TRUE(read.ok());
  for (MdPointIterator it(patch.domain()); !it.Done(); it.Next()) {
    ASSERT_EQ(read->At(it.point()), 7.0);
  }
}

TEST(BitmapIndexClockTest, BuildingTheIndexAddsNoSimulatedTime) {
  // Building the index on export must be invisible to the simulation: the
  // same insert and export into an indexed and an index-free database
  // must charge *exactly* the same clocks. Only reads differ, by what the
  // index lets them prune.
  auto run = [](bool enable_index, double* tape, double* client) {
    MemEnv env;
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.enable_index = enable_index;
    auto db = HeavenDb::Open(&env, "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto coll = (*db)->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    const MdInterval domain({0, 0}, {79, 79});
    MddArray data(domain, CellType::kFloat);
    data.Generate(SparseValue);
    auto id = (*db)->InsertObject(coll.value(), "obj", data);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*db)->ExportObject(id.value()).ok());
    *tape = (*db)->TapeSeconds();
    *client = (*db)->ClientSeconds();
  };

  double tape_indexed = 0, client_indexed = 0;
  double tape_plain = 0, client_plain = 0;
  run(true, &tape_indexed, &client_indexed);
  run(false, &tape_plain, &client_plain);
  EXPECT_GT(tape_indexed, 0.0);
  EXPECT_EQ(tape_indexed, tape_plain);      // bit-identical, not nearly
  EXPECT_EQ(client_indexed, client_plain);  // equal
}

}  // namespace
}  // namespace heaven
