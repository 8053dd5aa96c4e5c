// Model-based randomized testing: a HeavenDb instance is driven through a
// random sequence of operations (insert, export, re-import, update, region
// reads, batched reads, frame reads, aggregates, deletes, media
// reclamation) while a plain in-memory model (std::map of MddArray) tracks
// the expected state. After every step the observable behaviour must match
// the model exactly, regardless of where the bytes currently live in the
// storage hierarchy, of the configuration, and of close/reopen cycles.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/logging.h"
#include "common/rng.h"
#include "heaven/heaven_db.h"

namespace heaven {
namespace {

/// One point of the configuration matrix the oracle runs over.
struct ModelConfig {
  size_t num_threads = 1;
  Compression codec = Compression::kNone;
  bool decoupled_export = false;
  uint64_t seed = 0;
  /// 4 KiB checkpoints every few commits, so reopens restore a checkpoint
  /// and replay a WAL suffix; the default (64 MiB) never checkpoints here.
  uint64_t checkpoint_wal_bytes = StorageOptions{}.checkpoint_wal_bytes;
};

std::string ConfigName(const ::testing::TestParamInfo<ModelConfig>& info) {
  const ModelConfig& c = info.param;
  return "t" + std::to_string(c.num_threads) + "_" +
         (c.codec == Compression::kNone ? "none" : "deltarle") + "_" +
         (c.decoupled_export ? "tct" : "sync") + "_seed" +
         std::to_string(c.seed) +
         (c.checkpoint_wal_bytes == 4096 ? "_checkpoint4k" : "");
}

class ModelBasedTest : public ::testing::TestWithParam<ModelConfig> {};

MdInterval RandomSubBox(Rng* rng, const MdInterval& domain) {
  std::vector<int64_t> lo(domain.dims());
  std::vector<int64_t> hi(domain.dims());
  for (size_t d = 0; d < domain.dims(); ++d) {
    lo[d] = rng->UniformRange(domain.lo(d), domain.hi(d));
    hi[d] = rng->UniformRange(lo[d], domain.hi(d));
  }
  return MdInterval(MdPoint(std::move(lo)), MdPoint(std::move(hi)));
}

TEST_P(ModelBasedTest, RandomOperationSequencesMatchModel) {
  const ModelConfig& config = GetParam();
  Rng rng(config.seed);
  MemEnv env;
  HeavenOptions options;
  options.library.profile = FastTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.disk_tile_bytes = 1024;
  options.supertile_bytes = 4096;
  options.cache.capacity_bytes = 16 << 10;  // small: force evictions
  options.cache.policy = EvictionPolicy::kLru;
  options.num_threads = config.num_threads;
  options.compression = config.codec;
  options.decoupled_export = config.decoupled_export;
  options.storage.checkpoint_wal_bytes = config.checkpoint_wal_bytes;
  std::unique_ptr<HeavenDb> db;
  auto open = [&] {
    db.reset();  // close first: one instance per directory
    auto opened = HeavenDb::Open(&env, "/mb", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(opened).value();
  };
  open();
  auto collection = db->CreateCollection("mb");
  ASSERT_TRUE(collection.ok());

  // The reference model: name -> expected full contents.
  std::map<std::string, MddArray> model;
  std::map<std::string, ObjectId> ids;
  int next_name = 0;

  for (int step = 0; step < 120; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t action = rng.Uniform(100);
    // Queued (decoupled) exports finish before anything but another export
    // runs, so every check sees a settled state.
    if (action < 15 || action >= 30) {
      ASSERT_TRUE(db->DrainExports().ok());
    }
    if (step > 0 && step % 30 == 0) open();
    if (model.empty() || action < 15) {
      // Insert a fresh 2-D object.
      const int64_t w = rng.UniformRange(8, 40);
      const int64_t h = rng.UniformRange(8, 40);
      MddArray data(MdInterval({0, 0}, {w - 1, h - 1}), CellType::kLong);
      data.Generate([&](const MdPoint&) {
        return static_cast<double>(rng.UniformRange(-500, 500));
      });
      const std::string name = "obj" + std::to_string(next_name++);
      auto id = db->InsertObject(*collection, name, data);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids[name] = *id;
      model.emplace(name, std::move(data));
      continue;
    }

    // Pick a random live object.
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng.Uniform(model.size())));
    const std::string& name = it->first;
    const MddArray& expected = it->second;
    const ObjectId id = ids[name];

    if (action < 30) {
      ASSERT_TRUE(db->ExportObject(id).ok());
    } else if (action < 36) {
      ASSERT_TRUE(db->ReimportObject(id).ok());
    } else if (action < 46) {
      // Update a random region with fresh values.
      const MdInterval region = RandomSubBox(&rng, expected.domain());
      MddArray patch(region, CellType::kLong);
      patch.Generate([&](const MdPoint&) {
        return static_cast<double>(rng.UniformRange(-500, 500));
      });
      ASSERT_TRUE(db->UpdateRegion(id, patch).ok());
      ASSERT_TRUE(
          it->second.mutable_tile().CopyRegionFrom(patch.tile(), region).ok());
    } else if (action < 60) {
      // Region read.
      const MdInterval region = RandomSubBox(&rng, expected.domain());
      auto got = db->ReadRegion(id, region);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = Trim(expected, region);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(*got, *want) << name << " region " << region.ToString();
    } else if (action < 68) {
      // Batched read of random regions of random live objects.
      std::vector<std::pair<ObjectId, MdInterval>> queries;
      std::vector<const MddArray*> wanted;
      const uint64_t n = 1 + rng.Uniform(3);
      for (uint64_t q = 0; q < n; ++q) {
        auto pick = model.begin();
        std::advance(pick, static_cast<long>(rng.Uniform(model.size())));
        queries.emplace_back(ids[pick->first],
                             RandomSubBox(&rng, pick->second.domain()));
        wanted.push_back(&pick->second);
      }
      auto got = db->ReadRegions(queries);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        auto want = Trim(*wanted[q], queries[q].second);
        ASSERT_TRUE(want.ok());
        ASSERT_EQ((*got)[q], *want) << "batch query " << q;
      }
    } else if (action < 76) {
      // Frame read over two random boxes.
      const MdInterval box_a = RandomSubBox(&rng, expected.domain());
      const MdInterval box_b = RandomSubBox(&rng, expected.domain());
      auto frame = ObjectFrame::FromBoxes({box_a, box_b});
      ASSERT_TRUE(frame.ok());
      auto got = db->ReadFrame(id, *frame);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // Check cells inside and outside the frame.
      auto bbox = frame->BoundingBox();
      ASSERT_TRUE(bbox.ok());
      for (int probes = 0; probes < 20; ++probes) {
        MdPoint p(bbox->dims());
        for (size_t d = 0; d < bbox->dims(); ++d) {
          p[d] = rng.UniformRange(bbox->lo(d), bbox->hi(d));
        }
        const double want =
            frame->ContainsPoint(p) ? expected.At(p) : 0.0;
        ASSERT_EQ(got->At(p), want) << p.ToString();
      }
    } else if (action < 86) {
      // Aggregate.
      const MdInterval region = RandomSubBox(&rng, expected.domain());
      auto got = db->Aggregate(id, Condenser::kSum, region);
      ASSERT_TRUE(got.ok());
      auto want = CondenseRegion(expected, Condenser::kSum, region);
      ASSERT_TRUE(want.ok());
      ASSERT_DOUBLE_EQ(*got, *want);
    } else if (action < 92) {
      // Reclaim a random medium: live containers move, the medium empties.
      const MediumId medium =
          static_cast<MediumId>(rng.Uniform(options.library.num_media));
      auto reclaimed = db->ReclaimMedium(medium);
      ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
      auto used = db->library()->MediumUsedBytes(medium);
      ASSERT_TRUE(used.ok());
      EXPECT_EQ(*used, 0u);
    } else {
      ASSERT_TRUE(db->DeleteObject(id).ok());
      ids.erase(name);
      model.erase(it);
    }
  }

  // Final sweep, after one more reopen: every surviving object reads back
  // exactly.
  ASSERT_TRUE(db->DrainExports().ok());
  open();
  for (const auto& [name, expected] : model) {
    auto got = db->ReadObject(ids[name]);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(*got, expected) << name;
  }
}

std::vector<ModelConfig> ModelMatrix() {
  std::vector<ModelConfig> configs;
  for (size_t threads : {1, 4}) {
    for (Compression codec : {Compression::kNone, Compression::kDeltaRle}) {
      for (bool decoupled : {false, true}) {
        for (uint64_t seed : {1001, 2002, 3003}) {
          for (uint64_t checkpoint_wal_bytes : {64ull << 20, 4ull << 10}) {
            configs.push_back(
                {threads, codec, decoupled, seed, checkpoint_wal_bytes});
          }
        }
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ModelBasedTest,
                         ::testing::ValuesIn(ModelMatrix()), ConfigName);

// ---- Failure injection -------------------------------------------------

TEST(FailureInjectionTest, CorruptTapeByteIsDetectedOnRead) {
  MemEnv env;
  HeavenOptions options;
  options.library.profile = FastTapeProfile();
  options.disk_tile_bytes = 2048;
  options.supertile_bytes = 8192;
  options.cache.capacity_bytes = 1;  // no cache: force tape reads
  auto db_result = HeavenDb::Open(&env, "/fi", options);
  ASSERT_TRUE(db_result.ok());
  std::unique_ptr<HeavenDb> db = std::move(db_result).value();
  auto collection = db->CreateCollection("fi");
  ASSERT_TRUE(collection.ok());
  MddArray data(MdInterval({0, 0}, {31, 31}), CellType::kDouble);
  data.Generate([](const MdPoint& p) { return static_cast<double>(p[0]); });
  auto id = db->InsertObject(*collection, "x", data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db->ExportObject(*id).ok());

  // Decay a byte in the middle of every written extent on medium of the
  // first super-tile.
  bool corrupted = false;
  for (MediumId medium = 0; medium < db->library()->num_media(); ++medium) {
    auto used = db->library()->MediumUsedBytes(medium);
    ASSERT_TRUE(used.ok());
    if (*used > 0) {
      ASSERT_TRUE(
          db->library()->CorruptByteForTesting(medium, *used / 2).ok());
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  // The read must fail with Corruption — never return wrong data.
  auto read = db->ReadObject(*id);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status().ToString();
}

TEST(FailureInjectionTest, CorruptionDoesNotPoisonOtherObjects) {
  MemEnv env;
  HeavenOptions options;
  options.library.profile = FastTapeProfile();
  options.library.num_media = 2;
  options.disk_tile_bytes = 2048;
  options.supertile_bytes = 1 << 20;  // one super-tile per object
  options.cache.capacity_bytes = 1;
  auto db_result = HeavenDb::Open(&env, "/fi2", options);
  ASSERT_TRUE(db_result.ok());
  std::unique_ptr<HeavenDb> db = std::move(db_result).value();
  auto collection = db->CreateCollection("fi2");
  ASSERT_TRUE(collection.ok());

  MddArray data(MdInterval({0, 0}, {15, 15}), CellType::kFloat);
  data.Generate([](const MdPoint& p) { return static_cast<double>(p[1]); });
  auto a = db->InsertObject(*collection, "a", data);
  auto b = db->InsertObject(*collection, "b", data);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(db->ExportObject(*a).ok());
  const uint64_t a_extent_end = *db->library()->MediumUsedBytes(
      0);  // a's container occupies [0, end) on medium 0
  ASSERT_TRUE(db->ExportObject(*b).ok());

  // Corrupt a byte inside object a's extent only.
  ASSERT_TRUE(
      db->library()->CorruptByteForTesting(0, a_extent_end / 2).ok());
  EXPECT_FALSE(db->ReadObject(*a).ok());
  auto read_b = db->ReadObject(*b);
  EXPECT_TRUE(read_b.ok()) << read_b.status().ToString();
}

}  // namespace
}  // namespace heaven
