// Concurrency coverage: the thread-pool subsystem itself, cross-thread
// trace-span propagation, and a stress test that issues overlapping
// ReadRegion / ExportObject / DrainExports calls from multiple client
// threads and checks every result against the serial baseline. Run under
// ThreadSanitizer via scripts/check.sh (HEAVEN_TSAN shard).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "array/ops.h"
#include "common/env.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "heaven/heaven_db.h"

namespace heaven {
namespace {

// ------------------------------------------------------------ ThreadPool --
//
// Every case also runs on a zero-worker pool, which runs each task inline
// on the calling thread — the num_threads=1 configuration of HeavenDb.

TEST(ThreadPoolTest, SubmitReturnsResults) {
  for (size_t workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    std::vector<std::future<int>> futures;
    std::vector<std::thread::id> ran_on;  // only written when inline
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([i, workers, &ran_on] {
        if (workers == 0) ran_on.push_back(std::this_thread::get_id());
        return i * i;
      }));
      if (workers == 0) {
        // Inline: the task already ran, here, and nothing was queued.
        EXPECT_EQ(pool.QueueDepth(), 0u);
        ASSERT_EQ(ran_on.size(), static_cast<size_t>(i) + 1);
        EXPECT_EQ(ran_on.back(), std::this_thread::get_id());
      }
    }
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(futures[i].get(), i * i);
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<size_t> foreign{0};  // indices run off the calling thread
    const std::thread::id caller = std::this_thread::get_id();
    pool.ParallelFor(kN, [&](size_t i) {
      hits[i].fetch_add(1);
      if (std::this_thread::get_id() != caller) foreign.fetch_add(1);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << i;
    }
    if (workers == 0) EXPECT_EQ(foreign.load(), 0u);
    EXPECT_EQ(pool.QueueDepth(), 0u);
  }
}

TEST(ThreadPoolTest, ParallelForHandlesSmallAndEmptyRanges) {
  for (size_t workers : {0, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    int calls = 0;
    pool.ParallelFor(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.ParallelFor(1, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  for (size_t workers : {0, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::atomic<int> ran{0};
    {
      ThreadPool pool(workers);
      for (int i = 0; i < 64; ++i) {
        pool.Submit([&ran] { ran.fetch_add(1); });
      }
    }
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPoolTest, WorkerSpansParentToEnqueuingSpan) {
  struct Input {
    size_t workers;
    bool clock_moves;  // the submitter advances the clock mid-task
  };
  for (const Input input : {Input{0, false}, Input{2, false}, Input{2, true}}) {
    SCOPED_TRACE("workers=" + std::to_string(input.workers) +
                 " clock_moves=" + std::to_string(input.clock_moves));
    SimClock clock;
    TraceCollector trace;
    trace.SetClock(&clock);
    trace.Enable(true);
    ThreadPool pool(input.workers);
    {
      ScopedSpan outer(&trace, "outer");
      std::atomic<size_t> opened{0};
      std::promise<void> release;
      std::shared_future<void> released = release.get_future().share();
      if (!input.clock_moves) release.set_value();
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 4; ++i) {
        futures.push_back(pool.Submit([&trace, &opened, released] {
          ScopedSpan inner(&trace, "worker.task");
          opened.fetch_add(1);
          released.wait();
        }));
      }
      if (input.clock_moves) {
        // Both workers hold an open span while the shared clock moves.
        while (opened.load() < input.workers) std::this_thread::yield();
        clock.Advance(5.0);
        release.set_value();
      }
      for (auto& f : futures) f.get();
    }
    SpanId outer_id = 0;
    for (const Span& s : trace.Spans()) {
      if (s.name == "outer") outer_id = s.id;
    }
    ASSERT_NE(outer_id, 0u);
    size_t worker_spans = 0;
    for (const Span& s : trace.Spans()) {
      if (s.name != "worker.task") continue;
      ++worker_spans;
      EXPECT_EQ(s.parent, outer_id);
      EXPECT_EQ(s.duration(), 0.0) << "pool work consumed simulated time";
    }
    EXPECT_EQ(worker_spans, 4u);
  }
}

TEST(ThreadPoolTest, AmbientParentRestoredAfterScope) {
  TraceCollector trace;
  trace.Enable(true);
  {
    ScopedTraceContext guard({&trace, 42});
    EXPECT_EQ(CurrentTraceContext().span, 42u);
    {
      ScopedTraceContext nested({&trace, 7});
      EXPECT_EQ(CurrentTraceContext().span, 7u);
    }
    EXPECT_EQ(CurrentTraceContext().span, 42u);
  }
  EXPECT_EQ(CurrentTraceContext().span, 0u);
}

// ------------------------------------------------------------- DB stress --

MddArray Ramp(const MdInterval& domain) {
  MddArray data(domain, CellType::kFloat);
  data.Generate([](const MdPoint& p) {
    double v = 0.0;
    for (size_t d = 0; d < p.dims(); ++d) {
      v = v * 100.0 + static_cast<double>(p[d] % 50);
    }
    return v;
  });
  return data;
}

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.decoupled_export = true;
    options.compression = Compression::kDeltaRle;
    options.num_threads = 4;  // force the pool on, even on 1-core hosts
    auto db = HeavenDb::Open(env_.get(), "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    db_->stats()->trace()->Enable(true);  // exercise trace locking too
    auto coll = db_->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = coll.value();
  }

  ObjectId Insert(const std::string& name, const MdInterval& domain) {
    auto id = db_->InsertObject(collection_, name, Ramp(domain));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? id.value() : 0;
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  CollectionId collection_ = 0;
};

// Overlapping queries, exports and drains from several client threads must
// produce exactly the results a serial run produces; results depend only on
// the data, never on the interleaving.
TEST_F(ConcurrencyStressTest, OverlappingReadsExportsAndDrains) {
  const MdInterval domain({0, 0}, {95, 95});
  const MddArray full = Ramp(domain);
  const ObjectId archived = Insert("archived", domain);
  ASSERT_TRUE(db_->ExportObject(archived).ok());
  ASSERT_TRUE(db_->DrainExports().ok());

  const ObjectId disk_b = Insert("b", domain);
  const ObjectId disk_c = Insert("c", domain);

  const std::vector<MdInterval> regions = {
      MdInterval({0, 0}, {15, 15}),
      MdInterval({16, 16}, {47, 47}),
      MdInterval({0, 32}, {31, 63}),
      MdInterval({40, 8}, {63, 39}),
      MdInterval({0, 0}, {63, 63}),
  };

  std::atomic<int> failures{0};
  auto check_region = [&](ObjectId id, const MdInterval& region) {
    auto got = db_->ReadRegion(id, region);
    auto expected = Trim(full, region);
    if (!got.ok() || !expected.ok() || *got != *expected) {
      failures.fetch_add(1);
    }
  };

  constexpr int kReaders = 4;
  constexpr int kRoundsPerReader = 6;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < kRoundsPerReader; ++round) {
        check_region(archived, regions[(r + round) % regions.size()]);
      }
    });
  }
  // Exporter thread: migrates the disk objects and drains mid-flight while
  // the readers hammer the archived object.
  threads.emplace_back([&] {
    if (!db_->ExportObject(disk_b).ok()) failures.fetch_add(1);
    if (!db_->DrainExports().ok()) failures.fetch_add(1);
    if (!db_->ExportObject(disk_c).ok()) failures.fetch_add(1);
    check_region(disk_b, regions[1]);
  });
  // Aggregation thread: exercises the precomputed catalog path in parallel.
  threads.emplace_back([&] {
    for (int round = 0; round < kRoundsPerReader; ++round) {
      auto sum = db_->Aggregate(archived, Condenser::kSum, regions[0]);
      if (!sum.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(db_->DrainExports().ok());
  // Every object is intact after the storm.
  for (ObjectId id : {archived, disk_b, disk_c}) {
    auto got = db_->ReadRegion(id, domain);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, full);
  }
}

// Cold-cache miss storm: K clients hit the same archived object at once.
// Single-flight coalescing must collapse the concurrent misses so the tape
// serves each unique super-tile exactly once, and every client still gets
// the right answer.
TEST_F(ConcurrencyStressTest, ColdMissStormFetchesEachSuperTileOnce) {
  const MdInterval domain({0, 0}, {95, 95});
  const MddArray full = Ramp(domain);
  const ObjectId id = Insert("storm", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->DrainExports().ok());
  db_->cache()->Clear();  // force a fully cold cache

  const uint64_t unique_sts = db_->RegisteredSuperTiles();
  ASSERT_GT(unique_sts, 1u);
  const uint64_t tape_reads_before = db_->stats()->Get(Ticker::kTapeReadRequests);
  const uint64_t st_reads_before = db_->stats()->Get(Ticker::kSuperTilesRead);

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto got = db_->ReadRegion(id, domain);  // touches every super-tile
      auto expected = Trim(full, domain);
      if (!got.ok() || !expected.ok() || *got != *expected) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Exactly one tape fetch (and one decode) per unique super-tile: the
  // other K-1 clients either coalesced onto the in-flight fetch or hit the
  // cache the leader populated.
  EXPECT_EQ(db_->stats()->Get(Ticker::kSuperTilesRead) - st_reads_before,
            unique_sts);
  EXPECT_EQ(db_->stats()->Get(Ticker::kTapeReadRequests) - tape_reads_before,
            unique_sts);
  const uint64_t coalesced = db_->stats()->Get(Ticker::kFetchCoalesced);
  const uint64_t hits = db_->stats()->Get(Ticker::kCacheHits);
  EXPECT_GE(coalesced + hits, (kClients - 1) * unique_sts);
}

// Cold storm with prefetch on: clients read neighbouring super-tiles of
// one medium while each read's prefetch claims the containers after it.
// Query and prefetch fetches share one single-flight table, so the tape
// serves each super-tile once, whoever asked for it first.
TEST(PrefetchStormTest, ColdStormReadsEachSuperTileOnce) {
  MemEnv env;
  HeavenOptions options;
  options.library.profile = MidTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.disk_tile_bytes = 2048;
  options.supertile_bytes = 4 << 10;
  options.num_threads = 4;
  options.enable_prefetch = true;
  options.prefetch_depth = 2;
  auto opened = HeavenDb::Open(&env, "/db", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  HeavenDb* db = opened->get();
  auto coll = db->CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  const MdInterval domain({0, 0}, {63, 63});
  const MddArray full = Ramp(domain);
  auto id = db->InsertObject(*coll, "storm", full);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db->ExportObject(*id).ok());

  std::vector<SuperTileMeta> sts = db->RegistrySnapshot();
  std::sort(sts.begin(), sts.end(),
            [](const SuperTileMeta& a, const SuperTileMeta& b) {
              return a.offset < b.offset;
            });
  ASSERT_GE(sts.size(), 6u);
  // One tile of each super-tile, in medium order.
  std::vector<MdInterval> tile_of;
  for (const SuperTileMeta& meta : sts) {
    ASSERT_EQ(meta.medium, sts[0].medium);
    for (const TileDescriptor& tile : db->engine()->catalog()->ListTiles(*id)) {
      if (tile.super_tile == meta.id) {
        tile_of.push_back(tile.domain);
        break;
      }
    }
  }
  ASSERT_EQ(tile_of.size(), sts.size());
  db->cache()->Clear();  // fully cold
  const Statistics& stats = *db->stats();
  const uint64_t tape_reads_before = stats.Get(Ticker::kTapeReadRequests);
  const uint64_t st_reads_before = stats.Get(Ticker::kSuperTilesRead);

  constexpr size_t kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Each client reads two neighbours; the next clients' tiles are its
      // prefetch targets.
      for (size_t k : {c, c + 1}) {
        const MdInterval& region = tile_of[k % tile_of.size()];
        auto got = db->ReadRegion(*id, region);
        auto expected = Trim(full, region);
        if (!got.ok() || !expected.ok() || *got != *expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Nothing was evicted, so the cache holds every super-tile read.
  const uint64_t unique_read = db->cache()->entry_count();
  EXPECT_GE(unique_read, std::min(kClients + 1, sts.size()));
  EXPECT_EQ(stats.Get(Ticker::kTapeReadRequests) - tape_reads_before,
            unique_read);
  EXPECT_EQ(stats.Get(Ticker::kSuperTilesRead) - st_reads_before,
            unique_read);
  EXPECT_EQ(stats.Get(Ticker::kPrefetchErrors), 0u);
}

// The batch path and the export pipeline agree with the serial baseline:
// the same queries against num_threads=1 and the default pool yield
// identical arrays.
TEST_F(ConcurrencyStressTest, ParallelResultsMatchSerialBaseline) {
  const MdInterval domain({0, 0}, {63, 63});
  const ObjectId id = Insert("obj", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->DrainExports().ok());
  std::vector<std::pair<ObjectId, MdInterval>> queries = {
      {id, MdInterval({0, 0}, {31, 31})},
      {id, MdInterval({8, 24}, {55, 63})},
      {id, MdInterval({32, 0}, {63, 31})},
  };
  auto parallel_results = db_->ReadRegions(queries);
  ASSERT_TRUE(parallel_results.ok());

  // Serial twin: identical data and layout, num_threads=1.
  auto serial_env = std::make_unique<MemEnv>();
  HeavenOptions options;
  options.library.profile = MidTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.disk_tile_bytes = 2048;
  options.supertile_bytes = 16 << 10;
  options.compression = Compression::kDeltaRle;
  options.num_threads = 1;
  auto serial_db = HeavenDb::Open(serial_env.get(), "/db", options);
  ASSERT_TRUE(serial_db.ok());
  auto coll = (*serial_db)->CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  auto serial_id = (*serial_db)->InsertObject(*coll, "obj", Ramp(domain));
  ASSERT_TRUE(serial_id.ok());
  ASSERT_TRUE((*serial_db)->ExportObject(*serial_id).ok());
  for (auto& [qid, region] : queries) qid = *serial_id;
  auto serial_results = (*serial_db)->ReadRegions(queries);
  ASSERT_TRUE(serial_results.ok());

  ASSERT_EQ(parallel_results->size(), serial_results->size());
  for (size_t i = 0; i < parallel_results->size(); ++i) {
    EXPECT_EQ((*parallel_results)[i], (*serial_results)[i]) << i;
  }
}

// The thread count changes only wall-clock time: one fixed mix of every
// read entry point, under a cache too small for the working set, yields
// the same results, simulated clocks and counters on a zero-worker pool
// (num_threads=1) and on four workers. Decoded super-tiles enter the cache
// in schedule order on both, so hits, evictions and seeks match too.
TEST(ThreadCountTest, SimClocksAndCountersDoNotDependOnThreadCount) {
  struct Outcome {
    std::vector<MddArray> arrays;
    std::vector<double> scalars;
    double tape_seconds = 0.0;
    double client_seconds = 0.0;
    std::vector<uint64_t> counters;
  };
  const MdInterval domain({0, 0}, {95, 95});
  auto run = [&](size_t num_threads) -> Outcome {
    Outcome out;
    MemEnv env;
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 8 << 10;
    options.compression = Compression::kDeltaRle;
    options.cache.capacity_bytes = 24 << 10;  // a few of ~20 super-tiles
    options.num_threads = num_threads;
    auto db = HeavenDb::Open(&env, "/db", options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return out;
    auto coll = (*db)->CreateCollection("c");
    EXPECT_TRUE(coll.ok());
    auto a = (*db)->InsertObject(*coll, "a", Ramp(domain));
    auto b = (*db)->InsertObject(*coll, "b", Ramp(domain));
    auto disk = (*db)->InsertObject(*coll, "disk", Ramp(domain));
    EXPECT_TRUE(a.ok() && b.ok() && disk.ok());
    EXPECT_TRUE((*db)->ExportObject(*a).ok());
    EXPECT_TRUE((*db)->ExportObject(*b).ok());
    auto frame = ObjectFrame::FromBoxes(
        {MdInterval({0, 0}, {40, 15}), MdInterval({30, 16}, {80, 60})});
    EXPECT_TRUE(frame.ok());
    auto keep = [&](auto result) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) return;
      if constexpr (std::is_same_v<std::decay_t<decltype(*result)>,
                                   MddArray>) {
        out.arrays.push_back(std::move(result).value());
      } else {
        out.scalars.push_back(static_cast<double>(*result));
      }
    };
    CellPredicate above;
    above.cmp = CompareOp::kGt;
    above.value = 4000.0;
    for (int round = 0; round < 3; ++round) {
      for (ObjectId id : {*a, *b, *disk}) {
        keep((*db)->ReadRegion(id, MdInterval({8, 8}, {71, 47})));
        keep((*db)->ReadFrame(id, *frame));
        keep((*db)->Aggregate(id, Condenser::kSum,
                              MdInterval({round, 0}, {50, 95})));
        keep((*db)->EvaluateQuantifier(id, MdInterval({0, 0}, {60, 60}),
                                       above, /*universal=*/false));
        keep((*db)->EvaluateQuantifier(id, MdInterval({10, 10}, {90, 90}),
                                       above, /*universal=*/true));
      }
      keep((*db)->ReadObject(*a));
      auto batch = (*db)->ReadRegions({{*b, MdInterval({0, 0}, {31, 95})},
                                       {*a, MdInterval({40, 40}, {95, 95})},
                                       {*disk, MdInterval({5, 5}, {9, 9})}});
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (batch.ok()) {
        for (MddArray& array : *batch) out.arrays.push_back(std::move(array));
      }
    }
    out.tape_seconds = (*db)->TapeSeconds();
    out.client_seconds = (*db)->ClientSeconds();
    out.counters = (*db)->stats()->Snapshot();
    // The mix must actually run under cache pressure.
    EXPECT_GT((*db)->stats()->Get(Ticker::kCacheEvictions), 0u);
    return out;
  };
  const Outcome serial = run(1);
  const Outcome pooled = run(4);
  ASSERT_EQ(serial.arrays.size(), pooled.arrays.size());
  for (size_t i = 0; i < serial.arrays.size(); ++i) {
    EXPECT_EQ(serial.arrays[i], pooled.arrays[i]) << i;
  }
  EXPECT_EQ(serial.scalars, pooled.scalars);
  EXPECT_EQ(serial.tape_seconds, pooled.tape_seconds);
  EXPECT_EQ(serial.client_seconds, pooled.client_seconds);
  ASSERT_EQ(serial.counters.size(), pooled.counters.size());
  for (size_t t = 0; t < serial.counters.size(); ++t) {
    EXPECT_EQ(serial.counters[t], pooled.counters[t])
        << TickerName(static_cast<Ticker>(t));
  }
}

// ----------------------------------------------------------- Fault storm --

// Seeded fault storm: across many seeds, a realistic mix of injected tape
// faults (transient read/write errors, exchange jams, drive deaths, bit
// rot) runs under an insert/export/query workload. The contract under any
// schedule: every operation either returns exactly the right bytes or a
// non-ok Status — never a crash, never silent corruption. The seed count
// can be raised via HEAVEN_FAULT_STORM_SEEDS for soak runs.
TEST(FaultStormTest, EverySeedYieldsCorrectBytesOrAnError) {
  int seeds = 50;
  if (const char* override_seeds = std::getenv("HEAVEN_FAULT_STORM_SEEDS")) {
    seeds = std::max(1, std::atoi(override_seeds));
  }
  const MdInterval domain({0, 0}, {49, 49});
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("storm seed " + std::to_string(seed));
    MemEnv env;
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.fault_policy.enabled = true;
    options.fault_policy.seed = static_cast<uint64_t>(seed);
    options.fault_policy.tape_read_error_p = 0.05;
    options.fault_policy.tape_write_error_p = 0.02;
    options.fault_policy.exchange_jam_p = 0.02;
    options.fault_policy.drive_failure_p = 0.005;
    options.fault_policy.bit_rot_p = 0.02;
    auto db = HeavenDb::Open(&env, "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto coll = (*db)->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    auto id = (*db)->InsertObject(*coll, "obj", Ramp(domain));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    // Exports may legitimately fail under write faults (and roll back);
    // re-driving them is the client's job.
    Status exported = (*db)->ExportObject(*id);
    for (int attempt = 0; !exported.ok() && attempt < 8; ++attempt) {
      exported = (*db)->ExportObject(*id);
    }
    const std::vector<MdInterval> regions = {
        MdInterval({0, 0}, {49, 49}),
        MdInterval({10, 10}, {29, 39}),
        MdInterval({0, 25}, {49, 49}),
        MdInterval({40, 0}, {49, 9}),
    };
    for (const MdInterval& region : regions) {
      auto read = (*db)->ReadRegion(*id, region);
      if (read.ok()) {
        // The ramp is position-based, so the correct answer for any region
        // is the ramp generated over that region.
        ASSERT_EQ(read.value(), Ramp(region));  // no silent corruption
      } else {
        ASSERT_FALSE(read.status().ToString().empty());
      }
    }
    // Accounting must reconcile: every retry and every CRC mismatch traces
    // back to exactly one injected fault. (With zero online drives, reads
    // keep retrying against a dead library without consuming new faults,
    // so the invariant is only claimed while a drive survives.)
    const uint64_t injected = (*db)->stats()->Get(Ticker::kFaultsInjected);
    const uint64_t retries = (*db)->stats()->Get(Ticker::kTapeRetries);
    const uint64_t mismatches = (*db)->stats()->Get(Ticker::kCrcMismatches);
    ASSERT_EQ((*db)->fault_injector()->injected(), injected);
    if ((*db)->library()->OnlineDrives() > 0) {
      ASSERT_LE(retries + mismatches, injected);
    }
  }
}

}  // namespace
}  // namespace heaven
