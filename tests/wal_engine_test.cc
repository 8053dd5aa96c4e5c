#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"

#include "common/rng.h"

namespace heaven {
namespace {

// -------------------------------------------------------------------- WAL --

class WalTest : public ::testing::Test {
 protected:
  MemEnv env_;
};

TEST_F(WalTest, AppendReadRoundTrip) {
  auto wal = Wal::Open(&env_, "/wal");
  ASSERT_TRUE(wal.ok());
  WalRecord put;
  put.txn_id = 7;
  put.op = WalOp::kPutBlob;
  put.blob_id = 3;
  put.payload = "payload bytes";
  ASSERT_TRUE((*wal)->Append(put).ok());
  WalRecord commit;
  commit.txn_id = 7;
  commit.op = WalOp::kCommit;
  ASSERT_TRUE((*wal)->Append(commit).ok());

  auto records = (*wal)->ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], put);
  EXPECT_EQ((*records)[1], commit);
}

TEST_F(WalTest, EmptyLogReadsEmpty) {
  auto wal = Wal::Open(&env_, "/wal");
  ASSERT_TRUE(wal.ok());
  auto records = (*wal)->ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST_F(WalTest, TornTailIsIgnored) {
  auto wal = Wal::Open(&env_, "/wal");
  ASSERT_TRUE(wal.ok());
  WalRecord r;
  r.txn_id = 1;
  r.op = WalOp::kPutBlob;
  r.blob_id = 1;
  r.payload = "first";
  ASSERT_TRUE((*wal)->Append(r).ok());
  const uint64_t good_size = (*wal)->SizeBytes();
  r.payload = "second";
  ASSERT_TRUE((*wal)->Append(r).ok());

  // Simulate a crash that tore the second record.
  auto file = env_.OpenFile("/wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Truncate(good_size + 3).ok());

  auto reopened = Wal::Open(&env_, "/wal");
  ASSERT_TRUE(reopened.ok());
  auto records = (*reopened)->ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "first");
}

TEST_F(WalTest, CorruptRecordStopsScan) {
  auto wal = Wal::Open(&env_, "/wal");
  ASSERT_TRUE(wal.ok());
  WalRecord r;
  r.txn_id = 1;
  r.op = WalOp::kPutBlob;
  r.payload = "aaaa";
  ASSERT_TRUE((*wal)->Append(r).ok());
  ASSERT_TRUE((*wal)->Append(r).ok());

  // Flip a byte in the second record's payload.
  auto file = env_.OpenFile("/wal");
  ASSERT_TRUE(file.ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE((*file)->WriteAt(*size - 2, "X").ok());

  auto records = (*wal)->ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(WalTest, ResetClearsLog) {
  auto wal = Wal::Open(&env_, "/wal");
  ASSERT_TRUE(wal.ok());
  WalRecord r;
  r.op = WalOp::kCommit;
  ASSERT_TRUE((*wal)->Append(r).ok());
  ASSERT_TRUE((*wal)->Reset().ok());
  EXPECT_EQ((*wal)->SizeBytes(), 0u);
  auto records = (*wal)->ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}


// ---- WAL corruption fuzzing --------------------------------------------

class WalFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalFuzzTest, RandomCorruptionNeverBreaksRecovery) {
  // Property: whatever single corruption hits the log, ReadAll() must
  // still succeed and return a *prefix* of the committed record stream —
  // never garbage, never a crash.
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    MemEnv env;
    auto wal = Wal::Open(&env, "/wal");
    ASSERT_TRUE(wal.ok());
    std::vector<WalRecord> written;
    const int count = 1 + static_cast<int>(rng.Uniform(10));
    for (int i = 0; i < count; ++i) {
      WalRecord record;
      record.txn_id = static_cast<uint64_t>(i);
      record.op = WalOp::kPutBlob;
      record.blob_id = rng.Uniform(100);
      record.payload.assign(rng.Uniform(200), 'p');
      ASSERT_TRUE((*wal)->Append(record).ok());
      written.push_back(std::move(record));
    }

    // Corrupt one random byte (or truncate at a random point).
    auto file = env.OpenFile("/wal");
    ASSERT_TRUE(file.ok());
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    if (rng.Uniform(2) == 0) {
      const uint64_t pos = rng.Uniform(*size);
      std::string byte;
      ASSERT_TRUE((*file)->ReadAt(pos, 1, &byte).ok());
      byte[0] = static_cast<char>(byte[0] ^ (1 + rng.Uniform(255)));
      ASSERT_TRUE((*file)->WriteAt(pos, byte).ok());
    } else {
      ASSERT_TRUE((*file)->Truncate(rng.Uniform(*size + 1)).ok());
    }

    auto reopened = Wal::Open(&env, "/wal");
    ASSERT_TRUE(reopened.ok());
    auto records = (*reopened)->ReadAll();
    ASSERT_TRUE(records.ok());
    ASSERT_LE(records->size(), written.size());
    for (size_t i = 0; i < records->size(); ++i) {
      // Every surviving record is bit-exact (CRC guarantees it).
      EXPECT_EQ((*records)[i], written[i]) << "record " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFuzzTest,
                         ::testing::Values(41, 4141, 414141));

// ----------------------------------------------------------------- Engine --

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Reopen(); }

  void Reopen() {
    engine_.reset();
    auto engine = StorageEngine::Open(&env_, "/db", options_, &stats_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  MemEnv env_;
  Statistics stats_;
  StorageOptions options_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(StorageEngineTest, CommittedBlobVisible) {
  auto txn = engine_->Begin();
  txn->PutBlob(1, "hello");
  ASSERT_TRUE(txn->Commit().ok());
  auto out = engine_->blobs()->Get(1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "hello");
}

TEST_F(StorageEngineTest, AbortedTransactionInvisible) {
  auto txn = engine_->Begin();
  txn->PutBlob(1, "doomed");
  txn->Abort();
  EXPECT_FALSE(engine_->blobs()->Exists(1));
}

TEST_F(StorageEngineTest, UncommittedInvisibleUntilCommit) {
  auto txn = engine_->Begin();
  txn->PutBlob(1, "staged");
  EXPECT_FALSE(engine_->blobs()->Exists(1));
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(engine_->blobs()->Exists(1));
}

TEST_F(StorageEngineTest, ReadYourWrites) {
  ASSERT_TRUE(engine_->PutBlobAtomic(1, "old").ok());
  auto txn = engine_->Begin();
  txn->PutBlob(1, "new");
  auto read = txn->GetBlob(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new");
  txn->DeleteBlob(1);
  EXPECT_FALSE(txn->GetBlob(1).ok());
  txn->Abort();
  auto committed = engine_->blobs()->Get(1);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, "old");
}

TEST_F(StorageEngineTest, DestructorAbortsOpenTransaction) {
  {
    auto txn = engine_->Begin();
    txn->PutBlob(1, "ghost");
  }
  EXPECT_FALSE(engine_->blobs()->Exists(1));
}

TEST_F(StorageEngineTest, RecoveryReplaysCommittedTransactions) {
  ASSERT_TRUE(engine_->PutBlobAtomic(1, "persisted").ok());
  CatalogDelta delta;
  delta.op = CatalogOp::kAddCollection;
  delta.collection_id = 42;
  delta.name = "satellites";
  ASSERT_TRUE(engine_->ApplyCatalogAtomic(delta).ok());

  // Simulate crash: drop the engine WITHOUT checkpointing; the page file
  // retains data but the blob directory must come from the WAL replay.
  Reopen();
  auto out = engine_->blobs()->Get(1);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "persisted");
  EXPECT_TRUE(engine_->catalog()->FindCollection("satellites").has_value());
}

TEST_F(StorageEngineTest, RecoverySkipsUncommittedRecords) {
  // Hand-craft a WAL with an uncommitted transaction.
  ASSERT_TRUE(engine_->PutBlobAtomic(1, "committed").ok());
  {
    auto wal = Wal::Open(&env_, "/db/wal.log");
    ASSERT_TRUE(wal.ok());
    WalRecord r;
    r.txn_id = 999;
    r.op = WalOp::kPutBlob;
    r.blob_id = 77;
    r.payload = "never committed";
    ASSERT_TRUE((*wal)->Append(r).ok());
  }
  Reopen();
  EXPECT_TRUE(engine_->blobs()->Exists(1));
  EXPECT_FALSE(engine_->blobs()->Exists(77));
}

TEST_F(StorageEngineTest, CheckpointThenRecovery) {
  ASSERT_TRUE(engine_->PutBlobAtomic(1, "alpha").ok());
  ASSERT_TRUE(engine_->Checkpoint().ok());
  EXPECT_EQ(engine_->WalBytes(), 0u);
  ASSERT_TRUE(engine_->PutBlobAtomic(2, "beta").ok());
  Reopen();
  auto a = engine_->blobs()->Get(1);
  auto b = engine_->blobs()->Get(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, "alpha");
  EXPECT_EQ(*b, "beta");
}

TEST_F(StorageEngineTest, AutoCheckpointAfterWalThreshold) {
  options_.checkpoint_wal_bytes = 1024;
  Reopen();
  ASSERT_TRUE(engine_->PutBlobAtomic(1, std::string(4096, 'x')).ok());
  // The commit pushed the WAL over 1 KiB, so it must have checkpointed.
  EXPECT_EQ(engine_->WalBytes(), 0u);
  Reopen();
  EXPECT_TRUE(engine_->blobs()->Exists(1));
}

TEST_F(StorageEngineTest, DeleteBlobInTransaction) {
  ASSERT_TRUE(engine_->PutBlobAtomic(1, "bye").ok());
  auto txn = engine_->Begin();
  txn->DeleteBlob(1);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_FALSE(engine_->blobs()->Exists(1));
  Reopen();
  EXPECT_FALSE(engine_->blobs()->Exists(1));
}

TEST_F(StorageEngineTest, MultiOperationTransactionIsAtomic) {
  auto txn = engine_->Begin();
  for (BlobId id = 1; id <= 10; ++id) {
    txn->PutBlob(id, "blob" + std::to_string(id));
  }
  CatalogDelta delta;
  delta.op = CatalogOp::kAddCollection;
  delta.collection_id = 1;
  delta.name = "batch";
  txn->UpdateCatalog(delta);
  ASSERT_TRUE(txn->Commit().ok());
  Reopen();
  for (BlobId id = 1; id <= 10; ++id) {
    EXPECT_TRUE(engine_->blobs()->Exists(id)) << id;
  }
  EXPECT_TRUE(engine_->catalog()->FindCollection("batch").has_value());
}

TEST_F(StorageEngineTest, TornWalTailLosesOnlyLastTransaction) {
  ASSERT_TRUE(engine_->PutBlobAtomic(1, "safe").ok());
  ASSERT_TRUE(engine_->PutBlobAtomic(2, "torn").ok());
  // Corrupt the tail of the WAL (the commit record of txn 2).
  auto file = env_.OpenFile("/db/wal.log");
  ASSERT_TRUE(file.ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE((*file)->Truncate(*size - 4).ok());
  Reopen();
  EXPECT_TRUE(engine_->blobs()->Exists(1));
  EXPECT_FALSE(engine_->blobs()->Exists(2));
}

// ----------------------------------------------------------- group commit --

TEST_F(StorageEngineTest, SerialSyncCommitsLeadEveryFsync) {
  options_.sync_on_commit = true;
  Reopen();
  const uint64_t syncs_before = stats_.Get(Ticker::kWalSyncs);
  for (BlobId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(engine_->PutBlobAtomic(id, "payload").ok());
  }
  // With no concurrency there is nothing to piggyback on: every commit
  // leads its own fsync and none are coalesced.
  EXPECT_EQ(stats_.Get(Ticker::kWalSyncs) - syncs_before, 5u);
  EXPECT_EQ(stats_.Get(Ticker::kWalSyncsCoalesced), 0u);
}

TEST_F(StorageEngineTest, ConcurrentSyncCommitsGroupCommit) {
  options_.sync_on_commit = true;
  options_.buffer_pool_stripes = 4;
  Reopen();
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const BlobId id = static_cast<BlobId>(t * kCommitsPerThread + i + 1);
        if (!engine_->PutBlobAtomic(id, "blob-" + std::to_string(id)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every committed blob is visible and every commit was made durable —
  // either by leading an fsync or by piggybacking on a concurrent leader's.
  for (BlobId id = 1; id <= kThreads * kCommitsPerThread; ++id) {
    auto blob = engine_->blobs()->Get(id);
    ASSERT_TRUE(blob.ok()) << id;
    EXPECT_EQ(*blob, "blob-" + std::to_string(id));
  }
  EXPECT_EQ(stats_.Get(Ticker::kWalSyncs) + stats_.Get(Ticker::kWalSyncsCoalesced),
            static_cast<uint64_t>(kThreads * kCommitsPerThread));

  // Durability across recovery.
  Reopen();
  for (BlobId id = 1; id <= kThreads * kCommitsPerThread; ++id) {
    EXPECT_TRUE(engine_->blobs()->Exists(id)) << id;
  }
}

// ---------------------------------------------------- checkpoint crash --

// Kill a checkpoint at every write point: the engine reopens (the
// checkpoint is the old or the new image, never a torn one), holds every
// committed blob, frees the pages of the blob deleted since the last
// checkpoint once, and later blobs get pages of their own.
TEST(StorageCrashTest, KillCheckpointAtEveryWritePoint) {
  Statistics stats;
  const auto blob = [](BlobId blob_id) {
    return std::string(2 * kPageSize + 100, static_cast<char>('a' + blob_id));
  };
  // A checkpoint listing blobs 1 and 2, then a WAL deleting 1 and adding 3.
  const auto prepare = [&](Env* env) {
    auto engine = StorageEngine::Open(env, "/db", StorageOptions{}, &stats);
    HEAVEN_CHECK(engine.ok()) << engine.status().ToString();
    for (BlobId blob_id : {1, 2}) {
      HEAVEN_CHECK((*engine)->PutBlobAtomic(blob_id, blob(blob_id)).ok());
    }
    HEAVEN_CHECK((*engine)->Checkpoint().ok());
    std::unique_ptr<Transaction> txn = (*engine)->Begin();
    txn->DeleteBlob(1);
    txn->PutBlob(3, blob(3));
    HEAVEN_CHECK(txn->Commit().ok());
    return std::move(engine).value();
  };
  uint64_t writes = 0;
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    std::unique_ptr<StorageEngine> engine = prepare(&env);
    const uint64_t before = env.writes_issued();
    ASSERT_TRUE(engine->Checkpoint().ok());
    writes = env.writes_issued() - before;
  }
  ASSERT_GT(writes, 0u);

  for (uint64_t limit = 1; limit <= writes; ++limit) {
    SCOPED_TRACE("crash after " + std::to_string(limit) + " writes");
    MemEnv base;
    FaultInjectionEnv env(&base);
    {
      std::unique_ptr<StorageEngine> engine = prepare(&env);
      env.SetWriteLimit(limit);  // the power cut is armed
      EXPECT_FALSE(engine->Checkpoint().ok());
      engine.reset();  // the kill: the closing flush fails as well
      env.ClearWriteLimit();
    }
    auto engine = StorageEngine::Open(&env, "/db", StorageOptions{}, &stats);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_FALSE((*engine)->blobs()->Exists(1));
    for (BlobId blob_id : {4, 5}) {
      ASSERT_TRUE((*engine)->PutBlobAtomic(blob_id, blob(blob_id)).ok());
    }
    for (BlobId blob_id : {2, 3, 4, 5}) {
      auto got = (*engine)->blobs()->Get(blob_id);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(*got == blob(blob_id)) << "blob " << blob_id;
    }
  }
}

}  // namespace
}  // namespace heaven
