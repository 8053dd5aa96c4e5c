#include <gtest/gtest.h>

#include <memory>

#include "common/env.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/storage_engine.h"

namespace heaven {
namespace {

class DiskManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(&env_, "/pages.db", &stats_);
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(dm).value();
  }

  MemEnv env_;
  Statistics stats_;
  std::unique_ptr<DiskManager> disk_;
};

TEST_F(DiskManagerTest, AllocateReadWrite) {
  auto page = disk_->AllocatePage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(*page, 1u);
  std::string data(kPageSize, 'a');
  ASSERT_TRUE(disk_->WritePage(*page, data).ok());
  std::string out;
  ASSERT_TRUE(disk_->ReadPage(*page, &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(stats_.Get(Ticker::kDiskPageReads), 1u);
  EXPECT_EQ(stats_.Get(Ticker::kDiskPageWrites), 1u);
}

TEST_F(DiskManagerTest, FreedPagesAreReused) {
  auto a = disk_->AllocatePage();
  auto b = disk_->AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(disk_->FreePage(*a).ok());
  auto c = disk_->AllocatePage();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);
  EXPECT_EQ(disk_->NumPages(), 2u);
}

TEST_F(DiskManagerTest, RejectsBadPageIds) {
  std::string out;
  EXPECT_FALSE(disk_->ReadPage(0, &out).ok());     // header page
  EXPECT_FALSE(disk_->ReadPage(99, &out).ok());    // never allocated
  EXPECT_FALSE(disk_->WritePage(1, "short").ok()); // wrong size
  EXPECT_FALSE(disk_->FreePage(0).ok());
}

TEST_F(DiskManagerTest, StatePersistsAcrossReopen) {
  auto a = disk_->AllocatePage();
  auto b = disk_->AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());
  std::string data(kPageSize, 'z');
  ASSERT_TRUE(disk_->WritePage(*b, data).ok());
  ASSERT_TRUE(disk_->FreePage(*a).ok());
  disk_.reset();

  auto reopened = DiskManager::Open(&env_, "/pages.db", &stats_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->NumPages(), 2u);
  std::string out;
  ASSERT_TRUE((*reopened)->ReadPage(*b, &out).ok());
  EXPECT_EQ(out, data);
  // The free list is not persisted: the file reopens with every page free
  // until their owner claims its own (the blob store, from the directory a
  // checkpoint restores — see StorageRecoveryTest).
  (*reopened)->ResetFreeList({*b});
  auto c = (*reopened)->AllocatePage();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);
  auto d = (*reopened)->AllocatePage();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 3u);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(&env_, "/pages.db", &stats_);
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(dm).value();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 4, &stats_);
    for (int i = 0; i < 8; ++i) {
      auto page = disk_->AllocatePage();
      ASSERT_TRUE(page.ok());
      pages_.push_back(*page);
    }
  }

  MemEnv env_;
  Statistics stats_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::vector<PageId> pages_;
};

TEST_F(BufferPoolTest, FetchCachesPage) {
  {
    auto h = pool_->Fetch(pages_[0]);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(stats_.Get(Ticker::kBufferPoolMisses), 1u);
  {
    auto h = pool_->Fetch(pages_[0]);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(stats_.Get(Ticker::kBufferPoolHits), 1u);
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  {
    auto h = pool_->Fetch(pages_[0]);
    ASSERT_TRUE(h.ok());
    h->data()[0] = 'Q';
    h->MarkDirty();
  }
  // Fill the pool to evict page 0.
  for (int i = 1; i <= 4; ++i) {
    auto h = pool_->Fetch(pages_[static_cast<size_t>(i)]);
    ASSERT_TRUE(h.ok());
  }
  std::string out;
  ASSERT_TRUE(disk_->ReadPage(pages_[0], &out).ok());
  EXPECT_EQ(out[0], 'Q');
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  std::vector<PageHandle> pinned;
  for (int i = 0; i < 4; ++i) {
    auto h = pool_->Fetch(pages_[static_cast<size_t>(i)]);
    ASSERT_TRUE(h.ok());
    pinned.push_back(std::move(h).value());
  }
  auto overflow = pool_->Fetch(pages_[4]);
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  pinned.clear();
  auto ok_now = pool_->Fetch(pages_[4]);
  EXPECT_TRUE(ok_now.ok());
}

TEST_F(BufferPoolTest, LruEvictsOldestUnpinned) {
  for (int i = 0; i < 4; ++i) {
    auto h = pool_->Fetch(pages_[static_cast<size_t>(i)]);
    ASSERT_TRUE(h.ok());
  }
  // Touch page 0 so page 1 becomes LRU.
  { auto h = pool_->Fetch(pages_[0]); ASSERT_TRUE(h.ok()); }
  { auto h = pool_->Fetch(pages_[5]); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool_->cached_pages(), 4u);
  // Page 0 should still be cached (a hit), page 1 evicted (a miss).
  const uint64_t misses = stats_.Get(Ticker::kBufferPoolMisses);
  { auto h = pool_->Fetch(pages_[0]); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(stats_.Get(Ticker::kBufferPoolMisses), misses);
  { auto h = pool_->Fetch(pages_[1]); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(stats_.Get(Ticker::kBufferPoolMisses), misses + 1);
}

TEST_F(BufferPoolTest, FlushAllPersistsDirtyPages) {
  {
    auto h = pool_->Fetch(pages_[2]);
    ASSERT_TRUE(h.ok());
    h->data()[7] = 'Z';
    h->MarkDirty();
  }
  ASSERT_TRUE(pool_->FlushAll().ok());
  std::string out;
  ASSERT_TRUE(disk_->ReadPage(pages_[2], &out).ok());
  EXPECT_EQ(out[7], 'Z');
}

TEST_F(BufferPoolTest, MoveSemanticsOfHandle) {
  auto h = pool_->Fetch(pages_[0]);
  ASSERT_TRUE(h.ok());
  PageHandle moved = std::move(h).value();
  EXPECT_TRUE(moved.valid());
  PageHandle assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.valid());
  EXPECT_FALSE(moved.valid());  // NOLINT(bugprone-use-after-move)
  assigned.Release();
  EXPECT_FALSE(assigned.valid());
}

class BlobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(&env_, "/pages.db", &stats_);
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(dm).value();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 64, &stats_);
    blobs_ = std::make_unique<BlobStore>(disk_.get(), pool_.get());
  }

  MemEnv env_;
  Statistics stats_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BlobStore> blobs_;
};

TEST_F(BlobStoreTest, PutGetRoundTrip) {
  const std::string data = "some tile payload";
  ASSERT_TRUE(blobs_->Put(1, data).ok());
  auto out = blobs_->Get(1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
  EXPECT_TRUE(blobs_->Exists(1));
  auto size = blobs_->BlobSize(1);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, data.size());
}

TEST_F(BlobStoreTest, MultiPageBlob) {
  std::string data(3 * kPageSize + 123, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i % 251);
  }
  ASSERT_TRUE(blobs_->Put(5, data).ok());
  auto out = blobs_->Get(5);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
}

TEST_F(BlobStoreTest, EmptyBlob) {
  ASSERT_TRUE(blobs_->Put(9, "").ok());
  auto out = blobs_->Get(9);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST_F(BlobStoreTest, OverwriteReplacesContents) {
  ASSERT_TRUE(blobs_->Put(1, std::string(2 * kPageSize, 'a')).ok());
  const uint64_t pages_before = disk_->NumPages();
  ASSERT_TRUE(blobs_->Put(1, "tiny").ok());
  auto out = blobs_->Get(1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "tiny");
  // Freed pages get reused; no growth needed for the smaller blob.
  EXPECT_EQ(disk_->NumPages(), pages_before);
}

TEST_F(BlobStoreTest, DeleteFreesPages) {
  ASSERT_TRUE(blobs_->Put(1, std::string(4 * kPageSize, 'x')).ok());
  const uint64_t pages_before = disk_->NumPages();
  ASSERT_TRUE(blobs_->Delete(1).ok());
  EXPECT_FALSE(blobs_->Exists(1));
  EXPECT_FALSE(blobs_->Get(1).ok());
  // New blob reuses the freed pages.
  ASSERT_TRUE(blobs_->Put(2, std::string(4 * kPageSize, 'y')).ok());
  EXPECT_EQ(disk_->NumPages(), pages_before);
}

TEST_F(BlobStoreTest, NextBlobIdMonotonic) {
  BlobId a = blobs_->NextBlobId();
  BlobId b = blobs_->NextBlobId();
  EXPECT_LT(a, b);
  ASSERT_TRUE(blobs_->Put(100, "data").ok());
  EXPECT_GT(blobs_->NextBlobId(), 100u);
}

TEST_F(BlobStoreTest, DirectorySerializeRestore) {
  ASSERT_TRUE(blobs_->Put(1, "alpha").ok());
  ASSERT_TRUE(blobs_->Put(2, std::string(kPageSize + 5, 'b')).ok());
  const std::string image = blobs_->SerializeDirectory();

  BlobStore other(disk_.get(), pool_.get());
  ASSERT_TRUE(other.RestoreDirectory(image).ok());
  EXPECT_EQ(other.NumBlobs(), 2u);
  auto a = other.Get(1);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "alpha");
  auto b = other.Get(2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), kPageSize + 5);
}

TEST_F(BlobStoreTest, RestoreRejectsTruncatedImage) {
  ASSERT_TRUE(blobs_->Put(1, "alpha").ok());
  std::string image = blobs_->SerializeDirectory();
  image.resize(image.size() / 2);
  BlobStore other(disk_.get(), pool_.get());
  EXPECT_FALSE(other.RestoreDirectory(image).ok());
}

// ------------------------------------------------- free-list recovery --

/// `n` pages' worth of `fill`.
std::string Pages(size_t n, char fill) {
  return std::string(n * kPageSize, fill);
}

class StorageRecoveryTest : public ::testing::Test {
 protected:
  std::unique_ptr<StorageEngine> Open() {
    auto engine = StorageEngine::Open(&env_, "/db", StorageOptions{}, &stats_);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  void ExpectBlob(StorageEngine* engine, BlobId blob_id, char fill) {
    auto got = engine->blobs()->Get(blob_id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(*got == Pages(1, fill)) << "blob " << blob_id;
  }

  MemEnv env_;
  Statistics stats_;
};

// The free list is derived at the reopen: a page freed before the close is
// reused instead of the page file growing.
TEST_F(StorageRecoveryTest, FreedPageIsReusedAfterReopen) {
  {
    auto engine = Open();
    ASSERT_NE(engine, nullptr);
    ASSERT_TRUE(engine->PutBlobAtomic(1, Pages(1, 'a')).ok());
    ASSERT_TRUE(engine->PutBlobAtomic(2, Pages(1, 'b')).ok());
    std::unique_ptr<Transaction> txn = engine->Begin();
    txn->DeleteBlob(1);
    ASSERT_TRUE(txn->Commit().ok());
  }
  const uint64_t size = env_.GetFileSize("/db/pages.db").value();
  auto engine = Open();
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(engine->PutBlobAtomic(3, Pages(1, 'c')).ok());
  EXPECT_EQ(env_.GetFileSize("/db/pages.db").value(), size);
  ExpectBlob(engine.get(), 2, 'b');
  ExpectBlob(engine.get(), 3, 'c');
}

// Blob 1's pages are freed after the checkpoint that still lists them; the
// reopen replays that free and must not free them twice, or blobs 2 and 3
// get the same page.
TEST_F(StorageRecoveryTest, PagesFreedAfterACheckpointAreReusedOnce) {
  {
    auto engine = Open();
    ASSERT_NE(engine, nullptr);
    ASSERT_TRUE(engine->PutBlobAtomic(1, Pages(1, '1')).ok());
    ASSERT_TRUE(engine->PutBlobAtomic(4, Pages(1, '4')).ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    std::unique_ptr<Transaction> txn = engine->Begin();
    txn->DeleteBlob(1);
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto engine = Open();
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(engine->PutBlobAtomic(2, Pages(1, '2')).ok());
  ASSERT_TRUE(engine->PutBlobAtomic(3, Pages(1, '3')).ok());
  EXPECT_FALSE(engine->blobs()->Exists(1));
  ExpectBlob(engine.get(), 2, '2');
  ExpectBlob(engine.get(), 3, '3');
  ExpectBlob(engine.get(), 4, '4');
}

}  // namespace
}  // namespace heaven
