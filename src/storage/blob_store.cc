#include "storage/blob_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace heaven {

BlobStore::BlobStore(DiskManager* disk, BufferPool* pool)
    : disk_(disk), pool_(pool) {}

Status BlobStore::Put(BlobId blob_id, std::string_view data) {
  MutexLock lock(mu_);
  return PutLocked(blob_id, data);
}

Status BlobStore::PutLocked(BlobId blob_id, std::string_view data) {
  if (blobs_.count(blob_id) > 0) {
    HEAVEN_RETURN_IF_ERROR(DeleteLocked(blob_id));
  }
  BlobMeta meta;
  meta.size = data.size();
  const size_t num_pages = (data.size() + kPageSize - 1) / kPageSize;
  meta.pages.reserve(num_pages);
  for (size_t i = 0; i < num_pages; ++i) {
    HEAVEN_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
    HEAVEN_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(page_id));
    const size_t offset = i * kPageSize;
    const size_t n = std::min(kPageSize, data.size() - offset);
    handle.data().assign(data.data() + offset, n);
    handle.data().resize(kPageSize, '\0');
    handle.MarkDirty();
    meta.pages.push_back(page_id);
  }
  blobs_[blob_id] = std::move(meta);
  next_blob_id_ = std::max(next_blob_id_, blob_id + 1);
  return Status::Ok();
}

Result<std::string> BlobStore::Get(BlobId blob_id) const {
  MutexLock lock(mu_);
  auto it = blobs_.find(blob_id);
  if (it == blobs_.end()) {
    return Status::NotFound("blob " + std::to_string(blob_id));
  }
  const BlobMeta& meta = it->second;
  std::string out;
  out.reserve(meta.size);
  for (size_t i = 0; i < meta.pages.size(); ++i) {
    HEAVEN_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(meta.pages[i]));
    const size_t n = std::min(kPageSize, meta.size - i * kPageSize);
    out.append(handle.data().data(), n);
  }
  return out;
}

Status BlobStore::Delete(BlobId blob_id) {
  MutexLock lock(mu_);
  return DeleteLocked(blob_id);
}

Status BlobStore::DeleteLocked(BlobId blob_id) {
  auto it = blobs_.find(blob_id);
  if (it == blobs_.end()) {
    return Status::NotFound("blob " + std::to_string(blob_id));
  }
  for (PageId page_id : it->second.pages) {
    pool_->Evict(page_id);
    HEAVEN_RETURN_IF_ERROR(disk_->FreePage(page_id));
  }
  blobs_.erase(it);
  return Status::Ok();
}

bool BlobStore::Exists(BlobId blob_id) const {
  MutexLock lock(mu_);
  return blobs_.count(blob_id) > 0;
}

BlobId BlobStore::NextBlobId() {
  MutexLock lock(mu_);
  return next_blob_id_++;
}

Result<uint64_t> BlobStore::BlobSize(BlobId blob_id) const {
  MutexLock lock(mu_);
  auto it = blobs_.find(blob_id);
  if (it == blobs_.end()) {
    return Status::NotFound("blob " + std::to_string(blob_id));
  }
  return it->second.size;
}

size_t BlobStore::NumBlobs() const {
  MutexLock lock(mu_);
  return blobs_.size();
}

uint64_t BlobStore::TotalBytes() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [blob_id, meta] : blobs_) total += meta.size;
  return total;
}

std::string BlobStore::SerializeDirectory() const {
  MutexLock lock(mu_);
  std::string out;
  PutFixed64(&out, next_blob_id_);
  PutFixed64(&out, blobs_.size());
  for (const auto& [blob_id, meta] : blobs_) {
    PutFixed64(&out, blob_id);
    PutFixed64(&out, meta.size);
    PutFixed64(&out, meta.pages.size());
    for (PageId page_id : meta.pages) PutFixed64(&out, page_id);
  }
  return out;
}

Status BlobStore::RestoreDirectory(std::string_view image) {
  MutexLock lock(mu_);
  Decoder dec(image);
  uint64_t next_id = 0;
  uint64_t count = 0;
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&next_id));
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&count));
  std::map<BlobId, BlobMeta> blobs;
  std::vector<PageId> in_use;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t blob_id = 0;
    BlobMeta meta;
    uint64_t num_pages = 0;
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&blob_id));
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&meta.size));
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&num_pages));
    meta.pages.reserve(num_pages);
    for (uint64_t p = 0; p < num_pages; ++p) {
      uint64_t page_id = 0;
      HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&page_id));
      meta.pages.push_back(page_id);
    }
    in_use.insert(in_use.end(), meta.pages.begin(), meta.pages.end());
    blobs.emplace(blob_id, std::move(meta));
  }
  blobs_ = std::move(blobs);
  next_blob_id_ = next_id;
  disk_->ResetFreeList(in_use);
  return Status::Ok();
}

}  // namespace heaven
