#include "storage/disk_manager.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace heaven {

namespace {
constexpr uint64_t kMagic = 0x4845415645303144ULL;  // "HEAVE01D"
}  // namespace

DiskManager::DiskManager(std::unique_ptr<File> file, uint64_t num_pages,
                         Statistics* stats)
    : file_(std::move(file)), stats_(stats), num_pages_(num_pages) {}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(
    Env* env, const std::string& path, Statistics* stats) {
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->OpenFile(path));
  HEAVEN_ASSIGN_OR_RETURN(const uint64_t size, file->Size());
  std::string header;
  if (size == 0) {
    PutFixed64(&header, kMagic);
    header.resize(kPageSize, '\0');
    HEAVEN_RETURN_IF_ERROR(file->WriteAt(0, header));
  } else {
    HEAVEN_RETURN_IF_ERROR(file->ReadAt(0, 8, &header));
    if (DecodeFixed64(header.data()) != kMagic) {
      return Status::Corruption("bad page file magic");
    }
  }
  // A page whose extension was cut short is not one: it is reallocated.
  std::unique_ptr<DiskManager> dm(new DiskManager(
      std::move(file), std::max<uint64_t>(size / kPageSize, 1) - 1, stats));
  dm->ResetFreeList({});
  return dm;
}

Result<PageId> DiskManager::AllocatePage() {
  MutexLock lock(mu_);
  PageId page_id;
  if (!free_list_.empty()) {
    page_id = free_list_.back();
    free_list_.pop_back();
  } else {
    page_id = ++num_pages_;
    // Extend the file so reads of fresh pages succeed.
    std::string zeros(kPageSize, '\0');
    HEAVEN_RETURN_IF_ERROR(file_->WriteAt(page_id * kPageSize, zeros));
  }
  return page_id;
}

Status DiskManager::FreePage(PageId page_id) {
  MutexLock lock(mu_);
  if (page_id == 0 || page_id > num_pages_) {
    return Status::InvalidArgument("FreePage: bad page id");
  }
  free_list_.push_back(page_id);
  return Status::Ok();
}

void DiskManager::ResetFreeList(const std::vector<PageId>& in_use) {
  MutexLock lock(mu_);
  for (PageId page_id : in_use) num_pages_ = std::max(num_pages_, page_id);
  std::vector<bool> used(num_pages_ + 1, false);
  for (PageId page_id : in_use) used[page_id] = true;
  free_list_.clear();
  // Descending, so allocation hands out the lowest free page first.
  for (PageId page_id = num_pages_; page_id >= 1; --page_id) {
    if (!used[page_id]) free_list_.push_back(page_id);
  }
}

Status DiskManager::ReadPage(PageId page_id, std::string* out) {
  {
    MutexLock lock(mu_);
    if (page_id == 0 || page_id > num_pages_) {
      return Status::InvalidArgument("ReadPage: bad page id " +
                                     std::to_string(page_id));
    }
  }
  if (stats_ != nullptr) {
    stats_->Record(Ticker::kDiskPageReads);
    stats_->RecordHistogram(HistogramKind::kDiskPageIoBytes,
                            static_cast<double>(kPageSize));
  }
  return file_->ReadAt(page_id * kPageSize, kPageSize, out);
}

Status DiskManager::WritePage(PageId page_id, std::string_view data) {
  if (data.size() != kPageSize) {
    return Status::InvalidArgument("WritePage: data must be one page");
  }
  {
    MutexLock lock(mu_);
    if (page_id == 0 || page_id > num_pages_) {
      return Status::InvalidArgument("WritePage: bad page id");
    }
  }
  if (stats_ != nullptr) {
    stats_->Record(Ticker::kDiskPageWrites);
    stats_->RecordHistogram(HistogramKind::kDiskPageIoBytes,
                            static_cast<double>(data.size()));
  }
  return file_->WriteAt(page_id * kPageSize, data);
}

Status DiskManager::Sync() { return file_->Sync(); }

uint64_t DiskManager::NumPages() const {
  MutexLock lock(mu_);
  return num_pages_;
}

}  // namespace heaven
