#include "common/fault_injection.h"

#include <algorithm>

#include "common/logging.h"

namespace heaven {

std::string FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kTapeRead:
      return "tape_read";
    case FaultSite::kTapeWrite:
      return "tape_write";
    case FaultSite::kExchangeJam:
      return "exchange_jam";
    case FaultSite::kDriveFailure:
      return "drive_failure";
    case FaultSite::kBitRot:
      return "bit_rot";
    case FaultSite::kEnvWrite:
      return "env_write";
    case FaultSite::kEnvSync:
      return "env_sync";
    case FaultSite::kTornWrite:
      return "torn_write";
    case FaultSite::kNumSites:
      break;
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultPolicy& policy, Statistics* stats)
    : policy_(policy), stats_(stats) {
  const int num_sites = static_cast<int>(FaultSite::kNumSites);
  rngs_.reserve(num_sites);
  injected_by_site_.assign(num_sites, 0);
  for (int site = 0; site < num_sites; ++site) {
    // One independent stream per site: SplitMix64 seeding in Rng decorrelates
    // the nearby seeds.
    rngs_.emplace_back(policy_.seed * 0x9e3779b97f4a7c15ULL +
                       static_cast<uint64_t>(site) + 1);
  }
}

double FaultInjector::SiteProbability(FaultSite site) const {
  switch (site) {
    case FaultSite::kTapeRead:
      return policy_.tape_read_error_p;
    case FaultSite::kTapeWrite:
      return policy_.tape_write_error_p;
    case FaultSite::kExchangeJam:
      return policy_.exchange_jam_p;
    case FaultSite::kDriveFailure:
      return policy_.drive_failure_p;
    case FaultSite::kBitRot:
      return policy_.bit_rot_p;
    case FaultSite::kEnvWrite:
      return policy_.env_write_error_p;
    case FaultSite::kEnvSync:
      return policy_.env_sync_error_p;
    case FaultSite::kTornWrite:
      return policy_.torn_write_p;
    case FaultSite::kNumSites:
      break;
  }
  return 0.0;
}

bool FaultInjector::ShouldFail(FaultSite site) {
  if (!policy_.enabled) return false;
  const double p = SiteProbability(site);
  if (p <= 0.0) return false;  // never touches the stream
  MutexLock lock(mu_);
  if (policy_.max_faults != 0 && injected_ >= policy_.max_faults) return false;
  if (rngs_[static_cast<int>(site)].NextDouble() >= p) return false;
  ++injected_;
  ++injected_by_site_[static_cast<int>(site)];
  if (stats_ != nullptr) stats_->Record(Ticker::kFaultsInjected);
  return true;
}

uint64_t FaultInjector::Draw(FaultSite site, uint64_t bound) {
  MutexLock lock(mu_);
  return rngs_[static_cast<int>(site)].Uniform(bound);
}

uint64_t FaultInjector::injected() const {
  MutexLock lock(mu_);
  return injected_;
}

uint64_t FaultInjector::injected_at(FaultSite site) const {
  MutexLock lock(mu_);
  const size_t index = static_cast<size_t>(site);
  return index < injected_by_site_.size() ? injected_by_site_[index] : 0;
}

// ---------------------------------------------------- FaultInjectionEnv --

namespace {

/// File handle routing writes through the owning env's fault decisions.
class FaultInjectionFile : public File {
 public:
  FaultInjectionFile(std::unique_ptr<File> base, FaultInjectionEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) override {
    return base_->ReadAt(offset, n, out);
  }

  Status WriteAt(uint64_t offset, std::string_view data) override {
    size_t allowed_prefix = 0;
    Status status = env_->CheckWrite(data.size(), &allowed_prefix);
    if (status.ok()) return base_->WriteAt(offset, data);
    if (allowed_prefix > 0) {
      // The torn prefix reaches the platter before the failure surfaces.
      (void)base_->WriteAt(offset, data.substr(0, allowed_prefix));
    }
    return status;
  }

  Status Append(std::string_view data) override {
    size_t allowed_prefix = 0;
    Status status = env_->CheckWrite(data.size(), &allowed_prefix);
    if (status.ok()) return base_->Append(data);
    if (allowed_prefix > 0) {
      (void)base_->Append(data.substr(0, allowed_prefix));
    }
    return status;
  }

  Result<uint64_t> Size() override { return base_->Size(); }

  Status Truncate(uint64_t size) override {
    // All or nothing: a truncate at the limit never happens.
    size_t torn_prefix = 0;
    HEAVEN_RETURN_IF_ERROR(
        env_->CheckWrite(0, &torn_prefix, /*random_faults=*/false));
    return base_->Truncate(size);
  }

  Status Sync() override {
    HEAVEN_RETURN_IF_ERROR(env_->CheckSync());
    return base_->Sync();
  }

 private:
  std::unique_ptr<File> base_;
  FaultInjectionEnv* env_;
};

}  // namespace

FaultInjectionEnv::FaultInjectionEnv(Env* base, const FaultPolicy& policy,
                                     Statistics* stats)
    : base_(base), injector_(policy, stats) {}

Result<std::unique_ptr<File>> FaultInjectionEnv::OpenFile(
    const std::string& path) {
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, base_->OpenFile(path));
  return std::unique_ptr<File>(
      new FaultInjectionFile(std::move(file), this));
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  size_t torn_prefix = 0;  // all or nothing, like a truncate
  HEAVEN_RETURN_IF_ERROR(CheckWrite(0, &torn_prefix, /*random_faults=*/false));
  return base_->DeleteFile(path);
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& path) {
  return base_->CreateDirIfMissing(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& path) {
  return base_->ListDir(path);
}

Result<uint64_t> FaultInjectionEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}

void FaultInjectionEnv::SetWriteLimit(uint64_t remaining_writes) {
  MutexLock lock(mu_);
  has_limit_ = true;
  remaining_writes_ = remaining_writes;
}

void FaultInjectionEnv::ClearWriteLimit() {
  MutexLock lock(mu_);
  has_limit_ = false;
  remaining_writes_ = 0;
}

uint64_t FaultInjectionEnv::writes_issued() const {
  MutexLock lock(mu_);
  return writes_issued_;
}

Status FaultInjectionEnv::CheckWrite(size_t n, size_t* allowed_prefix,
                                     bool random_faults) {
  *allowed_prefix = 0;
  {
    MutexLock lock(mu_);
    ++writes_issued_;
    if (has_limit_) {
      if (remaining_writes_ == 0) {
        return Status::IOError("injected crash: write limit exhausted");
      }
      --remaining_writes_;
      if (remaining_writes_ == 0) {
        // The boundary write is torn: half of it survives the "power cut".
        *allowed_prefix = n / 2;
        return Status::IOError("injected crash: torn write at limit");
      }
      return Status::Ok();
    }
  }
  if (!random_faults) return Status::Ok();
  if (injector_.ShouldFail(FaultSite::kTornWrite)) {
    *allowed_prefix = n > 0 ? injector_.Draw(FaultSite::kTornWrite, n) : 0;
    return Status::IOError("injected torn write");
  }
  if (injector_.ShouldFail(FaultSite::kEnvWrite)) {
    return Status::IOError("injected filesystem write error");
  }
  return Status::Ok();
}

Status FaultInjectionEnv::CheckSync() {
  {
    MutexLock lock(mu_);
    if (has_limit_ && remaining_writes_ == 0) {
      return Status::IOError("injected crash: sync after write limit");
    }
  }
  if (injector_.ShouldFail(FaultSite::kEnvSync)) {
    return Status::IOError("injected fsync error");
  }
  return Status::Ok();
}

}  // namespace heaven
