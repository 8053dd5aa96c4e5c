#ifndef HEAVEN_COMMON_ENV_H_
#define HEAVEN_COMMON_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace heaven {

/// Random-access file handle. Offsets are absolute; files grow on writes
/// past the end.
class File {
 public:
  virtual ~File() = default;

  /// Reads exactly `n` bytes at `offset` into `out`; Corruption on short
  /// read past EOF.
  virtual Status ReadAt(uint64_t offset, size_t n, std::string* out) = 0;
  virtual Status WriteAt(uint64_t offset, std::string_view data) = 0;
  virtual Status Append(std::string_view data) = 0;
  virtual Result<uint64_t> Size() = 0;
  virtual Status Truncate(uint64_t size) = 0;
  virtual Status Sync() = 0;

  /// The whole file.
  Result<std::string> ReadAll();
};

/// Filesystem abstraction so the storage engine runs against the real
/// filesystem in production and an in-memory one in tests/benchmarks
/// (mirrors the RocksDB Env idiom).
class Env {
 public:
  virtual ~Env() = default;

  /// Opens (creating if absent) a read/write file.
  virtual Result<std::unique_ptr<File>> OpenFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual Status CreateDirIfMissing(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;

  /// Process-wide POSIX environment.
  static Env* Default();
};

/// Crash-safe whole-file replace. `Env` has no rename, so `image` first
/// becomes durable as one Framed frame in the side file
/// `<path>.rewrite`; then `path` is overwritten with it and the side file
/// deleted. Once RecoverFileReplace has run, a crash at any point leaves
/// `path` holding either its old contents or `image`.
Status ReplaceFileContents(Env* env, const std::string& path,
                           std::string_view image);

/// Reads `path` (created empty if absent), first rolling an interrupted
/// ReplaceFileContents of it forward: an intact side image is adopted
/// unless `path` already begins with it (the replace finished, and `path`
/// may have been appended to since); then the side file is deleted.
Result<std::string> RecoverFileReplace(Env* env, const std::string& path);

/// In-memory Env for tests and simulation-backed benchmarks; contents live
/// for the lifetime of the MemEnv object.
class MemEnv : public Env {
 public:
  MemEnv() = default;

  Result<std::unique_ptr<File>> OpenFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;

  /// Shared backing buffer of one in-memory file (public so file handles in
  /// the implementation can reference it).
  struct FileData {
    Mutex mu;  // analyze: leaf-lock
    std::string contents GUARDED_BY(mu);
  };

 private:
  Mutex mu_ ACQUIRED_BEFORE("MemEnv::FileData::mu");
  std::map<std::string, std::shared_ptr<FileData>> files_ GUARDED_BY(mu_);
};

}  // namespace heaven

#endif  // HEAVEN_COMMON_ENV_H_
