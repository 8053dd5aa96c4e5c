#include "common/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/coding.h"

namespace heaven {

namespace {

Status ErrnoStatus(const std::string& context) {
  return Status::IOError(context + ": " + std::strerror(errno));
}

/// POSIX pread/pwrite-backed file.
class PosixFile : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status ReadAt(uint64_t offset, size_t n, std::string* out) override {
    out->resize(n);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, out->data() + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread");
      }
      if (r == 0) return Status::Corruption("short read past EOF");
      got += static_cast<size_t>(r);
    }
    return Status::Ok();
  }

  Status WriteAt(uint64_t offset, std::string_view data) override {
    size_t put = 0;
    while (put < data.size()) {
      ssize_t w = ::pwrite(fd_, data.data() + put, data.size() - put,
                           static_cast<off_t>(offset + put));
      if (w < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pwrite");
      }
      put += static_cast<size_t>(w);
    }
    return Status::Ok();
  }

  Status Append(std::string_view data) override {
    HEAVEN_ASSIGN_OR_RETURN(uint64_t size, Size());
    return WriteAt(size, data);
  }

  Result<uint64_t> Size() override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return ErrnoStatus("fstat");
    return static_cast<uint64_t>(st.st_size);
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate");
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync");
    return Status::Ok();
  }

 private:
  int fd_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) return ErrnoStatus("open " + path);
    return std::unique_ptr<File>(new PosixFile(fd));
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink " + path);
    return Status::Ok();
  }

  Status CreateDirIfMissing(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) return Status::IOError("mkdir " + path + ": " + ec.message());
    return Status::Ok();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec) return Status::IOError("listdir " + path + ": " + ec.message());
    return names;
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat " + path);
    return static_cast<uint64_t>(st.st_size);
  }
};

/// File handle over a MemEnv entry; the backing buffer is shared so
/// concurrently opened handles observe each other's writes (like POSIX).
class MemFile : public File {
 public:
  explicit MemFile(std::shared_ptr<MemEnv::FileData> data)
      : data_(std::move(data)) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) override {
    MutexLock lock(data_->mu);
    if (offset + n > data_->contents.size()) {
      return Status::Corruption("short read past EOF");
    }
    out->assign(data_->contents, offset, n);
    return Status::Ok();
  }

  Status WriteAt(uint64_t offset, std::string_view data) override {
    MutexLock lock(data_->mu);
    if (offset + data.size() > data_->contents.size()) {
      data_->contents.resize(offset + data.size(), '\0');
    }
    data_->contents.replace(offset, data.size(), data);
    return Status::Ok();
  }

  Status Append(std::string_view data) override {
    MutexLock lock(data_->mu);
    data_->contents.append(data);
    return Status::Ok();
  }

  Result<uint64_t> Size() override {
    MutexLock lock(data_->mu);
    return static_cast<uint64_t>(data_->contents.size());
  }

  Status Truncate(uint64_t size) override {
    MutexLock lock(data_->mu);
    data_->contents.resize(size, '\0');
    return Status::Ok();
  }

  Status Sync() override { return Status::Ok(); }

 private:
  std::shared_ptr<MemEnv::FileData> data_;
};

/// Durably replaces the whole file with `contents`.
Status Overwrite(File* file, std::string_view contents) {
  HEAVEN_RETURN_IF_ERROR(file->Truncate(0));
  HEAVEN_RETURN_IF_ERROR(file->WriteAt(0, contents));
  return file->Sync();
}

}  // namespace

Result<std::string> File::ReadAll() {
  HEAVEN_ASSIGN_OR_RETURN(uint64_t size, Size());
  std::string contents;
  if (size > 0) HEAVEN_RETURN_IF_ERROR(ReadAt(0, size, &contents));
  return contents;
}

Status ReplaceFileContents(Env* env, const std::string& path,
                           std::string_view image) {
  const std::string side_path = path + ".rewrite";
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> side, env->OpenFile(side_path));
  HEAVEN_RETURN_IF_ERROR(Overwrite(side.get(), Framed(image)));
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->OpenFile(path));
  HEAVEN_RETURN_IF_ERROR(Overwrite(file.get(), image));
  return env->DeleteFile(side_path);
}

Result<std::string> RecoverFileReplace(Env* env, const std::string& path) {
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->OpenFile(path));
  HEAVEN_ASSIGN_OR_RETURN(std::string contents, file->ReadAll());
  const std::string side_path = path + ".rewrite";
  if (!env->FileExists(side_path)) return contents;
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> side, env->OpenFile(side_path));
  HEAVEN_ASSIGN_OR_RETURN(const std::string framed, side->ReadAll());
  std::string_view image;
  // A torn side image means the replace never touched `path`.
  if (Decoder(framed).GetFramed(&image).ok() && !contents.starts_with(image)) {
    contents = image;
    HEAVEN_RETURN_IF_ERROR(Overwrite(file.get(), contents));
  }
  HEAVEN_RETURN_IF_ERROR(env->DeleteFile(side_path));
  return contents;
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

Result<std::unique_ptr<File>> MemEnv::OpenFile(const std::string& path) {
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    it = files_.emplace(path, std::make_shared<FileData>()).first;
  }
  return std::unique_ptr<File>(new MemFile(it->second));
}

bool MemEnv::FileExists(const std::string& path) {
  MutexLock lock(mu_);
  return files_.count(path) > 0;
}

Status MemEnv::DeleteFile(const std::string& path) {
  MutexLock lock(mu_);
  if (files_.erase(path) == 0) return Status::NotFound(path);
  return Status::Ok();
}

Status MemEnv::CreateDirIfMissing(const std::string& path) {
  (void)path;  // Directories are implicit in the flat in-memory namespace.
  return Status::Ok();
}

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& path) {
  MutexLock lock(mu_);
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix.push_back('/');
  std::vector<std::string> names;
  for (const auto& [name, data] : files_) {
    if (name.rfind(prefix, 0) == 0) {
      names.push_back(name.substr(prefix.size()));
    }
  }
  return names;
}

Result<uint64_t> MemEnv::GetFileSize(const std::string& path) {
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  MutexLock file_lock(it->second->mu);
  return static_cast<uint64_t>(it->second->contents.size());
}

}  // namespace heaven
