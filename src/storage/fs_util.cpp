#include "storage/fs_util.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace zab::storage {

namespace {
std::string errno_msg(const std::string& what) {
  return what + ": " + std::strerror(errno);
}
}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status make_dirs(const std::string& path) {
  std::string cur;
  for (std::size_t i = 0; i < path.size(); ++i) {
    cur += path[i];
    if (path[i] == '/' || i + 1 == path.size()) {
      if (cur == "/" || cur.empty()) continue;
      if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::io_error(errno_msg("mkdir " + cur));
      }
    }
  }
  return Status::ok();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

Result<std::vector<std::string>> list_dir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::io_error(errno_msg("opendir " + dir));
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) {
    const std::string n = e->d_name;
    if (n != "." && n != "..") names.push_back(n);
  }
  ::closedir(d);
  return names;
}

Result<Bytes> read_file(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) return Status::io_error(errno_msg("open " + path));
  Bytes out;
  struct stat st {};
  if (::fstat(fd.get(), &st) == 0) out.reserve(static_cast<std::size_t>(st.st_size));
  std::uint8_t buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::io_error(errno_msg("read " + path));
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

Status atomic_write_file(const std::string& path,
                         std::span<const std::uint8_t> data, bool do_fsync) {
  const std::string tmp = path + ".tmp";
  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (!fd.valid()) return Status::io_error(errno_msg("open " + tmp));
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd.get(), data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::io_error(errno_msg("write " + tmp));
      }
      off += static_cast<std::size_t>(n);
    }
    if (do_fsync && ::fsync(fd.get()) != 0) {
      return Status::io_error(errno_msg("fsync " + tmp));
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::io_error(errno_msg("rename " + tmp));
  }
  if (do_fsync) {
    const auto slash = path.find_last_of('/');
    if (slash != std::string::npos) {
      ZAB_RETURN_IF_ERROR(fsync_dir(path.substr(0, slash)));
    }
  }
  return Status::ok();
}

Status remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::io_error(errno_msg("unlink " + path));
  }
  return Status::ok();
}

Status fsync_dir(const std::string& dir) {
  Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (!fd.valid()) return Status::io_error(errno_msg("open dir " + dir));
  if (::fsync(fd.get()) != 0) {
    return Status::io_error(errno_msg("fsync dir " + dir));
  }
  return Status::ok();
}

Status truncate_file(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::io_error(errno_msg("truncate " + path));
  }
  return Status::ok();
}

Status remove_dir_recursive(const std::string& dir) {
  auto entries = list_dir(dir);
  if (!entries.is_ok()) return entries.status();
  for (const auto& name : entries.value()) {
    const std::string p = dir + "/" + name;
    struct stat st {};
    if (::stat(p.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      ZAB_RETURN_IF_ERROR(remove_dir_recursive(p));
    } else {
      ZAB_RETURN_IF_ERROR(remove_file(p));
    }
  }
  if (::rmdir(dir.c_str()) != 0 && errno != ENOENT) {
    return Status::io_error(errno_msg("rmdir " + dir));
  }
  return Status::ok();
}

}  // namespace zab::storage
