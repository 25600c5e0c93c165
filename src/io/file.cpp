#include "io/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace rlz {
namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

StatusOr<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(Errno("cannot open", path));
  // A directory opens too, and its size means nothing: only a regular
  // file is read.
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("not a regular file: " + path);
  }
  // Sized from fstat, read in place; a file that grew since is read to
  // its end, one that shrank is cut to what was read.
  std::string data(static_cast<size_t>(st.st_size) + 1, '\0');
  size_t size = 0;
  for (;;) {
    if (size == data.size()) data.resize(2 * data.size());
    const ssize_t n = ::read(fd, &data[size], data.size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IOError(Errno("cannot read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    size += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(size);
  return data;
}

Status WriteFile(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + path);
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const int close_rc = std::fclose(f);
  if (written != data.size() || close_rc != 0) {
    return Status::IOError("short write on " + path);
  }
  return Status::OK();
}

}  // namespace rlz
