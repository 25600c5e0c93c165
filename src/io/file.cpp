#include "io/file.h"

#include <sys/stat.h>

#include <cstdio>

namespace rlz {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  // fopen opens a directory too, and its end offset can read as
  // LONG_MAX: the size below would then be an allocation of that much.
  struct stat st;
  if (::fstat(fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::IOError("not a regular file: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError("cannot stat " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  std::string data(static_cast<size_t>(size), '\0');
  const size_t read = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) return Status::IOError("short read on " + path);
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
