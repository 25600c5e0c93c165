#ifndef RLZ_IO_FILE_H_
#define RLZ_IO_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace rlz {

/// Reads an entire regular file into a string (anything else is
/// IOError). The one whole-file reader: DefaultFileSystem::Read is this.
StatusOr<std::string> ReadFile(const std::string& path);

/// Writes `data` to `path`, truncating any existing file.
Status WriteFile(const std::string& path, std::string_view data);

}  // namespace rlz

#endif  // RLZ_IO_FILE_H_
