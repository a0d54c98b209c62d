// Crash-safe whole-file replacement: how the persistent stores (the verdict
// store, the solver cache) are saved and a journal is compacted.
#ifndef ICARUS_SUPPORT_REPLACE_FILE_H_
#define ICARUS_SUPPORT_REPLACE_FILE_H_

#include <string>
#include <string_view>

#include "src/support/status.h"

namespace icarus {

// Replaces the file at `path` with `body`: it is written to `<path>.tmp`,
// fsync'd and renamed over `path`, so a crash leaves the old file or the new
// one, never a torn one. `what` names the file in errors.
Status ReplaceFile(const std::string& path, std::string_view body, std::string_view what);

}  // namespace icarus

#endif  // ICARUS_SUPPORT_REPLACE_FILE_H_
