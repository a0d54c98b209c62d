#include "src/support/replace_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/support/str_util.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace icarus {

Status ReplaceFile(const std::string& path, std::string_view body, std::string_view what) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error(
        StrCat("cannot open ", what, " for writing: ", tmp, ": ", std::strerror(errno)));
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fflush(f) == 0 && ok;
#ifndef _WIN32
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Error(StrCat("failed writing ", what, ": ", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error(StrCat("failed renaming ", what, " into place: ", path));
  }
  return Status::Ok();
}

}  // namespace icarus
