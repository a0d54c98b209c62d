// Build step: extracts the embedded platform to the C++ header the mini-JS
// VM compiles in (src/vm/ic.cc).
//
//   icarus_extract_header <output-path>
#include <cstdio>
#include <fstream>

#include "src/extract/cpp_backend.h"
#include "src/platform/platform.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: icarus_extract_header <output-path>\n");
    return 2;
  }
  auto platform = icarus::platform::Platform::Load();
  if (!platform.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", platform.status().message().c_str());
    return 1;
  }
  auto extraction = icarus::extract::ExtractCpp(*platform.value());
  if (!extraction.ok()) {
    std::fprintf(stderr, "extraction failed: %s\n", extraction.status().message().c_str());
    return 1;
  }
  std::ofstream out(argv[1], std::ios::binary | std::ios::trunc);
  out << extraction.value().header;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}
