// C++ extraction demo (§3.4): translate the verified platform into the C++
// a host application links, write it to disk, and show the binding-layer
// skeleton the developer fills in.
//
//   $ ./build/examples/extract_cpp [output-dir]

#include <cstdio>
#include <fstream>
#include <string>

#include "src/extract/cpp_backend.h"
#include "src/platform/platform.h"

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : ".";
  auto loaded = icarus::platform::Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  auto platform = loaded.take();
  auto extraction = icarus::extract::ExtractCpp(*platform);
  if (!extraction.ok()) {
    std::fprintf(stderr, "extraction failed: %s\n", extraction.status().message().c_str());
    return 1;
  }

  std::string header_path = dir + "/icarus_extracted.h";
  std::string skeleton_path = dir + "/icarus_binding_skeleton.h";
  std::ofstream(header_path) << extraction.value().header;
  std::ofstream(skeleton_path) << extraction.value().binding_skeleton;
  std::printf("wrote %s (%zu bytes)\n", header_path.c_str(),
              extraction.value().header.size());
  std::printf("wrote %s (%zu bytes)\n", skeleton_path.c_str(),
              extraction.value().binding_skeleton.size());

  // Show the extracted TypedArray-length generator as a taste: its
  // definition is the last match (the first is its forward declaration).
  const std::string& header = extraction.value().header;
  size_t pos = header.rfind("template <class Host>\ninline AttachDecision bug1685925_fixed(");
  if (pos != std::string::npos) {
    size_t end = header.find("\n}\n", pos);
    std::printf("\n--- extracted C++ for the (fixed) TypedArray.length generator ---\n%s\n}\n",
                header.substr(pos, end - pos).c_str());
  }
  std::printf("\nCompile-check the output with:\n  c++ -std=c++17 -fsyntax-only %s\n",
              header_path.c_str());
  return 0;
}
