// Tests for the C++ extraction backend: structural checks over the generated
// header/binding skeleton, plus a "does the generated C++ compile against the
// skeleton host" test using the system compiler. The VM build compiles and
// runs the same header (src/vm/ic.cc; vm_test).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/extract/cpp_backend.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"

namespace icarus::extract {
namespace {

class ExtractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
    auto extraction = ExtractCpp(*platform_);
    ASSERT_TRUE(extraction.ok()) << extraction.status().message();
    extraction_ = new CppExtraction(extraction.take());
  }
  static void TearDownTestSuite() {
    delete platform_;
    delete extraction_;
    platform_ = nullptr;
    extraction_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(extraction_, nullptr); }

  static platform::Platform* platform_;
  static CppExtraction* extraction_;
};

platform::Platform* ExtractTest::platform_ = nullptr;
CppExtraction* ExtractTest::extraction_ = nullptr;

TEST_F(ExtractTest, HeaderHasAllLayers) {
  const std::string& header = extraction_->header;
  // One C++ function per generator, templated over the binding-layer host.
  for (const auto& info : platform::Fig12Generators()) {
    EXPECT_TRUE(Contains(header, StrCat("inline AttachDecision ", info.function, "(Host& host")))
        << info.function;
    EXPECT_TRUE(Contains(header, StrCat("{\"", info.function, "\", "))) << info.function;
  }
  // Visitor functions per compiler and interpreter callback.
  EXPECT_TRUE(Contains(header, "compile_CacheIR_GuardToObject"));
  EXPECT_TRUE(Contains(header, "interp_MASM_BranchTestObject"));
  EXPECT_TRUE(Contains(header, "interp_MASM_LoadPrivateIntPtr"));
  // Generators stream into the compiler; the compiler emits MASM ops.
  EXPECT_TRUE(Contains(header, "compile_CacheIR_GuardToObject(host, valueId);"));
  EXPECT_TRUE(Contains(header, "host.emit(MASMOp::kBranchTestObject, "));
  // One thunk per MASM op, in a table indexed by MASMOp.
  EXPECT_TRUE(Contains(header, "inline int64_t thunk_MASM_Return(Host& host"));
  EXPECT_TRUE(Contains(header, "kMASMThunks[] = {"));
  // The stub return reports through the callback's result.
  EXPECT_TRUE(Contains(header, "return kStubReturn;"));
  // Safety contracts survive as assertions, and the platform is recorded.
  EXPECT_TRUE(Contains(header, "ICARUS_EXTRACTED_ASSERT"));
  EXPECT_TRUE(Contains(header, StrCat("kPlatformFingerprint[] = \"",
                                      platform_->Fingerprint(), "\"")));
}

TEST_F(ExtractTest, SkeletonBindsEveryExtern) {
  const std::string& skeleton = extraction_->binding_skeleton;
  EXPECT_TRUE(Contains(skeleton, "class SkeletonHost final"));
  EXPECT_TRUE(Contains(skeleton, "JSValueType Value_typeTag(Value value)"));
  EXPECT_TRUE(Contains(skeleton, "Label newLabel()"));
  EXPECT_TRUE(Contains(skeleton, "void emit(MASMOp op, Operands... operands)"));
  EXPECT_FALSE(Contains(skeleton, "virtual"));
}

TEST_F(ExtractTest, GeneratedCodeCompiles) {
  // Write header + skeleton + a driver and syntax-check with the system
  // compiler. Skipped if no compiler is available.
  if (std::system("command -v c++ > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no system compiler";
  }
  std::string dir = ::testing::TempDir();
  std::string path = dir + "/icarus_extracted_test.cc";
  std::ofstream out(path);
  out << extraction_->header << "\n" << extraction_->binding_skeleton << "\n";
  out << R"(
int main() {
  // Naming both tables instantiates every generator and MASM thunk.
  using Host = icarus_extracted::SkeletonHost;
  Host host;
  int64_t args[8] = {};
  auto decision = icarus_extracted::kGenerators<Host>[0].run(host, args);
  return icarus_extracted::kMASMThunks<Host>[0](host, args) +
         (decision == icarus_extracted::AttachDecision::kNoAction ? 0 : 1);
}
)";
  out.close();
  std::string cmd = StrCat("c++ -std=c++17 -fsyntax-only -Wall ", path, " 2> ", dir,
                           "/icarus_extract_errors.txt");
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::ifstream errors(dir + "/icarus_extract_errors.txt");
    std::string line;
    std::string all;
    while (std::getline(errors, line) && all.size() < 4000) {
      all += line + "\n";
    }
    FAIL() << "generated C++ failed to compile:\n" << all;
  }
}

}  // namespace
}  // namespace icarus::extract
