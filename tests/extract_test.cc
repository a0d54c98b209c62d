// Tests for the C++ extraction backend: structural checks over the generated
// header/binding skeleton, the stub runners SME enumerates and each reason
// extraction refuses to build them, plus a "does the generated C++ compile
// against the skeleton host" test using the system compiler. The VM build
// compiles and runs the same header (src/vm/ic.cc; vm_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

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
  // Straight-line stub runners keyed in one table; no per-op thunks.
  EXPECT_TRUE(Contains(header, "[[gnu::flatten]] inline bool stub_runner_0(Host& host"));
  EXPECT_TRUE(Contains(header, "inline constexpr StubRunnerEntry<Host> kStubRunners[] = {"));
  EXPECT_FALSE(Contains(header, "thunk_"));
  EXPECT_FALSE(Contains(header, "kMASMThunks"));
  // The stub return reports through the callback's result.
  EXPECT_TRUE(Contains(header, "return kStubReturn;"));
  // Safety contracts survive as assertions, and the platform is recorded.
  EXPECT_TRUE(Contains(header, "ICARUS_EXTRACTED_ASSERT"));
  EXPECT_TRUE(Contains(header, StrCat("kPlatformFingerprint[] = \"",
                                      platform_->Fingerprint(), "\"")));
}

TEST_F(ExtractTest, RunnersAreDistinctAndCoverEveryGenerator) {
  auto runners = EnumerateStubRunners(*platform_);
  ASSERT_TRUE(runners.ok()) << runners.status().message();
  const std::vector<StubRunner>& all = runners.value();
  ASSERT_FALSE(all.empty());
  std::set<std::string> contributors;
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(all[i].key == all[j].key) << "runners " << i << " and " << j;
    }
    contributors.insert(all[i].generators.begin(), all[i].generators.end());
  }
  for (const ast::FunctionDecl* gen : platform_->module().Generators()) {
    EXPECT_EQ(contributors.count(std::string(gen->name)), 1u)
        << gen->name << " contributes no runner";
  }
  // The header holds exactly these runners.
  const std::string& header = extraction_->header;
  EXPECT_TRUE(Contains(header, StrCat("inline bool stub_runner_", all.size() - 1, "(")));
  EXPECT_FALSE(Contains(header, StrCat("inline bool stub_runner_", all.size(), "(")));
}

TEST_F(ExtractTest, RefusesAnInconclusiveGenerator) {
  // A cancelled executor leaves every path unexplored: inconclusive.
  meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
  std::atomic<bool> raised{true};
  Cancellation cancel(&raised);
  executor.set_cancellation(&cancel);
  auto keys = RunnerKeysForGenerator(*platform_, "tryAttachInt32Add", executor);
  ASSERT_FALSE(keys.ok());
  EXPECT_TRUE(Contains(keys.status().message(), "tryAttachInt32Add")) << keys.status().message();
  EXPECT_TRUE(Contains(keys.status().message(), "inconclusive")) << keys.status().message();
}

// Synthetic MASM buffers for RunnerKeyForPath.
class RunnerKeyTest : public ExtractTest {
 protected:
  exec::Instr Instr(const char* op, std::vector<exec::Value> args) {
    exec::Instr instr;
    instr.op = platform_->module().FindLanguage("MASM")->FindOp(op);
    instr.args = std::move(args);
    return instr;
  }
  exec::Value Const(const char* type, int64_t v) {
    return exec::Value::Of(platform_->module().types().Lookup(type), pool_.IntConst(v));
  }
  exec::Value Symbolic(const char* type, const char* name) {
    return exec::Value::Of(platform_->module().types().Lookup(type),
                           pool_.Var(name, sym::Sort::kInt));
  }
  exec::Value Label(int target) {
    int id = emits_.NewLabel(target == exec::kLabelFailure, nullptr);
    emits_.labels[static_cast<size_t>(id)].target = target;
    return exec::Value::Label(platform_->module().types().Label(), id);
  }

  sym::ExprPool pool_;
  exec::EmitState emits_;
};

TEST_F(RunnerKeyTest, FixesConstantsAndReadsTheRest) {
  // BranchTestObjShape(NotEqual, r0, <shape>, bail) ; LoadFixedSlot(r0, <slot>, r7) ; Return
  emits_.target.push_back(Instr("BranchTestObjShape",
                                {Const("Condition", 1), Const("Reg", 0),
                                 Symbolic("Shape", "shape"), Label(exec::kLabelFailure)}));
  emits_.target.push_back(Instr("LoadFixedSlot", {Const("Reg", 0), Symbolic("Int32", "slot"),
                                                  Const("ValueReg", 7)}));
  emits_.target.push_back(Instr("Return", {}));
  auto key = RunnerKeyForPath("synthetic", emits_, {0});
  ASSERT_TRUE(key.ok()) << key.status().message();
  EXPECT_EQ(key.value().ops.size(), 3u);
  EXPECT_EQ(key.value().input_regs, std::vector<int>{0});
  const std::vector<std::optional<int64_t>> expected = {1, 0, std::nullopt, -2, 0, std::nullopt, 7};
  EXPECT_EQ(key.value().operands, expected);
}

TEST_F(RunnerKeyTest, RefusesASymbolicRegister) {
  emits_.target.push_back(Instr("StoreUndefinedResult", {Symbolic("ValueReg", "reg")}));
  emits_.target.push_back(Instr("Return", {}));
  auto key = RunnerKeyForPath("synthetic", emits_, {0});
  ASSERT_FALSE(key.ok());
  EXPECT_TRUE(Contains(key.status().message(), "synthetic")) << key.status().message();
  EXPECT_TRUE(Contains(key.status().message(), "register that is not a constant"))
      << key.status().message();
}

TEST_F(RunnerKeyTest, RefusesARegisterOutsideTheFile) {
  emits_.target.push_back(Instr("StoreUndefinedResult", {Const("ValueReg", 9)}));
  emits_.target.push_back(Instr("Return", {}));
  auto key = RunnerKeyForPath("synthetic", emits_, {0});
  ASSERT_FALSE(key.ok());
  EXPECT_TRUE(Contains(key.status().message(), "register 9, outside the register file"))
      << key.status().message();
}

TEST_F(RunnerKeyTest, RefusesASymbolicLabel) {
  exec::Value not_a_label = Const("Int32", 1);
  not_a_label.type = platform_->module().types().Label();
  emits_.target.push_back(Instr("Jump", {not_a_label}));
  auto key = RunnerKeyForPath("synthetic", emits_, {});
  ASSERT_FALSE(key.ok());
  EXPECT_TRUE(Contains(key.status().message(), "label that is not a constant"))
      << key.status().message();
}

TEST_F(RunnerKeyTest, RefusesABackwardLabel) {
  // Instruction 1 jumps back to instruction 0.
  emits_.target.push_back(Instr("StoreUndefinedResult", {Const("ValueReg", 7)}));
  emits_.target.push_back(Instr("Jump", {Label(0)}));
  auto key = RunnerKeyForPath("synthetic", emits_, {});
  ASSERT_FALSE(key.ok());
  EXPECT_TRUE(Contains(key.status().message(), "synthetic")) << key.status().message();
  EXPECT_TRUE(Contains(key.status().message(), "only jump forward")) << key.status().message();
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
  // Naming both tables instantiates every generator and stub runner.
  using Host = icarus_extracted::SkeletonHost;
  Host host;
  int64_t args[8] = {};
  int returned = 0;
  for (const auto& runner : icarus_extracted::kStubRunners<Host>) {
    returned += runner.run(host, args) ? 1 : 0;
  }
  auto decision = icarus_extracted::kGenerators<Host>[0].run(host, args);
  return returned + (decision == icarus_extracted::AttachDecision::kNoAction ? 0 : 1);
}
)";
  out.close();
  // Warning-free under the project's own flags: the VM compiles the header
  // with -Wall -Wextra -Wno-unused-parameter.
  std::string cmd = StrCat("c++ -std=c++17 -fsyntax-only -Wall -Wextra -Wno-unused-parameter "
                           "-Werror ",
                           path, " 2> ", dir, "/icarus_extract_errors.txt");
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
