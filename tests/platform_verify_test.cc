// End-to-end verification tests over the SpiderMonkey platform: all 21
// Figure-12 generators verify, every Figure-14 buggy variant yields a
// counterexample and every fixed variant verifies. The attached-path hook
// the C++ extraction backend compiles stub runners from sees every attached
// path and changes no verdict.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <utility>

#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"

namespace icarus::platform {
namespace {

class PlatformVerifyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<std::unique_ptr<Platform>> loaded = Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }

  void SetUp() override {
    ASSERT_NE(platform_, nullptr) << "platform failed to load";
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }

  static meta::MetaResult Verify(std::string_view generator) {
    StatusOr<meta::MetaStub> stub = platform_->MakeMetaStub(generator);
    EXPECT_TRUE(stub.ok()) << stub.status().message();
    meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
    return executor.Run(stub.value());
  }

  static Platform* platform_;
};

Platform* PlatformVerifyTest::platform_ = nullptr;

TEST_F(PlatformVerifyTest, PlatformLoads) {
  EXPECT_GE(platform_->NumCacheIROps(), 40);
  EXPECT_GE(platform_->NumMasmOps(), 40);
  EXPECT_EQ(Fig12Generators().size(), 21u);
  EXPECT_EQ(Bugs().size(), 6u);
}

TEST_F(PlatformVerifyTest, TypedArrayLengthBugCaught) {
  meta::MetaResult buggy = Verify("bug1685925_buggy");
  EXPECT_FALSE(buggy.verified) << buggy.Summary();
  ASSERT_FALSE(buggy.violations.empty());
  // The counterexample must implicate the fixed-slot bounds contract.
  EXPECT_NE(buggy.violations[0].message.find("numFixedSlots"), std::string::npos)
      << buggy.Summary();
}

TEST_F(PlatformVerifyTest, TypedArrayLengthFixVerifies) {
  meta::MetaResult fixed = Verify("bug1685925_fixed");
  EXPECT_TRUE(fixed.verified) << fixed.Summary();
  EXPECT_GT(fixed.paths_attached, 0);
}

// Parameterized over the 21 ported generators (Figure 12): all verify.
class Fig12Test : public PlatformVerifyTest,
                  public ::testing::WithParamInterface<int> {};

TEST_P(Fig12Test, GeneratorVerifies) {
  const GeneratorInfo& info = Fig12Generators()[static_cast<size_t>(GetParam())];
  meta::MetaResult result = Verify(info.function);
  EXPECT_TRUE(result.verified) << info.function << "\n" << result.Summary();
  EXPECT_GT(result.paths_explored, 0);
  EXPECT_GT(result.paths_attached, 0) << info.function;
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, Fig12Test, ::testing::Range(0, 21),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return Fig12Generators()[static_cast<size_t>(info.param)].function;
                         });

// Parameterized over the extension generators (beyond Figure 12): the
// incremental-porting workflow of §5 — new generators verify on top of the
// existing compiler/interpreter layers.
class ExtensionTest : public PlatformVerifyTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(ExtensionTest, GeneratorVerifies) {
  const GeneratorInfo& info = ExtensionGenerators()[static_cast<size_t>(GetParam())];
  meta::MetaResult result = Verify(info.function);
  EXPECT_TRUE(result.verified) << info.function << "\n" << result.Summary();
  EXPECT_GT(result.paths_attached, 0) << info.function;
}

INSTANTIATE_TEST_SUITE_P(AllExtensions, ExtensionTest, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return ExtensionGenerators()[static_cast<size_t>(info.param)]
                               .function;
                         });

// Parameterized over the 6 historical bugs (Figure 14): buggy variants are
// caught, fixed variants verify.
class Fig14Test : public PlatformVerifyTest,
                  public ::testing::WithParamInterface<int> {};

TEST_P(Fig14Test, BuggyCaughtFixedVerifies) {
  const BugDef& bug = Bugs()[static_cast<size_t>(GetParam())];
  meta::MetaResult buggy = Verify(std::string("bug") + bug.id + "_buggy");
  EXPECT_FALSE(buggy.verified) << "bug " << bug.id << " should be caught\n" << buggy.Summary();
  EXPECT_FALSE(buggy.violations.empty());

  meta::MetaResult fixed = Verify(std::string("bug") + bug.id + "_fixed");
  EXPECT_TRUE(fixed.verified) << "fix for " << bug.id << " should verify\n" << fixed.Summary();
}

INSTANTIATE_TEST_SUITE_P(AllBugs, Fig14Test, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string("Bug") +
                                  Bugs()[static_cast<size_t>(info.param)].id;
                         });

// Each unit's Figure-12 LoC: its generator plus every helper it calls and
// every compiler and interpreter callback of an op it emits, transitively,
// never through externs.
TEST_F(PlatformVerifyTest, TotalLocIsPinnedForEveryUnit) {
  const std::pair<const char*, int> kPinned[] = {
      {"tryAttachCompareNullUndefined", 92},
      {"tryAttachCompareInt32", 120},
      {"tryAttachCompareStrictDifferentTypes", 168},
      {"tryAttachDenseElement", 182},
      {"tryAttachGetElemNativeFixedSlot", 182},
      {"tryAttachArgumentsObjectArg", 186},
      {"tryAttachNativeGetPropDynamicSlot", 139},
      {"tryAttachNativeGetPropFixedSlot", 138},
      {"tryAttachObjectLength", 151},
      {"tryAttachInt32Add", 91},
      {"tryAttachInt32Sub", 91},
      {"tryAttachInt32Mul", 100},
      {"tryAttachInt32Div", 126},
      {"tryAttachInt32Mod", 123},
      {"tryAttachInt32Bitwise", 121},
      {"tryAttachInt32Negation", 116},
      {"tryAttachInt32Not", 79},
      {"tryAttachStringLength", 116},
      {"tryAttachCompareString", 129},
      {"tryAttachCompareObject", 129},
      {"tryAttachCompareSymbol", 129},
      {"tryAttachInt32MinMax", 124},
      {"tryAttachToPropertyKeyInt32", 68},
      {"tryAttachToPropertyKeyNumber", 103},
      {"tryAttachToPropertyKeyString", 109},
      {"tryAttachToPropertyKeySymbol", 109},
      {"bug1451976_buggy", 59},
      {"bug1451976_fixed", 101},
      {"bug1471361_buggy", 105},
      {"bug1471361_fixed", 108},
      {"bug1502143_buggy", 183},
      {"bug1502143_fixed", 198},
      {"bug1651732_buggy", 132},
      {"bug1651732_fixed", 149},
      {"bug1654947_buggy", 87},
      {"bug1654947_fixed", 88},
      {"bug1685925_buggy", 197},
      {"bug1685925_fixed", 175},
  };
  ASSERT_EQ(std::size(kPinned), platform_->module().Generators().size());
  int sum = 0;
  for (const auto& [generator, loc] : kPinned) {
    EXPECT_EQ(platform_->TotalLoc(generator), loc) << generator;
    sum += loc;
  }
  EXPECT_EQ(sum, 4803);
  EXPECT_EQ(platform_->TotalLoc("noSuchGenerator"), 0);
}

TEST_F(PlatformVerifyTest, AttachedPathHookSeesEveryAttachedPathAndChangesNothing) {
  int total_calls = 0;
  int total_attached = 0;
  for (const ast::FunctionDecl* gen : platform_->module().Generators()) {
    meta::MetaResult plain = Verify(gen->name);

    StatusOr<meta::MetaStub> stub = platform_->MakeMetaStub(gen->name);
    ASSERT_TRUE(stub.ok()) << stub.status().message();
    meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
    int calls = 0;
    executor.set_attached_path_hook([&](exec::EvalContext& ctx) {
      ++calls;
      EXPECT_TRUE(ctx.emits().CheckAllBound().ok()) << gen->name;
      EXPECT_FALSE(ctx.emits().target.empty()) << gen->name;
    });
    meta::MetaResult hooked = executor.Run(stub.value());

    EXPECT_EQ(calls, hooked.paths_attached) << gen->name;
    EXPECT_EQ(hooked.paths_explored, plain.paths_explored) << gen->name;
    EXPECT_EQ(hooked.paths_attached, plain.paths_attached) << gen->name;
    EXPECT_EQ(hooked.solver_queries, plain.solver_queries) << gen->name;
    EXPECT_EQ(hooked.verified, plain.verified) << gen->name;
    EXPECT_EQ(hooked.inconclusive, plain.inconclusive) << gen->name;
    EXPECT_EQ(hooked.violations.size(), plain.violations.size()) << gen->name;
    total_calls += calls;
    total_attached += plain.paths_attached;
  }
  EXPECT_EQ(platform_->module().Generators().size(), 38u);
  EXPECT_EQ(total_calls, total_attached);
  EXPECT_EQ(total_calls, 389);
}

}  // namespace
}  // namespace icarus::platform
