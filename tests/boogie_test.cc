// Tests for the Boogie library: printer/parser round-trips, the standalone
// DCE pass, and lowering the full platform to a parseable Boogie program.
#include <gtest/gtest.h>

#include "src/boogie/boogie_dce.h"
#include "src/boogie/boogie_lower.h"
#include "tests/boogie_parser.h"
#include "src/boogie/boogie_printer.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"

namespace icarus::boogie {
namespace {

constexpr char kSmallProgram[] = R"(
type $Value;

const $Tag$Object: int;

var $heap: int;

function $typeTag(v: $Value): int;

axiom ($Tag$Object == 10);

procedure $isObject(v: $Value) returns (result: bool)
  ensures (result == ($typeTag(v) == $Tag$Object));
;

procedure {:entrypoint} $main()
  modifies $heap;
{
  var v: $Value;
  var b: bool;
  havoc v;
  call b := $isObject(v);
  if (b) {
    $heap := ($heap + 1);
  } else {
    assume ($typeTag(v) != $Tag$Object);
  }
  assert ($heap >= 0);
loop:
  goto loop, done;
done:
  return;
}
)";

TEST(BoogieParser, ParsesSmallProgram) {
  auto program = ParseProgram(kSmallProgram);
  ASSERT_TRUE(program.ok()) << program.status().message();
  const Program& p = *program.value();
  EXPECT_EQ(p.types.size(), 1u);
  EXPECT_EQ(p.constants.size(), 1u);
  EXPECT_EQ(p.globals.size(), 1u);
  EXPECT_EQ(p.functions.size(), 1u);
  EXPECT_EQ(p.axioms.size(), 1u);
  EXPECT_EQ(p.procedures.size(), 2u);
  const ProcedureDecl* main_proc = p.FindProcedure("$main");
  ASSERT_NE(main_proc, nullptr);
  EXPECT_TRUE(main_proc->entrypoint);
  EXPECT_TRUE(main_proc->has_body);
  const ProcedureDecl* is_object = p.FindProcedure("$isObject");
  ASSERT_NE(is_object, nullptr);
  EXPECT_FALSE(is_object->has_body);
  EXPECT_EQ(is_object->ensures_clauses.size(), 1u);
}

TEST(BoogiePrinter, PrintParseFixpoint) {
  auto program = ParseProgram(kSmallProgram);
  ASSERT_TRUE(program.ok()) << program.status().message();
  std::string printed = PrintProgram(*program.value());
  auto reparsed = ParseProgram(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message() << "\n" << printed;
  EXPECT_EQ(PrintProgram(*reparsed.value()), printed);
}

TEST(BoogieParser, RejectsGarbage) {
  EXPECT_FALSE(ParseProgram("procedure ( {").ok());
  EXPECT_FALSE(ParseProgram("whatever x;").ok());
}

TEST(BoogieDce, RemovesUnreachable) {
  constexpr char kSrc[] = R"(
type $Used;
type $Unused;
var $g1: int;
var $g2: int;
function $f1(x: int): int;
function $f2(x: int): int;
axiom ($f1(0) == 0);
axiom ($f2(0) == 1);
procedure $leaf(x: $Used)
  modifies $g1;
{
  $g1 := $f1($g1);
  return;
}
procedure $orphan()
  modifies $g2;
{
  $g2 := $f2($g2);
  return;
}
procedure {:entrypoint} $root()
  modifies $g1;
{
  var u: $Used;
  havoc u;
  call $leaf(u);
  return;
}
)";
  auto program = ParseProgram(kSrc);
  ASSERT_TRUE(program.ok()) << program.status().message();
  DceStats stats = DeadCodeElim(program.value().get());
  EXPECT_EQ(stats.procedures_removed, 1);  // $orphan.
  EXPECT_EQ(stats.functions_removed, 1);   // $f2.
  EXPECT_EQ(stats.globals_removed, 1);     // $g2.
  EXPECT_EQ(stats.axioms_removed, 1);      // axiom over $f2.
  EXPECT_EQ(stats.types_removed, 1);       // $Unused.
  const Program& p = *program.value();
  EXPECT_NE(p.FindProcedure("$root"), nullptr);
  EXPECT_NE(p.FindProcedure("$leaf"), nullptr);
  EXPECT_EQ(p.FindProcedure("$orphan"), nullptr);
}

TEST(BoogieDce, ExplicitRoots) {
  constexpr char kSrc[] = R"(
procedure $a() { return; }
procedure $b() { call $a(); return; }
procedure $c() { return; }
)";
  auto program = ParseProgram(kSrc);
  ASSERT_TRUE(program.ok());
  DceStats stats = DeadCodeElim(program.value().get(), {"$b"});
  EXPECT_EQ(stats.procedures_removed, 1);  // $c.
  EXPECT_NE(program.value()->FindProcedure("$a"), nullptr);
}

class BoogieLowerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(platform_, nullptr); }

  static platform::Platform* platform_;
};

platform::Platform* BoogieLowerTest::platform_ = nullptr;

TEST_F(BoogieLowerTest, LowersPlatformToParseableBoogie) {
  auto stub = platform_->MakeMetaStub("bug1685925_buggy");
  ASSERT_TRUE(stub.ok());
  cfa::CfaBuilder builder(&platform_->module(), &platform_->externs());
  auto automaton = builder.Build(stub.value());
  ASSERT_TRUE(automaton.ok()) << automaton.status().message();

  LowerOptions options;
  options.host_externs = platform_->externs().HostBoundNames();
  auto program = LowerToBoogie(platform_->module(), stub.value(), automaton.value(), options);
  ASSERT_TRUE(program.ok()) << program.status().message();

  std::string printed = PrintProgram(*program.value());
  // The meta-stub structure of Figures 3-6 is present.
  EXPECT_TRUE(Contains(printed, "{:entrypoint}"));
  EXPECT_TRUE(Contains(printed, "$MASMInterpreter$interpret"));
  EXPECT_TRUE(Contains(printed, "$emit$MASM$BranchTestObject"));
  EXPECT_TRUE(Contains(printed, "$interp$LoadPrivateIntPtr"));
  // Contracts survive lowering (the fixed-slot bound of Figure 5).
  EXPECT_TRUE(Contains(printed, "$Shape$numFixedSlots#fn"));

  // The output is valid input for our own parser, and printing is stable.
  auto reparsed = ParseProgram(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(PrintProgram(*reparsed.value()), printed);
}

TEST_F(BoogieLowerTest, DceCutsSliceForOneGenerator) {
  auto stub = platform_->MakeMetaStub("tryAttachInt32Add");
  ASSERT_TRUE(stub.ok());
  cfa::CfaBuilder builder(&platform_->module(), &platform_->externs());
  auto automaton = builder.Build(stub.value());
  ASSERT_TRUE(automaton.ok());

  LowerOptions options;
  options.host_externs = platform_->externs().HostBoundNames();
  auto program = LowerToBoogie(platform_->module(), stub.value(), automaton.value(), options);
  ASSERT_TRUE(program.ok());

  size_t before = program.value()->procedures.size();
  DceStats stats = DeadCodeElim(program.value().get());
  size_t after = program.value()->procedures.size();
  // The Int32Add slice needs only a fraction of the platform.
  EXPECT_GT(stats.procedures_removed, 0);
  EXPECT_LT(after, before);
  // Its own pieces are retained.
  EXPECT_NE(program.value()->FindProcedure("$tryAttachInt32Add"), nullptr);
  EXPECT_NE(program.value()->FindProcedure("$interp$BranchAdd32"), nullptr);
  // Unrelated generators are gone.
  EXPECT_EQ(program.value()->FindProcedure("$tryAttachDenseElement"), nullptr);
}

}  // namespace
}  // namespace icarus::boogie
