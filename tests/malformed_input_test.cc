// Malformed-input corpus: every file under tests/malformed/ must produce a
// diagnostic Status with a line/column position — never an abort, never a
// crash, never a silent success. This is the frontend half of the fault-
// isolation story: untrusted DSL text (e.g. `icarus check user.icarus`) can
// only ever produce a diagnostic.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/platform/platform.h"

#ifndef ICARUS_TEST_SRCDIR
#error "ICARUS_TEST_SRCDIR must point at the tests/ source directory"
#endif

namespace icarus {
namespace {

std::string ReadCorpusFile(const std::string& name) {
  std::string path = std::string(ICARUS_TEST_SRCDIR) + "/malformed/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct CorpusCase {
  const char* file;
  const char* expect_substring;  // Must appear in the diagnostic.
};

class MalformedCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(MalformedCorpusTest, YieldsPositionedDiagnostic) {
  const CorpusCase& c = GetParam();
  std::string source = ReadCorpusFile(c.file);
  ASSERT_FALSE(source.empty());
  StatusOr<std::unique_ptr<platform::Platform>> loaded =
      platform::Platform::LoadWithExtra({source});
  ASSERT_FALSE(loaded.ok()) << c.file << " was accepted";
  const std::string& msg = loaded.status().message();
  EXPECT_NE(msg.find(c.expect_substring), std::string::npos)
      << c.file << " diagnostic: " << msg;
  // Every frontend diagnostic carries a source position.
  EXPECT_NE(msg.find("line "), std::string::npos) << c.file << " diagnostic: " << msg;
  EXPECT_NE(msg.find("col "), std::string::npos) << c.file << " diagnostic: " << msg;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedCorpusTest,
    ::testing::Values(
        CorpusCase{"unterminated_string.icarus", "unterminated string literal"},
        CorpusCase{"stray_byte.icarus", "unexpected byte \\x01"},
        CorpusCase{"truncated.icarus", "parse error"},
        CorpusCase{"unterminated_comment.icarus", "unterminated block comment"},
        CorpusCase{"overflow_literal.icarus", "overflows int64"},
        CorpusCase{"deep_nesting.icarus", "nesting too deep"},
        CorpusCase{"recursive_contract.icarus",
                   "line 3, col 50: recursive call involving ok "},
        CorpusCase{"emitting_helper_in_contract.icarus",
                   "line 7, col 50: cannot call probeHelper (emits CacheIR)"},
        CorpusCase{"unknown_op_param_type.icarus",
                   "line 3, col 6: unknown type 'NoSuchType'"},
        CorpusCase{"unknown_compiler_language.icarus",
                   "line 2, col 10: compiler ProbeCompiler: unknown language"},
        CorpusCase{"duplicate_enum.icarus",
                   "line 3, col 6: duplicate type name 'ProbeKind'"},
        CorpusCase{"duplicate_opaque_type.icarus",
                   "line 4, col 13: duplicate type name 'ProbeHandle'"},
        CorpusCase{"duplicate_op.icarus",
                   "line 4, col 6: duplicate op 'Probe' in language ProbeLang"}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      std::string name = info.param.file;
      return name.substr(0, name.find('.'));
    });

// Inline edge cases that don't warrant corpus files.

TEST(MalformedInput, StringLiteralRejectedEvenWhenTerminated) {
  // The lexer accepts the token so it can say *where* it is; the parser then
  // rejects it with a grammar-level diagnostic.
  auto loaded = platform::Platform::LoadWithExtra(
      {"fn s() -> Int32 { let x = \"hello\"; return 0; }"});
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("string literals are not part"), std::string::npos)
      << loaded.status().message();
}

TEST(MalformedInput, EscapedQuoteDoesNotTerminateString) {
  auto loaded =
      platform::Platform::LoadWithExtra({"fn s() -> Int32 { let x = \"a\\\"b\nmore"});
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unterminated string literal"), std::string::npos)
      << loaded.status().message();
}

TEST(MalformedInput, HexLiteralWithNoDigits) {
  auto loaded = platform::Platform::LoadWithExtra({"fn s() -> Int32 { return 0x; }"});
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("hex literal with no digits"), std::string::npos)
      << loaded.status().message();
}

TEST(MalformedInput, EmptySourceChunkIsAccepted) {
  // Boundary: an empty extra chunk adds nothing but is not an error.
  auto loaded = platform::Platform::LoadWithExtra({""});
  EXPECT_TRUE(loaded.ok()) << loaded.status().message();
}

TEST(MalformedInput, DeepButLegalNestingStillParses) {
  // The depth guard must reject runaway nesting without breaking reasonable
  // code: 50 nested parens are fine.
  std::string src = "fn ok(x: Int32) -> Int32 {\n  return " + std::string(50, '(') + "x" +
                    std::string(50, ')') + ";\n}\n";
  auto loaded = platform::Platform::LoadWithExtra({src});
  EXPECT_TRUE(loaded.ok()) << loaded.status().message();
}

}  // namespace
}  // namespace icarus
