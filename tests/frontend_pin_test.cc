// What the front end produces, pinned, and what it does with bad input.
//
// Pins: three values computed from the platform's 18 DSL chunks. They were
// recorded before tokens became offsets and AST nodes moved into the
// module's arena, and a front-end change that keeps them keeps every
// position, name and expression the later stages read:
//   - a digest of every token (kind, line, col, offset, length and an int
//     literal's value);
//   - Platform::Fingerprint(), which folds every declaration's text;
//   - a digest of the Boogie lowering of bug1685925_buggy, the program
//     boogie_test's LowersPlatformToParseableBoogie prints.
//
// Lifetime: a module parsed from strings that die right after ParseInto
// prints, resolves and fingerprints like the loaded platform, since every
// name it keeps is a view into its own copy of the source.
//
// Fuzz: seeded truncations and single-byte replacements of each chunk,
// each parsed (and, when that succeeds, resolved) into a fresh module. None
// may crash, and every diagnostic carries a line and a column.
//
// The faults label runs this binary under the asan-ubsan preset too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/ast/fingerprint.h"
#include "src/ast/lexer.h"
#include "src/ast/parser.h"
#include "src/ast/printer.h"
#include "src/ast/resolver.h"
#include "src/boogie/boogie_lower.h"
#include "src/boogie/boogie_printer.h"
#include "src/cfa/cfa.h"
#include "src/platform/platform.h"
#include "src/support/rng.h"

namespace icarus {
namespace {

// The platform's chunks in Platform::Load's order.
std::vector<std::string_view> PlatformChunks() {
  std::vector<std::string_view> chunks = {
      platform::PreludeSource(),  platform::CacheIRSource(),     platform::MasmSource(),
      platform::CompilerSource(), platform::InterpreterSource(), platform::GeneratorsSource(),
  };
  for (const platform::BugDef& bug : platform::Bugs()) {
    chunks.emplace_back(bug.buggy_src);
    chunks.emplace_back(bug.fixed_src);
  }
  return chunks;
}

// FNV-1a, over each value's eight little-endian bytes or a text's bytes.
class Digest {
 public:
  void Fold(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(static_cast<uint64_t>(v) >> (8 * i)));
    }
  }
  void Fold(std::string_view text) {
    for (char c : text) {
      Byte(static_cast<unsigned char>(c));
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(FrontendPin, EveryTokenOfThePlatformChunks) {
  const std::vector<std::string_view> chunks = PlatformChunks();
  ASSERT_EQ(chunks.size(), 18u);
  Digest digest;
  size_t tokens = 0;
  for (std::string_view chunk : chunks) {
    ast::Lexer lexer(chunk);
    for (const ast::Token& t : lexer.LexAll()) {
      ASSERT_NE(t.kind, ast::Tok::kError) << lexer.error();
      int64_t value = 0;
      if (t.kind == ast::Tok::kIntLit) {
        ASSERT_TRUE(ast::ReadIntLiteral(ast::TokenText(chunk, t), &value));
      }
      digest.Fold(static_cast<int64_t>(t.kind));
      digest.Fold(t.line);
      digest.Fold(t.col);
      digest.Fold(t.offset);
      digest.Fold(t.length);
      digest.Fold(value);
      ++tokens;
    }
  }
  EXPECT_EQ(tokens, 16194u);
  EXPECT_EQ(digest.value(), 0x00ca613f419a5928ULL);
}

TEST(FrontendPin, PlatformFingerprint) {
  auto loaded = platform::Platform::Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value()->Fingerprint(), "574034a074c131ec");
}

TEST(FrontendPin, BoogieLoweringText) {
  auto loaded = platform::Platform::Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const platform::Platform& platform = *loaded.value();
  auto stub = platform.MakeMetaStub("bug1685925_buggy");
  ASSERT_TRUE(stub.ok()) << stub.status().message();
  cfa::CfaBuilder builder(&platform.module(), &platform.externs());
  auto automaton = builder.Build(stub.value());
  ASSERT_TRUE(automaton.ok()) << automaton.status().message();
  boogie::LowerOptions options;
  options.host_externs = platform.externs().HostBoundNames();
  auto program = boogie::LowerToBoogie(platform.module(), stub.value(), automaton.value(), options);
  ASSERT_TRUE(program.ok()) << program.status().message();
  const std::string printed = boogie::PrintProgram(*program.value());
  Digest digest;
  digest.Fold(printed);
  EXPECT_EQ(printed.size(), 161949u);
  EXPECT_EQ(digest.value(), 0x62ecf02c59b134e5ULL);
}

TEST(FrontendLifetime, ModuleOutlivesTheStringsItWasParsedFrom) {
  ast::Module module;
  for (std::string_view chunk : PlatformChunks()) {
    {
      const std::string text(chunk);
      ASSERT_TRUE(ast::Parser::ParseInto(&module, text).ok());
    }
    // Likely to take the freed string's memory, and to garble it if the
    // module still pointed there.
    std::string scribble(chunk.size(), '#');
    ASSERT_EQ(scribble.size(), chunk.size());
  }
  ASSERT_TRUE(ast::Resolve(&module).ok());

  auto loaded = platform::Platform::Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const ast::Module& reference = loaded.value()->module();
  EXPECT_EQ(ast::PrintModule(module), ast::PrintModule(reference));
  EXPECT_EQ(ast::ModuleHash(module), ast::ModuleHash(reference));
  for (const ast::FunctionDecl* gen : reference.Generators()) {
    auto mine = ast::UnitFingerprint(module, gen->name);
    auto theirs = ast::UnitFingerprint(reference, gen->name);
    ASSERT_TRUE(mine.ok() && theirs.ok()) << gen->name;
    EXPECT_EQ(mine.value(), theirs.value()) << gen->name;
  }
}

// Parses `source` into a fresh module, then resolves it if that succeeded;
// every diagnostic must be positioned.
void ExpectPositionedOrAccepted(const std::string& source, const std::string& what) {
  ast::Module module;
  Status status = ast::Parser::ParseInto(&module, source);
  if (status.ok()) {
    status = ast::Resolve(&module);
  }
  if (!status.ok()) {
    EXPECT_NE(status.message().find("line "), std::string::npos) << what << ": "
                                                                 << status.message();
    EXPECT_NE(status.message().find("col "), std::string::npos) << what << ": "
                                                                << status.message();
  }
}

TEST(FrontendFuzz, MutatedChunksGivePositionedDiagnostics) {
  // Bytes that end, open or split tokens, plus any byte at all.
  constexpr std::string_view kSpecial = std::string_view("{}();:,=<>!&|+-*/%^\"\n x9_\0", 26);
  constexpr int kCasesPerChunk = 48;
  Rng rng(20261020);
  const std::vector<std::string_view> chunks = PlatformChunks();
  for (size_t c = 0; c < chunks.size(); ++c) {
    const std::string chunk(chunks[c]);
    for (int i = 0; i < kCasesPerChunk; ++i) {
      const size_t cut = rng.NextBelow(chunk.size() + 1);
      ExpectPositionedOrAccepted(chunk.substr(0, cut),
                                 "chunk " + std::to_string(c) + " cut at " + std::to_string(cut));

      std::string replaced = chunk;
      const size_t at = rng.NextBelow(chunk.size());
      replaced[at] = rng.NextBool() ? kSpecial[rng.NextBelow(kSpecial.size())]
                                    : static_cast<char>(rng.NextBelow(256));
      ExpectPositionedOrAccepted(replaced, "chunk " + std::to_string(c) + " byte " +
                                               std::to_string(at) + " replaced");
    }
  }
}

}  // namespace
}  // namespace icarus
