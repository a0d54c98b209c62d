// String-escaping coverage for the shared JSON writer (src/obs/json.{h,cc})
// and its consumers: control bytes, multibyte UTF-8 passthrough, quote and
// backslash escapes, and a full round trip of hostile strings through the
// verdict journal's writer + reader.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "src/obs/json.h"
#include "src/verifier/journal.h"

namespace icarus::obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string OneString(std::string_view value) {
  JsonWriter w;
  w.String(value);
  return w.Take();
}

TEST(JsonWriter, ControlBytesBecomeU00Escapes) {
  EXPECT_EQ(OneString(std::string_view("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(OneString(std::string_view("\x1f", 1)), "\"\\u001f\"");
  // NUL in the middle of a string must not truncate it.
  EXPECT_EQ(OneString(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
}

TEST(JsonWriter, NamedEscapes) {
  EXPECT_EQ(OneString("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(OneString("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(OneString("cr\rhere"), "\"cr\\rhere\"");
  EXPECT_EQ(OneString("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(OneString("C:\\path\\file"), "\"C:\\\\path\\\\file\"");
}

TEST(JsonWriter, Utf8MultibytePassesThroughVerbatim) {
  // é (2 bytes), → (3 bytes), 🔥 (4 bytes): all above 0x1f byte-wise, so the
  // writer must not mangle them into \u escapes or split the sequences.
  const std::string s = "h\xc3\xa9llo \xe2\x86\x92 \xf0\x9f\x94\xa5";
  EXPECT_EQ(OneString(s), "\"" + s + "\"");
}

TEST(JsonWriter, ContainerStackManagesCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").BeginArray().Int(1).Int(2).EndArray();
  w.Key("b").String("x");
  w.Key("c").Bool(true).Key("d").Null();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":[1,2],\"b\":\"x\",\"c\":true,\"d\":null}");
}

TEST(JsonWriter, NonFiniteDoublesRenderAsNull) {
  JsonWriter w;
  w.BeginArray().Double(0.5).Double(std::numeric_limits<double>::infinity()).EndArray();
  EXPECT_EQ(w.str(), "[0.5,null]");
}

// The journal shares the same escaping contract; hostile text placed in every
// string field must survive writer -> disk -> reader byte-for-byte.
TEST(JournalEscaping, HostileStringsRoundTripThroughReader) {
  const std::string hostile = "q\"uo\\te\n\ttab\x01 h\xc3\xa9llo \xe2\x86\x92";
  verifier::JournalRecord rec;
  rec.platform = "cafef00dcafef00d";
  rec.generator = "gen_" + hostile;
  rec.outcome = "COUNTEREXAMPLE";
  rec.error = hostile;
  rec.cx_contract = "assert " + hostile;
  rec.cx_function = hostile;
  rec.cx_line = 42;
  rec.cx_witnesses = "x = 1; " + hostile;
  rec.cx_source_ops = hostile + " ; LoadFixedSlot";
  rec.cx_target_ops = "branchTestNumber ; " + hostile;
  rec.cx_decisions = "TTFT";

  std::string path = TempPath("hostile_journal.jsonl");
  {
    auto writer = verifier::JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer.value()->Append(rec).ok());
  }
  auto read = verifier::ReadJournal(path, "cafef00dcafef00d");
  ASSERT_TRUE(read.ok()) << read.status().message();
  ASSERT_EQ(read.value().size(), 1u);
  const verifier::JournalRecord& r = read.value()[0];
  EXPECT_EQ(r.generator, rec.generator);
  EXPECT_EQ(r.error, hostile);
  EXPECT_EQ(r.cx_contract, rec.cx_contract);
  EXPECT_EQ(r.cx_function, hostile);
  EXPECT_EQ(r.cx_line, 42);
  EXPECT_EQ(r.cx_witnesses, rec.cx_witnesses);
  EXPECT_EQ(r.cx_source_ops, rec.cx_source_ops);
  EXPECT_EQ(r.cx_target_ops, rec.cx_target_ops);
  EXPECT_EQ(r.cx_decisions, "TTFT");
  std::remove(path.c_str());
}

// The journal line itself must not contain raw control bytes (one record =
// one line is the format's core invariant).
TEST(JournalEscaping, EmittedLineHasNoRawControlBytes) {
  verifier::JournalRecord rec;
  rec.generator = "g\n\x02";
  rec.cx_contract = "c\r";
  std::string line = rec.ToJsonLine();
  for (char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte in: " << line;
  }
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\\u0002"), std::string::npos);
  EXPECT_NE(line.find("\\r"), std::string::npos);
}
}  // namespace
}  // namespace icarus::obs
