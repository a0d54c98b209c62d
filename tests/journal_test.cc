// Journal + resume tests: record round-tripping, torn-tail tolerance,
// platform/schema mismatch refusal, re-verification of rows from another
// verifier epoch, and the headline crash-recovery scenario — kill a
// verify-all mid-run (via an abort-action fail point) and prove the resumed
// run reproduces exactly the verdicts of an uninterrupted run. The CLI cases
// also pin what `icarus verify` prints and what a fresh journal row holds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/journal.h"
#include "src/verifier/verdict_store.h"

namespace icarus::verifier {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

JournalRecord MakeRecord(const std::string& generator, const std::string& outcome) {
  JournalRecord rec;
  rec.platform = "cafef00dcafef00d";
  rec.generator = generator;
  rec.outcome = outcome;
  rec.paths = 12;
  rec.queries = 345;
  rec.seconds = 0.0625;
  rec.gen_s = 0.0155;
  rec.interp_s = 0.008;
  rec.solve_s = 0.031;
  rec.decisions = 9876;
  return rec;
}

TEST(Journal, RecordRoundTripsThroughDisk) {
  std::string path = TempPath("roundtrip.jsonl");
  {
    StatusOr<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    JournalRecord rec = MakeRecord("tryAttachCompareInt32", "VERIFIED");
    rec.epoch = kVerifierEpoch;
    // Hostile error text: quotes, backslashes, newlines, a control byte.
    rec.error = "parse \"error\"\n\tat C:\\path\x01!";
    ASSERT_TRUE(writer.value()->Append(rec).ok());
    ASSERT_TRUE(writer.value()->Append(MakeRecord("bug1685925_buggy", "COUNTEREXAMPLE")).ok());
  }
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, "cafef00dcafef00d");
  ASSERT_TRUE(read.ok()) << read.status().message();
  ASSERT_EQ(read.value().size(), 2u);
  const JournalRecord& r = read.value()[0];
  EXPECT_EQ(r.schema, kJournalSchemaVersion);
  EXPECT_EQ(r.generator, "tryAttachCompareInt32");
  EXPECT_EQ(r.outcome, "VERIFIED");
  EXPECT_EQ(r.epoch, kVerifierEpoch);
  EXPECT_EQ(r.error, "parse \"error\"\n\tat C:\\path\x01!");
  EXPECT_EQ(r.paths, 12);
  EXPECT_EQ(r.queries, 345);
  EXPECT_DOUBLE_EQ(r.seconds, 0.0625);
  EXPECT_DOUBLE_EQ(r.gen_s, 0.0155);
  EXPECT_DOUBLE_EQ(r.interp_s, 0.008);
  EXPECT_DOUBLE_EQ(r.solve_s, 0.031);
  EXPECT_EQ(r.decisions, 9876);
  std::remove(path.c_str());
}

TEST(Journal, SchemaOneRecordStillReads) {
  // A journal written before the schema-2 cost-attribution fields existed
  // must still resume: the missing fields default to zero.
  std::string path = TempPath("schema1.jsonl");
  WriteFile(path,
            "{\"schema\":1,\"platform\":\"cafef00dcafef00d\",\"generator\":\"g\","
            "\"outcome\":\"VERIFIED\",\"error\":\"\",\"paths\":3,\"queries\":7,"
            "\"seconds\":0.5,\"attempts\":1}\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, "cafef00dcafef00d");
  ASSERT_TRUE(read.ok()) << read.status().message();
  ASSERT_EQ(read.value().size(), 1u);
  const JournalRecord& r = read.value()[0];
  EXPECT_EQ(r.schema, 1);
  EXPECT_EQ(r.generator, "g");
  EXPECT_EQ(r.paths, 3);
  EXPECT_DOUBLE_EQ(r.seconds, 0.5);
  EXPECT_TRUE(r.epoch.empty());
  EXPECT_DOUBLE_EQ(r.gen_s, 0.0);
  EXPECT_DOUBLE_EQ(r.interp_s, 0.0);
  EXPECT_DOUBLE_EQ(r.solve_s, 0.0);
  EXPECT_EQ(r.decisions, 0);
  std::remove(path.c_str());
}

TEST(Journal, SchemaZeroIsRefused) {
  std::string path = TempPath("schema0.jsonl");
  JournalRecord rec = MakeRecord("g", "VERIFIED");
  rec.schema = 0;
  WriteFile(path, rec.ToJsonLine() + "\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, "");
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("schema version"), std::string::npos)
      << read.status().message();
  std::remove(path.c_str());
}

TEST(Journal, TornFinalLineIsDropped) {
  std::string path = TempPath("torn.jsonl");
  std::string good1 = MakeRecord("a", "VERIFIED").ToJsonLine();
  std::string good2 = MakeRecord("b", "VERIFIED").ToJsonLine();
  // A crash mid-append leaves a prefix of the record with no closing brace.
  WriteFile(path, good1 + "\n" + good2 + "\n" + good2.substr(0, good2.size() / 2));
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, "");
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read.value().size(), 2u);
  std::remove(path.c_str());
}

TEST(Journal, MalformedMiddleLineIsCorruption) {
  std::string path = TempPath("corrupt.jsonl");
  std::string good = MakeRecord("a", "VERIFIED").ToJsonLine();
  WriteFile(path, good + "\n{not json\n" + good + "\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, "");
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("malformed"), std::string::npos)
      << read.status().message();
  std::remove(path.c_str());
}

TEST(Journal, OutOfRangeIntegersAreMalformed) {
  // A --resume file is input from outside the process: a value that does not
  // fit its integer field makes the line malformed instead of being narrowed.
  const std::string good = MakeRecord("g", "VERIFIED").ToJsonLine();
  JournalRecord rec;
  ASSERT_TRUE(ParseJournalLine(good, &rec));
  for (const char* field :
       {"\"schema\":4294967297", "\"cx_line\":1e300", "\"paths\":1e19", "\"paths\":1e999"}) {
    std::string line = good;
    line.insert(line.size() - 1, std::string(",") + field);
    EXPECT_FALSE(ParseJournalLine(line, &rec)) << field;
  }
}

TEST(Journal, MismatchedPlatformIsRefused) {
  std::string path = TempPath("mismatch.jsonl");
  WriteFile(path, MakeRecord("a", "VERIFIED").ToJsonLine() + "\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, "deadbeefdeadbeef");
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("refusing to mix"), std::string::npos)
      << read.status().message();
  std::remove(path.c_str());
}

TEST(Journal, UnknownSchemaIsRefused) {
  std::string path = TempPath("schema.jsonl");
  JournalRecord rec = MakeRecord("a", "VERIFIED");
  rec.schema = kJournalSchemaVersion + 1;
  WriteFile(path, rec.ToJsonLine() + "\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, "");
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("schema version"), std::string::npos)
      << read.status().message();
  std::remove(path.c_str());
}

// --- Library-level resume ------------------------------------------------

class JournalBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<std::unique_ptr<platform::Platform>> loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  static platform::Platform* platform_;
};

platform::Platform* JournalBatchTest::platform_ = nullptr;

TEST_F(JournalBatchTest, ResumeSkipsJournaledGeneratorsAndRestoresRows) {
  std::string path = TempPath("resume_lib.jsonl");
  std::remove(path.c_str());
  const std::vector<std::string> names = {"tryAttachCompareInt32", "tryAttachObjectLength",
                                          "bug1685925_buggy"};
  BatchVerifier batch(platform_);

  // First run journals only a two-generator subset.
  BatchOptions first;
  first.jobs = 2;
  first.journal_path = path;
  StatusOr<BatchReport> partial =
      batch.VerifyAll({names[0], names[2]}, first);
  ASSERT_TRUE(partial.ok()) << partial.status().message();

  // Second run over the full fleet resumes: the journaled rows come back
  // restored (same outcome, paths, queries, seconds) and only the missing
  // generator is verified.
  BatchOptions second;
  second.jobs = 2;
  second.journal_path = path;
  second.resume_path = path;
  StatusOr<BatchReport> full_or = batch.VerifyAll(names, second);
  ASSERT_TRUE(full_or.ok()) << full_or.status().message();
  BatchReport full = full_or.take();
  ASSERT_EQ(full.results.size(), 3u);
  EXPECT_EQ(full.num_resumed, 2);
  EXPECT_TRUE(full.results[0].resumed);
  EXPECT_FALSE(full.results[1].resumed);
  EXPECT_TRUE(full.results[2].resumed);
  EXPECT_EQ(full.results[0].outcome, Outcome::kVerified);
  EXPECT_EQ(full.results[1].outcome, Outcome::kVerified);
  EXPECT_EQ(full.results[2].outcome, Outcome::kRefuted);
  for (const GeneratorResult& r : partial.value().results) {
    for (const GeneratorResult& f : full.results) {
      if (f.generator == r.generator) {
        EXPECT_TRUE(f.resumed);
        EXPECT_EQ(f.outcome, r.outcome) << f.generator;
        EXPECT_EQ(f.report.meta.paths_explored, r.report.meta.paths_explored) << f.generator;
        EXPECT_EQ(f.report.meta.solver_queries, r.report.meta.solver_queries) << f.generator;
        EXPECT_DOUBLE_EQ(f.seconds, r.seconds) << f.generator;
      }
    }
  }
  // The journal now also covers the generator added by the second run.
  StatusOr<std::vector<JournalRecord>> records = ReadJournal(path, platform_->Fingerprint());
  ASSERT_TRUE(records.ok()) << records.status().message();
  EXPECT_EQ(records.value().size(), 3u);
  std::remove(path.c_str());
}

TEST_F(JournalBatchTest, SchemaSixWorkerRowsStillParseAndResume) {
  // Schema 6 added a `worker` key that only the multi-process fleet wrote,
  // and schema 7 a `paths_merged` key that only the path-merging executor
  // wrote; every row before this build carried `cfa_s`. All three are gone
  // and readers skip the keys like any unknown one, so a journal mixing such
  // rows still reads and resumes. The rows predate the `epoch` key, so
  // resume verifies both generators again.
  std::string path = TempPath("schema6_worker.jsonl");
  const std::string fp = platform_->Fingerprint();
  WriteFile(path,
            StrCat("{\"schema\":6,\"platform\":\"", fp,
                   "\",\"generator\":\"tryAttachCompareInt32\",\"outcome\":\"VERIFIED\","
                   "\"error\":\"\",\"paths\":5,\"queries\":17,\"seconds\":0.25,\"attempts\":1,"
                   "\"worker\":\"w0\"}\n",
                   "{\"schema\":7,\"platform\":\"", fp,
                   "\",\"generator\":\"bug1685925_buggy\",\"outcome\":\"COUNTEREXAMPLE\","
                   "\"error\":\"\",\"paths\":9,\"queries\":23,\"seconds\":0.5,\"attempts\":1,"
                   "\"cfa_s\":0,\"paths_merged\":2}\n"));
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path, fp);
  ASSERT_TRUE(read.ok()) << read.status().message();
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_EQ(read.value()[0].schema, 6);
  EXPECT_EQ(read.value()[0].generator, "tryAttachCompareInt32");
  EXPECT_EQ(read.value()[0].paths, 5);
  EXPECT_EQ(read.value()[1].schema, 7);
  EXPECT_EQ(read.value()[1].generator, "bug1685925_buggy");
  EXPECT_EQ(read.value()[1].paths, 9);
  // Rewriting a parsed row drops the key rather than carrying it forward.
  EXPECT_EQ(read.value()[0].ToJsonLine().find("worker"), std::string::npos);
  EXPECT_EQ(read.value()[1].ToJsonLine().find("paths_merged"), std::string::npos);
  EXPECT_EQ(read.value()[1].ToJsonLine().find("cfa_s"), std::string::npos);

  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.resume_path = path;
  StatusOr<BatchReport> report =
      batch.VerifyAll({"tryAttachCompareInt32", "bug1685925_buggy"}, opts);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report.value().results.size(), 2u);
  EXPECT_EQ(report.value().num_resumed, 0);
  const GeneratorResult& six = report.value().results[0];
  const GeneratorResult& seven = report.value().results[1];
  EXPECT_FALSE(six.resumed);
  EXPECT_EQ(six.outcome, Outcome::kVerified);
  EXPECT_EQ(six.report.meta.paths_explored, 25);
  EXPECT_FALSE(seven.resumed);
  EXPECT_EQ(seven.outcome, Outcome::kRefuted);
  EXPECT_EQ(seven.report.meta.paths_explored, 12);
  EXPECT_EQ(seven.report.meta.solver_queries, 31);
  std::remove(path.c_str());
}

TEST_F(JournalBatchTest, ResumeReverifiesRowsFromAnotherVerifierEpoch) {
  // A VERIFIED row for a buggy generator, earned under an older verifier
  // epoch (e.g. a solver that answered UNSAT on satisfiable queries), must
  // not be restored: resume verifies it again and finds the counterexample.
  // A row stamped with this build's epoch is still restored.
  std::string path = TempPath("foreign_epoch.jsonl");
  const std::string fp = platform_->Fingerprint();
  WriteFile(path,
            StrCat("{\"schema\":7,\"platform\":\"", fp,
                   "\",\"epoch\":\"icarus-cdcl-v2\",\"generator\":\"bug1685925_buggy\","
                   "\"outcome\":\"VERIFIED\",\"error\":\"\",\"paths\":12,\"queries\":31,"
                   "\"seconds\":0.5}\n",
                   "{\"schema\":7,\"platform\":\"", fp, "\",\"epoch\":\"", kVerifierEpoch,
                   "\",\"generator\":\"tryAttachCompareInt32\",\"outcome\":\"VERIFIED\","
                   "\"error\":\"\",\"paths\":5,\"queries\":17,\"seconds\":0.25}\n"));
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.resume_path = path;
  StatusOr<BatchReport> report =
      batch.VerifyAll({"bug1685925_buggy", "tryAttachCompareInt32"}, opts);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report.value().results.size(), 2u);
  EXPECT_EQ(report.value().num_resumed, 1);
  const GeneratorResult& foreign = report.value().results[0];
  EXPECT_FALSE(foreign.resumed);
  EXPECT_EQ(foreign.outcome, Outcome::kRefuted);
  const GeneratorResult& current = report.value().results[1];
  EXPECT_TRUE(current.resumed);
  EXPECT_EQ(current.outcome, Outcome::kVerified);
  EXPECT_EQ(current.report.meta.paths_explored, 5);
  std::remove(path.c_str());
}

TEST_F(JournalBatchTest, ResumeAgainstForeignJournalFails) {
  std::string path = TempPath("foreign.jsonl");
  JournalRecord rec = MakeRecord("tryAttachCompareInt32", "VERIFIED");
  rec.platform = "0123456789abcdef";  // Not this platform's fingerprint.
  WriteFile(path, rec.ToJsonLine() + "\n");
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.resume_path = path;
  StatusOr<BatchReport> report = batch.VerifyAll({"tryAttachCompareInt32"}, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("refusing to mix"), std::string::npos)
      << report.status().message();
  std::remove(path.c_str());
}

// --- Crash recovery end-to-end -------------------------------------------

#ifdef ICARUS_CLI_PATH

struct VerdictRow {
  std::string outcome;
  int64_t paths = 0;
  int64_t queries = 0;
};

// Final verdict per generator from a journal (later records win, matching
// the resume semantics).
std::map<std::string, VerdictRow> VerdictsFrom(const std::string& journal_path) {
  std::map<std::string, VerdictRow> verdicts;
  StatusOr<std::vector<JournalRecord>> records = ReadJournal(journal_path, "");
  EXPECT_TRUE(records.ok()) << records.status().message();
  if (records.ok()) {
    for (const JournalRecord& rec : records.value()) {
      verdicts[rec.generator] = VerdictRow{rec.outcome, rec.paths, rec.queries};
    }
  }
  return verdicts;
}

TEST(CrashRecovery, KilledRunResumesToIdenticalVerdicts) {
  const std::string cli = ICARUS_CLI_PATH;
  const std::string clean = TempPath("clean.jsonl");
  const std::string crashed = TempPath("crashed.jsonl");
  std::remove(clean.c_str());
  std::remove(crashed.c_str());

  // Reference: one uninterrupted run over the whole platform.
  std::string cmd = cli + " verify-all --jobs 2 --journal " + clean + " >/dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // Crash run: an abort-action fail point kills the process partway through
  // (the 400th cache insert lands mid-fleet — the whole fleet performs ~950
  // inserts now that prefix-replay queries are skipped), after some verdicts
  // are already journaled and fsync'd.
  cmd = cli + " verify-all --jobs 2 --fail at=cache-insert:400,action=abort --journal " +
        crashed + " >/dev/null 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0) << "crash run unexpectedly survived";

  std::map<std::string, VerdictRow> reference = VerdictsFrom(clean);
  ASSERT_FALSE(reference.empty());
  std::map<std::string, VerdictRow> partial = VerdictsFrom(crashed);
  EXPECT_LT(partial.size(), reference.size())
      << "the abort fired after every verdict was journaled; pick an earlier site count";

  // Resume the crashed journal in place and finish the fleet.
  cmd = cli + " verify-all --jobs 2 --journal " + crashed + " --resume " + crashed +
        " >/dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // The resumed journal must now hold exactly the reference verdicts:
  // same generators, same outcome, same path and query counts.
  std::map<std::string, VerdictRow> resumed = VerdictsFrom(crashed);
  ASSERT_EQ(resumed.size(), reference.size());
  for (const auto& [generator, want] : reference) {
    auto it = resumed.find(generator);
    ASSERT_NE(it, resumed.end()) << generator << " missing after resume";
    EXPECT_EQ(it->second.outcome, want.outcome) << generator;
    EXPECT_EQ(it->second.paths, want.paths) << generator;
    EXPECT_EQ(it->second.queries, want.queries) << generator;
  }

  std::remove(clean.c_str());
  std::remove(crashed.c_str());
}

TEST(CliOutput, VerifyPrintsVerdictPathsLocAndCfa) {
  // `icarus verify` builds the CFA and the LoC count itself; the verifier
  // does neither. The figures are the running example's (bug 1685925).
  const std::string path = TempPath("cli_verify.txt");
  const std::string cmd =
      std::string(ICARUS_CLI_PATH) + " verify bug1685925_buggy > " + path + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  const std::string out = text.str();
  for (const char* line : {"COUNTEREXAMPLE",
                           "paths: 12 explored, 8 attached, 3 infeasible; 31 solver queries",
                           "icarus loc (call graph): 197",
                           "cfa: 8 nodes, 14 edges, 7 feasible instruction sequences"}) {
    EXPECT_NE(out.find(line), std::string::npos) << line << " missing in:\n" << out;
  }
  std::remove(path.c_str());
}

TEST(CliOutput, JournalRowsCarryTheEpochAndNoCfaStage) {
  const std::string path = TempPath("cli_rows.jsonl");
  std::remove(path.c_str());
  const std::string cmd =
      std::string(ICARUS_CLI_PATH) + " verify-all --jobs 2 --journal " + path + " >/dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(path);
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(line.find("\"cfa_s\""), std::string::npos) << line;
    EXPECT_NE(line.find(StrCat("\"epoch\":\"", kVerifierEpoch, "\"")), std::string::npos) << line;
  }
  EXPECT_EQ(rows, 38);
  std::remove(path.c_str());
}

#endif  // ICARUS_CLI_PATH

}  // namespace
}  // namespace icarus::verifier
