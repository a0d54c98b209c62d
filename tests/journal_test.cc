// Journal tests: record round-tripping, torn-tail tolerance on read and on
// append, schema refusal, the one restore rule applied to journal rows (a
// PASS restores as CACHED_SAFE by unit fingerprint, budget and epoch; every
// other row, and every row of another epoch, is verified again), and the
// headline crash-recovery scenario — kill a verify-all mid-run (via an
// abort-action fail point) and prove that the same command on the same
// journal reproduces exactly the verdicts of an uninterrupted run; a killed
// incremental run leaves a checkpointed solver cache the next run preloads.
// The CLI cases also pin what `icarus verify` prints, what a fresh journal
// row holds, and that a reused journal stays at one row per unit.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
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
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
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
  // must still read: the missing fields default to zero.
  std::string path = TempPath("schema1.jsonl");
  WriteFile(path,
            "{\"schema\":1,\"platform\":\"cafef00dcafef00d\",\"generator\":\"g\","
            "\"outcome\":\"VERIFIED\",\"error\":\"\",\"paths\":3,\"queries\":7,"
            "\"seconds\":0.5,\"attempts\":1}\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
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
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
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
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read.value().size(), 2u);
  std::remove(path.c_str());
}

TEST(Journal, AppendAfterATornTailStartsItsOwnLine) {
  // A crash tore the last append. The writer that opens the journal next
  // cuts the fragment, so its rows neither merge into it nor get dropped
  // with it, and a third open still reads every row.
  std::string path = TempPath("torn_append.jsonl");
  std::string good = MakeRecord("a", "VERIFIED").ToJsonLine();
  WriteFile(path, good + "\n" + good + "\n" + good.substr(0, 60));
  for (const char* generator : {"b", "c"}) {
    StatusOr<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer.value()->Append(MakeRecord(generator, "VERIFIED")).ok());
  }
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  ASSERT_EQ(read.value().size(), 4u);
  EXPECT_EQ(read.value()[2].generator, "b");
  EXPECT_EQ(read.value()[3].generator, "c");
  std::remove(path.c_str());
}

TEST(Journal, MalformedMiddleLineIsCorruption) {
  std::string path = TempPath("corrupt.jsonl");
  std::string good = MakeRecord("a", "VERIFIED").ToJsonLine();
  WriteFile(path, good + "\n{not json\n" + good + "\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("malformed"), std::string::npos)
      << read.status().message();
  std::remove(path.c_str());
}

TEST(Journal, OutOfRangeIntegersAreMalformed) {
  // A journal is input from outside the process: a value that does not
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

TEST(Journal, UnknownSchemaIsRefused) {
  std::string path = TempPath("schema.jsonl");
  JournalRecord rec = MakeRecord("a", "VERIFIED");
  rec.schema = kJournalSchemaVersion + 1;
  WriteFile(path, rec.ToJsonLine() + "\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("schema version"), std::string::npos)
      << read.status().message();
  std::remove(path.c_str());
}

// --- Library-level restore ------------------------------------------------

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

TEST_F(JournalBatchTest, JournalRestoresItsPassesAndVerifiesTheRest) {
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

  // Second run over the full fleet on the same journal: the journaled PASS
  // comes back CACHED_SAFE without running, the missing generator is
  // verified, and the journaled counterexample is verified again, to the
  // same counts.
  BatchOptions second;
  second.jobs = 2;
  second.journal_path = path;
  StatusOr<BatchReport> full_or = batch.VerifyAll(names, second);
  ASSERT_TRUE(full_or.ok()) << full_or.status().message();
  BatchReport full = full_or.take();
  ASSERT_EQ(full.results.size(), 3u);
  EXPECT_EQ(full.results[0].outcome, Outcome::kCachedSafe);
  EXPECT_EQ(full.results[0].report.meta.solver_queries, 0);
  EXPECT_EQ(full.results[1].outcome, Outcome::kVerified);
  EXPECT_EQ(full.results[2].outcome, Outcome::kRefuted);
  const GeneratorResult& refuted = partial.value().results[1];
  EXPECT_EQ(full.results[2].report.meta.paths_explored, refuted.report.meta.paths_explored);
  EXPECT_EQ(full.results[2].report.meta.solver_queries, refuted.report.meta.solver_queries);
  EXPECT_FALSE(full.results[2].report.meta.violations.empty());
  // The run appended the two rows that ran and none for the restored PASS,
  // and closing compacted the journal to one row per generator: the PASS
  // keeps the row the first run earned it with.
  StatusOr<std::vector<JournalRecord>> records = ReadJournal(path);
  ASSERT_TRUE(records.ok()) << records.status().message();
  ASSERT_EQ(records.value().size(), 3u);
  std::map<std::string, JournalRecord> by_generator;
  for (const JournalRecord& rec : records.value()) {
    by_generator[rec.generator] = rec;
  }
  EXPECT_EQ(by_generator[names[0]].outcome, "VERIFIED");
  EXPECT_EQ(by_generator[names[0]].queries, partial.value().results[0].report.meta.solver_queries);
  EXPECT_EQ(by_generator[names[1]].outcome, "VERIFIED");
  EXPECT_EQ(by_generator[names[2]].outcome, "COUNTEREXAMPLE");
  std::remove(path.c_str());
}

TEST_F(JournalBatchTest, CompactionKeepsTheRowsThatRestore) {
  // A starved run appends an INCONCLUSIVE row after a unit's PASS. The
  // compacted journal keeps that PASS ahead of it, so a run under the
  // PASS's budget still restores the unit, as the uncompacted journal did.
  std::string path = TempPath("compact_keeps_pass.jsonl");
  std::remove(path.c_str());
  const std::vector<std::string> names = {"tryAttachInt32Add"};
  BatchVerifier batch(platform_);
  BatchOptions full;
  full.journal_path = path;
  ASSERT_TRUE(batch.VerifyAll(names, full).ok());
  BatchOptions starved = full;
  starved.solver_limits.max_decisions = 0;
  StatusOr<BatchReport> cut = batch.VerifyAll(names, starved);
  ASSERT_TRUE(cut.ok()) << cut.status().message();
  ASSERT_EQ(cut.value().results[0].outcome, Outcome::kInconclusive);

  StatusOr<std::vector<JournalRecord>> rows = ReadJournal(path);
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].outcome, "VERIFIED");
  EXPECT_EQ(rows.value()[1].outcome, "INCONCLUSIVE");
  StatusOr<BatchReport> warm = batch.VerifyAll(names, full);
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  EXPECT_EQ(warm.value().results[0].outcome, Outcome::kCachedSafe);
  std::remove(path.c_str());
}

TEST_F(JournalBatchTest, RowsCutShortByADeadlineAreVerifiedAgain) {
  // A deadline journals every unit INCONCLUSIVE. The next run on that
  // journal restores none of them: every unit gets its expected outcome.
  std::string path = TempPath("deadline.jsonl");
  std::remove(path.c_str());
  BatchVerifier batch(platform_);
  BatchOptions starved;
  starved.journal_path = path;
  starved.deadline_seconds = 1e-6;
  StatusOr<BatchReport> cut = batch.VerifyEverything(starved);
  ASSERT_TRUE(cut.ok()) << cut.status().message();
  EXPECT_GT(cut.value().NumWithOutcome(Outcome::kInconclusive), 0);

  BatchOptions rerun;
  rerun.journal_path = path;
  StatusOr<BatchReport> finished = batch.VerifyEverything(rerun);
  ASSERT_TRUE(finished.ok()) << finished.status().message();
  ASSERT_EQ(finished.value().results.size(), 38u);
  for (const GeneratorResult& r : finished.value().results) {
    EXPECT_TRUE(IsExpectedOutcome(r.generator, r.outcome))
        << r.generator << " is " << OutcomeName(r.outcome);
  }
  std::remove(path.c_str());
}

TEST_F(JournalBatchTest, SchemaSixWorkerRowsStillParseAndResume) {
  // Schema 6 added a `worker` key that only the multi-process fleet wrote,
  // and schema 7 a `paths_merged` key that only the path-merging executor
  // wrote; every row before this build carried `cfa_s` and `platform`. All
  // are gone and readers skip the keys like any unknown one, so a journal
  // mixing such rows still reads. The rows predate the `epoch` and
  // `unit_fp` keys, so a run on the journal verifies both generators again.
  std::string path = TempPath("schema6_worker.jsonl");
  std::remove(path.c_str());
  WriteFile(path,
            "{\"schema\":6,\"platform\":\"cafef00dcafef00d\","
            "\"generator\":\"tryAttachCompareInt32\",\"outcome\":\"VERIFIED\","
            "\"error\":\"\",\"paths\":5,\"queries\":17,\"seconds\":0.25,\"attempts\":1,"
            "\"worker\":\"w0\"}\n"
            "{\"schema\":7,\"platform\":\"cafef00dcafef00d\","
            "\"generator\":\"bug1685925_buggy\",\"outcome\":\"COUNTEREXAMPLE\","
            "\"error\":\"\",\"paths\":9,\"queries\":23,\"seconds\":0.5,\"attempts\":1,"
            "\"cfa_s\":0,\"paths_merged\":2}\n");
  StatusOr<std::vector<JournalRecord>> read = ReadJournal(path);
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
  EXPECT_EQ(read.value()[0].ToJsonLine().find("platform"), std::string::npos);
  EXPECT_EQ(read.value()[1].ToJsonLine().find("paths_merged"), std::string::npos);
  EXPECT_EQ(read.value()[1].ToJsonLine().find("cfa_s"), std::string::npos);

  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.journal_path = path;
  StatusOr<BatchReport> report =
      batch.VerifyAll({"tryAttachCompareInt32", "bug1685925_buggy"}, opts);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report.value().results.size(), 2u);
  const GeneratorResult& six = report.value().results[0];
  const GeneratorResult& seven = report.value().results[1];
  EXPECT_EQ(six.outcome, Outcome::kVerified);
  EXPECT_EQ(six.report.meta.paths_explored, 25);
  EXPECT_EQ(seven.outcome, Outcome::kRefuted);
  EXPECT_EQ(seven.report.meta.paths_explored, 12);
  EXPECT_EQ(seven.report.meta.solver_queries, 31);
  std::remove(path.c_str());
}

TEST_F(JournalBatchTest, JournalRowsOfAnotherEpochOrWithoutAUnitKeyAreVerifiedAgain) {
  // A VERIFIED row for a buggy generator, earned under an older verifier
  // epoch (e.g. a solver that answered UNSAT on satisfiable queries), must
  // not be restored: the run verifies it again and finds the
  // counterexample. A current-epoch PASS without a unit fingerprint (written
  // by a run that fingerprinted nothing) restores nothing either; one that
  // carries the unit's fingerprint and budget comes back CACHED_SAFE.
  std::string path = TempPath("foreign_epoch.jsonl");
  std::remove(path.c_str());
  WriteFile(path,
            StrCat("{\"schema\":7,\"platform\":\"cafef00dcafef00d\",\"epoch\":\"icarus-cdcl-v2\","
                   "\"generator\":\"bug1685925_buggy\",\"outcome\":\"VERIFIED\",\"error\":\"\","
                   "\"paths\":12,\"queries\":31,\"seconds\":0.5,"
                   "\"unit_fp\":\"4b20a52683f140aa26a70de6967020bb\",\"budget_decisions\":2000000}\n",
                   "{\"schema\":7,\"epoch\":\"", kVerifierEpoch,
                   "\",\"generator\":\"tryAttachObjectLength\",\"outcome\":\"VERIFIED\","
                   "\"error\":\"\",\"paths\":5,\"queries\":17,\"seconds\":0.25}\n",
                   "{\"schema\":7,\"epoch\":\"", kVerifierEpoch,
                   "\",\"generator\":\"tryAttachCompareInt32\",\"outcome\":\"VERIFIED\","
                   "\"error\":\"\",\"paths\":5,\"queries\":17,\"seconds\":0.25,"
                   "\"unit_fp\":\"e4f688501eab4bc75764f64473fb901a\",\"budget_decisions\":2000000}\n"));
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.journal_path = path;
  StatusOr<BatchReport> report = batch.VerifyAll(
      {"bug1685925_buggy", "tryAttachObjectLength", "tryAttachCompareInt32"}, opts);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report.value().results.size(), 3u);
  EXPECT_EQ(report.value().results[0].outcome, Outcome::kRefuted);
  EXPECT_EQ(report.value().results[1].outcome, Outcome::kVerified);
  EXPECT_GT(report.value().results[1].report.meta.solver_queries, 0);
  EXPECT_EQ(report.value().results[2].outcome, Outcome::kCachedSafe);
  std::remove(path.c_str());
}

// --- Crash recovery end-to-end -------------------------------------------

#ifdef ICARUS_CLI_PATH

struct VerdictRow {
  std::string outcome;
  int64_t paths = 0;
  int64_t queries = 0;
};

// Final verdict per generator from a journal (later records win).
std::map<std::string, VerdictRow> VerdictsFrom(const std::string& journal_path) {
  std::map<std::string, VerdictRow> verdicts;
  StatusOr<std::vector<JournalRecord>> records = ReadJournal(journal_path);
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
  cmd = cli + " verify-all --jobs 2 --journal " + crashed + " >/dev/null 2>&1";
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

TEST(CrashRecovery, KilledIncrementalRunLeavesAWarmSolverCache) {
  const std::string cli = ICARUS_CLI_PATH;
  const std::string dir = TempPath("crash_incremental_cache");
  const std::string journal = TempPath("crash_incremental.jsonl");
  std::filesystem::remove_all(dir);
  std::remove(journal.c_str());

  // With one job the fleet's cache inserts come in a fixed order, and the
  // 600th lands after 9 journaled verdicts: past the first solver-cache
  // checkpoint (every 8 journaled verdicts), long before the end-of-run save.
  std::string cmd = cli + " verify-all --jobs 1 --incremental --cache-dir " + dir +
                    " --journal " + journal +
                    " --fail at=cache-insert:600,action=abort >/dev/null 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0) << "crash run unexpectedly survived";
  StatusOr<std::vector<JournalRecord>> rows = ReadJournal(journal);
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  EXPECT_GE(rows.value().size(), 8u) << "the abort fired before the first checkpoint";
  EXPECT_LT(rows.value().size(), 38u) << "the abort fired after the last verdict";
  struct stat st;
  ASSERT_EQ(::stat(SolverCacheStorePath(dir).c_str(), &st), 0) << "no checkpoint was saved";
  EXPECT_GT(st.st_size, 0);

  // The next run preloads what the checkpoint saved and still earns every
  // expected verdict.
  StatusOr<std::unique_ptr<platform::Platform>> platform = platform::Platform::Load();
  ASSERT_TRUE(platform.ok()) << platform.status().message();
  BatchOptions options;
  options.jobs = 1;
  options.incremental = true;
  options.cache_dir = dir;
  StatusOr<BatchReport> report = BatchVerifier(platform.value().get()).VerifyEverything(options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report.value().cache.preloads, 0);
  EXPECT_EQ(report.value().NumWithOutcome(Outcome::kVerified), 32);
  EXPECT_EQ(report.value().NumWithOutcome(Outcome::kRefuted), 6);
  std::filesystem::remove_all(dir);
  std::remove(journal.c_str());
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
    EXPECT_EQ(line.find("\"platform\""), std::string::npos) << line;
    EXPECT_NE(line.find(StrCat("\"epoch\":\"", kVerifierEpoch, "\"")), std::string::npos) << line;
    EXPECT_NE(line.find("\"unit_fp\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"budget_decisions\":2000000"), std::string::npos) << line;
  }
  EXPECT_EQ(rows, 38);
  std::remove(path.c_str());
}

TEST(CliOutput, AReusedJournalKeepsOneRowPerUnit) {
  // Each rerun restores the 32 PASSes and verifies the 6 refuted units
  // again, appending their rows; closing the run compacts the journal to
  // the last row per generator, so it does not grow run after run.
  const std::string path = TempPath("cli_reused.jsonl");
  std::remove(path.c_str());
  const std::string cmd =
      std::string(ICARUS_CLI_PATH) + " verify-all --journal " + path + " >/dev/null 2>&1";
  for (int run = 0; run < 3; ++run) {
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    StatusOr<std::vector<JournalRecord>> rows = ReadJournal(path);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    EXPECT_EQ(rows.value().size(), 38u) << "after run " << run + 1;
  }
  std::remove(path.c_str());
}

TEST(CliOutput, RemovedMetricsFlagsAreUsageErrors) {
  // `--stats`, the journal and the daemon's `stats` op carry every count;
  // the flags that exported a second copy are unknown flags now.
  const std::string cli = ICARUS_CLI_PATH;
  const std::string journal = TempPath("cli_removed_flags.jsonl");
  const std::string snapshot = TempPath("cli_removed_flags.json");
  std::ofstream(journal).flush();
  std::ofstream(snapshot) << "{}";
  for (const std::string& args :
       {" verify-all --metrics " + snapshot,
        " report " + journal + " " + TempPath("cli_removed_flags.html") + " --metrics " + snapshot,
        std::string(" client --client ci --help")}) {
    const std::string cmd = cli + args + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
  }
  std::remove(journal.c_str());
  std::remove(snapshot.c_str());
}

#endif  // ICARUS_CLI_PATH

}  // namespace
}  // namespace icarus::verifier
