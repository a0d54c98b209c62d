// Incremental cross-run verification tests: persistent solver-cache store
// round-trip and corruption tolerance, LRU size bounding, verdict-store
// matching rules, unit-fingerprint invalidation granularity, and the
// headline end-to-end scenario — a warm `verify-all --incremental` run skips
// every unchanged generator as CACHED_SAFE with zero solver dispatches, and
// editing one shared helper re-verifies exactly the generators whose unit
// closure reaches it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "src/ast/fingerprint.h"
#include "src/platform/platform.h"
#include "src/support/file_lock.h"
#include "src/support/str_util.h"
#include "src/sym/cache_store.h"
#include "src/sym/solver_cache.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/journal.h"
#include "src/verifier/report.h"
#include "src/verifier/verdict_store.h"

namespace icarus::verifier {
namespace {

using sym::QueryKey;
using sym::SolverCache;
using sym::Verdict;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A per-test cache directory, wiped of any store files a previous run left.
std::string FreshCacheDir(const std::string& name) {
  std::string dir = TempPath("icarus_incr_" + name);
  (void)mkdir(dir.c_str(), 0755);
  std::remove(VerdictStorePath(dir).c_str());
  std::remove(SolverCacheStorePath(dir).c_str());
  return dir;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

// --- Persistent solver cache: round-trip ---------------------------------

TEST(CacheStore, RoundTripsDecisiveEntriesWithWitnesses) {
  std::string path = TempPath("cache_roundtrip.bin");
  SolverCache cache;

  SolverCache::Entry sat;
  sat.verdict = Verdict::kSat;
  sat.has_model = true;
  sat.model_text = "gen_mode#3 = 1\nrun_val#2 = @7";
  sat.witnesses.push_back({"gen_mode#3", sym::Sort::kInt, 1});
  sat.witnesses.push_back({"run_val#2", sym::Sort::kTerm, 7});
  cache.Insert(QueryKey{1, 10}, sat);

  SolverCache::Entry unsat;
  unsat.verdict = Verdict::kUnsat;
  cache.Insert(QueryKey{2, 20}, unsat);

  ASSERT_TRUE(sym::SaveSolverCache(cache, path, "epoch-A", /*max_bytes=*/0).ok());

  SolverCache restored;
  sym::CacheLoadResult load = sym::LoadSolverCache(path, "epoch-A", &restored);
  EXPECT_TRUE(load.note.empty()) << load.note;
  EXPECT_EQ(load.entries, 2u);
  EXPECT_EQ(restored.Snapshot().preloads, 2);

  auto got_sat = restored.Lookup(QueryKey{1, 10}, /*need_model=*/true);
  ASSERT_TRUE(got_sat.has_value());
  EXPECT_EQ(got_sat->verdict, Verdict::kSat);
  EXPECT_EQ(got_sat->model_text, sat.model_text);
  ASSERT_EQ(got_sat->witnesses.size(), 2u);
  EXPECT_EQ(got_sat->witnesses[0].name, "gen_mode#3");
  EXPECT_EQ(got_sat->witnesses[1].sort, sym::Sort::kTerm);
  EXPECT_EQ(got_sat->witnesses[1].value, 7);

  auto got_unsat = restored.Lookup(QueryKey{2, 20});
  ASSERT_TRUE(got_unsat.has_value());
  EXPECT_EQ(got_unsat->verdict, Verdict::kUnsat);

  std::remove(path.c_str());
}

TEST(CacheStore, MissingStoreIsCleanColdStart) {
  SolverCache cache;
  sym::CacheLoadResult load =
      sym::LoadSolverCache(TempPath("no_such_cache.bin"), "epoch-A", &cache);
  EXPECT_EQ(load.entries, 0u);
  EXPECT_TRUE(load.note.empty()) << load.note;
}

// --- Persistent solver cache: corruption policy --------------------------

TEST(CacheStore, CorruptStoresDegradeToColdStartWithNote) {
  std::string path = TempPath("cache_corrupt.bin");
  {
    SolverCache cache;
    SolverCache::Entry e;
    e.verdict = Verdict::kUnsat;
    cache.Insert(QueryKey{7, 70}, e);
    cache.Insert(QueryKey{8, 80}, e);
    ASSERT_TRUE(sym::SaveSolverCache(cache, path, "epoch-A", 0).ok());
  }
  std::string intact = ReadFileOrDie(path);
  ASSERT_GT(intact.size(), 8u);

  struct Case {
    const char* what;
    std::string bytes;
    const char* expect_fp = "epoch-A";
  };
  std::vector<Case> cases;
  cases.push_back({"empty file", ""});
  cases.push_back({"truncated header", intact.substr(0, 3)});
  cases.push_back({"truncated mid-entry", intact.substr(0, intact.size() / 2)});
  std::string bad_magic = intact;
  bad_magic[0] = 'X';
  cases.push_back({"wrong magic", bad_magic});
  std::string bad_version = intact;
  bad_version[4] = static_cast<char>(0x7f);  // Version field follows the magic.
  cases.push_back({"unknown version", bad_version});
  // A version-1 store, as written before kUnknown entries stopped being
  // cached (its entries also carried budget stamps).
  std::string version_one = intact;
  version_one[4] = 1;
  cases.push_back({"version 1", version_one});
  // The cache holds decisive answers only: a kUnknown verdict byte in the
  // first entry (after magic, version, fingerprint, count, and its key) is
  // corruption.
  std::string unknown_entry = intact;
  const size_t first_verdict = 4 + 4 + (4 + std::string("epoch-A").size()) + 8 + 16;
  ASSERT_EQ(unknown_entry[first_verdict], static_cast<char>(Verdict::kUnsat));
  unknown_entry[first_verdict] = static_cast<char>(Verdict::kUnknown);
  cases.push_back({"kUnknown entry", unknown_entry});
  cases.push_back({"fingerprint mismatch", intact, "epoch-B"});
  cases.push_back({"trailing garbage", intact + "junk"});

  for (const Case& c : cases) {
    WriteFile(path, c.bytes);
    SolverCache cache;
    sym::CacheLoadResult load = sym::LoadSolverCache(path, c.expect_fp, &cache);
    EXPECT_EQ(load.entries, 0u) << c.what;
    EXPECT_FALSE(load.note.empty()) << c.what;
    EXPECT_EQ(cache.size(), 0u) << c.what;
    EXPECT_EQ(cache.Snapshot().preloads, 0) << c.what;
  }
  std::remove(path.c_str());
}

// --- Persistent solver cache: LRU size bound -----------------------------

TEST(CacheStore, SaveEvictsLeastRecentlyUsedToFitBudget) {
  std::string path = TempPath("cache_lru.bin");
  SolverCache cache;
  const int kEntries = 20;
  for (int i = 0; i < kEntries; ++i) {
    SolverCache::Entry e;
    e.verdict = Verdict::kSat;
    e.has_model = true;
    e.model_text = std::string(1000, 'm');
    cache.Insert(QueryKey{static_cast<uint64_t>(i), 1}, e);
  }
  // Touch the five oldest inserts so they become the most recently used.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cache.Lookup(QueryKey{static_cast<uint64_t>(i), 1}).has_value());
  }
  // Room for a handful of ~1KB entries, nowhere near all twenty.
  ASSERT_TRUE(sym::SaveSolverCache(cache, path, "epoch-A", /*max_bytes=*/6000).ok());

  SolverCache restored;
  sym::CacheLoadResult load = sym::LoadSolverCache(path, "epoch-A", &restored);
  EXPECT_TRUE(load.note.empty()) << load.note;
  EXPECT_GT(load.entries, 0u);
  EXPECT_LT(load.entries, static_cast<size_t>(kEntries));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(restored.Lookup(QueryKey{static_cast<uint64_t>(i), 1}).has_value())
        << "recently used entry " << i << " was evicted";
  }
  std::remove(path.c_str());
}

// --- Verdict store -------------------------------------------------------

JournalRecord PassRecord(const std::string& generator, const std::string& fp) {
  JournalRecord rec;
  rec.platform = kVerifierEpoch;
  rec.generator = generator;
  rec.outcome = "VERIFIED";
  rec.unit_fp = fp;
  rec.budget_decisions = 1000;
  rec.paths = 4;
  return rec;
}

TEST(VerdictStoreTest, RoundTripsAndMatchesStrictly) {
  std::string path = TempPath("verdicts_roundtrip.jsonl");
  VerdictStore store;
  store.Put(PassRecord("genA", "aaaa"));
  store.Put(PassRecord("genB", "bbbb"));
  JournalRecord refuted = PassRecord("genC", "cccc");
  refuted.outcome = "COUNTEREXAMPLE";
  store.Put(refuted);  // Non-PASS rows are never stored.
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.Save(path).ok());

  VerdictStore loaded;
  VerdictStore::LoadResult load = loaded.Load(path, kVerifierEpoch);
  EXPECT_TRUE(load.note.empty()) << load.note;
  EXPECT_EQ(load.entries, 2u);

  sym::Solver::Limits limits;
  limits.max_decisions = 1000;
  const JournalRecord* hit = loaded.FindPass("genA", "aaaa", limits);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->paths, 4);
  // Fingerprint mismatch: the unit changed, the stored PASS is stale.
  EXPECT_EQ(loaded.FindPass("genA", "aaab", limits), nullptr);
  // Budget mismatch in either direction: fidelity requires exact equality.
  sym::Solver::Limits more = limits;
  more.max_decisions = 2000;
  EXPECT_EQ(loaded.FindPass("genA", "aaaa", more), nullptr);
  sym::Solver::Limits less = limits;
  less.max_decisions = 500;
  EXPECT_EQ(loaded.FindPass("genA", "aaaa", less), nullptr);
  // Unknown generator, and the refuted row that was never stored.
  EXPECT_EQ(loaded.FindPass("genZ", "aaaa", limits), nullptr);
  EXPECT_EQ(loaded.FindPass("genC", "cccc", limits), nullptr);
  // Empty fingerprint (unit failed to fingerprint) never matches.
  EXPECT_EQ(loaded.FindPass("genA", "", limits), nullptr);

  // A row written before retries and the wall-clock budget were removed
  // still matches on fingerprint plus decision budget.
  std::string parent_row = PassRecord("genP", "pppp").ToJsonLine();
  parent_row.insert(parent_row.size() - 1, ",\"attempts\":1,\"budget_seconds\":0");
  WriteFile(path, parent_row + "\n");
  VerdictStore parent;
  load = parent.Load(path, kVerifierEpoch);
  EXPECT_TRUE(load.note.empty()) << load.note;
  EXPECT_EQ(load.entries, 1u);
  EXPECT_NE(parent.FindPass("genP", "pppp", limits), nullptr);
  EXPECT_EQ(parent.FindPass("genP", "pppp", more), nullptr);
  std::remove(path.c_str());
}

TEST(VerdictStoreTest, CorruptionAndEpochMismatchStartCold) {
  std::string path = TempPath("verdicts_corrupt.jsonl");

  WriteFile(path, "this is not json\n");
  VerdictStore store;
  VerdictStore::LoadResult load = store.Load(path, kVerifierEpoch);
  EXPECT_EQ(load.entries, 0u);
  EXPECT_FALSE(load.note.empty());
  EXPECT_EQ(store.size(), 0u);

  JournalRecord other_epoch = PassRecord("genA", "aaaa");
  other_epoch.platform = "some-other-epoch";
  WriteFile(path, other_epoch.ToJsonLine() + "\n");
  load = store.Load(path, kVerifierEpoch);
  EXPECT_EQ(load.entries, 0u);
  EXPECT_NE(load.note.find("epoch"), std::string::npos) << load.note;

  // Absent file: clean cold start, no note.
  std::remove(path.c_str());
  load = store.Load(path, kVerifierEpoch);
  EXPECT_EQ(load.entries, 0u);
  EXPECT_TRUE(load.note.empty()) << load.note;
}

// --- Unit fingerprints + end-to-end incremental runs ---------------------

// Two tiny generators layered on the standard platform. `incrTestAdd` emits
// its guards through a shared helper; `incrTestSub` inlines them. Editing
// the helper must invalidate incrTestAdd's unit and leave incrTestSub's
// untouched.
constexpr char kHelperV1[] = R"ICARUS(
fn incrTestGuards(lhsId: ValueId, rhsId: ValueId) emits CacheIR {
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
}
)ICARUS";

// Semantically equivalent (guard order is irrelevant) but textually edited:
// the cold verdicts are identical, only the fingerprint moves.
constexpr char kHelperV2[] = R"ICARUS(
fn incrTestGuards(lhsId: ValueId, rhsId: ValueId) emits CacheIR {
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::GuardToInt32(lhsId);
}
)ICARUS";

constexpr char kGenerators[] = R"ICARUS(
generator incrTestAdd(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  emit incrTestGuards(lhsId, rhsId);
  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator incrTestSub(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32SubResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}
)ICARUS";

std::unique_ptr<platform::Platform> LoadTestPlatform(const char* helper) {
  auto loaded = platform::Platform::LoadWithExtra({std::string(helper) + kGenerators});
  EXPECT_TRUE(loaded.ok()) << loaded.status().message();
  return loaded.ok() ? loaded.take() : nullptr;
}

TEST(UnitFingerprintTest, HelperEditChangesOnlyDependentUnits) {
  std::unique_ptr<platform::Platform> p1 = LoadTestPlatform(kHelperV1);
  std::unique_ptr<platform::Platform> p2 = LoadTestPlatform(kHelperV2);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);

  auto fp = [](const platform::Platform& p, const std::string& name) {
    StatusOr<ast::Fingerprint> f = ast::UnitFingerprint(p.module(), name);
    EXPECT_TRUE(f.ok()) << f.status().message();
    return f.ok() ? f.value().ToHex() : std::string();
  };
  std::string add1 = fp(*p1, "incrTestAdd");
  std::string add2 = fp(*p2, "incrTestAdd");
  std::string sub1 = fp(*p1, "incrTestSub");
  std::string sub2 = fp(*p2, "incrTestSub");
  ASSERT_EQ(add1.size(), 32u);
  // The helper edit reaches incrTestAdd's closure and nothing else.
  EXPECT_NE(add1, add2);
  EXPECT_EQ(sub1, sub2);
  EXPECT_NE(add1, sub1);
  // Fingerprints are stable across loads of identical sources.
  std::unique_ptr<platform::Platform> p1_again = LoadTestPlatform(kHelperV1);
  ASSERT_NE(p1_again, nullptr);
  EXPECT_EQ(fp(*p1_again, "incrTestAdd"), add1);

  // Only generators fingerprint; helpers and unknown names are errors.
  EXPECT_FALSE(ast::UnitFingerprint(p1->module(), "incrTestGuards").ok());
  EXPECT_FALSE(ast::UnitFingerprint(p1->module(), "noSuchGenerator").ok());
}

TEST(IncrementalE2E, WarmRunSkipsEverythingAndHelperEditInvalidatesDependentsOnly) {
  std::string dir = FreshCacheDir("e2e");
  std::unique_ptr<platform::Platform> p1 = LoadTestPlatform(kHelperV1);
  ASSERT_NE(p1, nullptr);
  const std::vector<std::string> fleet = {"incrTestAdd", "incrTestSub"};

  BatchOptions options;
  options.jobs = 2;
  options.incremental = true;
  options.cache_dir = dir;

  // Cold run: everything verifies for real and lands in the stores.
  BatchVerifier batch1(p1.get());
  StatusOr<BatchReport> cold_or = batch1.VerifyAll(fleet, options);
  ASSERT_TRUE(cold_or.ok()) << cold_or.status().message();
  BatchReport cold = cold_or.take();
  for (const std::string& note : cold.notes) {
    ADD_FAILURE() << "unexpected note on cold run: " << note;
  }
  ASSERT_EQ(cold.results.size(), 2u);
  for (const GeneratorResult& r : cold.results) {
    EXPECT_EQ(r.outcome, Outcome::kVerified) << r.generator << ": " << r.error;
    EXPECT_EQ(r.unit_fp.size(), 32u) << r.generator;
    EXPECT_EQ(r.budget_decisions, options.solver_limits.max_decisions);
  }

  // Warm run on the unchanged fleet: all CACHED_SAFE, zero solver activity,
  // and the CACHED_SAFE rows journal with their fingerprints (schema v4).
  std::string journal_path = TempPath("icarus_incr_warm.jsonl");
  std::remove(journal_path.c_str());
  BatchOptions warm_options = options;
  warm_options.journal_path = journal_path;
  BatchVerifier batch2(p1.get());
  StatusOr<BatchReport> warm_or = batch2.VerifyAll(fleet, warm_options);
  ASSERT_TRUE(warm_or.ok()) << warm_or.status().message();
  BatchReport warm = warm_or.take();
  ASSERT_EQ(warm.results.size(), 2u);
  for (const GeneratorResult& r : warm.results) {
    EXPECT_EQ(r.outcome, Outcome::kCachedSafe) << r.generator;
    EXPECT_EQ(r.unit_fp.size(), 32u) << r.generator;
    EXPECT_EQ(r.report.meta.solver_queries, 0) << r.generator << " should not have executed";
  }
  EXPECT_EQ(warm.cache.lookups(), 0) << "a skipped run must not dispatch solver queries";
  EXPECT_NE(warm.RenderTable().find("CACHED_SAFE"), std::string::npos);
  EXPECT_NE(warm.RenderTable().find("cached safe"), std::string::npos);

  StatusOr<std::vector<JournalRecord>> journaled =
      ReadJournal(journal_path, p1->Fingerprint());
  ASSERT_TRUE(journaled.ok()) << journaled.status().message();
  ASSERT_EQ(journaled.value().size(), 2u);
  for (const JournalRecord& rec : journaled.value()) {
    EXPECT_EQ(rec.outcome, "CACHED_SAFE");
    EXPECT_EQ(rec.schema, kJournalSchemaVersion);
    EXPECT_EQ(rec.unit_fp.size(), 32u);
    EXPECT_EQ(rec.budget_decisions, options.solver_limits.max_decisions);
  }
  std::remove(journal_path.c_str());

  // The CACHED_SAFE rows render with their own badge and tile in the HTML
  // report (the verifier-side row carries the outcome token through).
  ReportInput input;
  JournalRecord row;
  row.generator = "incrTestAdd";
  row.outcome = "CACHED_SAFE";
  input.rows.push_back(row);
  std::string html = RenderHtmlReport(input);
  EXPECT_NE(html.find("badge cached"), std::string::npos);
  EXPECT_NE(html.find("cached safe"), std::string::npos);

  // Edit the shared helper: only incrTestAdd re-verifies, and its fresh
  // verdict matches what a cold run produced.
  std::unique_ptr<platform::Platform> p2 = LoadTestPlatform(kHelperV2);
  ASSERT_NE(p2, nullptr);
  BatchVerifier batch3(p2.get());
  StatusOr<BatchReport> edited_or = batch3.VerifyAll(fleet, options);
  ASSERT_TRUE(edited_or.ok()) << edited_or.status().message();
  BatchReport edited = edited_or.take();
  ASSERT_EQ(edited.results.size(), 2u);
  EXPECT_EQ(edited.results[0].generator, "incrTestAdd");
  EXPECT_EQ(edited.results[0].outcome, Outcome::kVerified)
      << "helper edit must force a real re-verification";
  EXPECT_EQ(edited.results[1].generator, "incrTestSub");
  EXPECT_EQ(edited.results[1].outcome, Outcome::kCachedSafe)
      << "untouched unit must stay cached";

  // And a second run against the edited platform is fully warm again.
  StatusOr<BatchReport> rewarm_or = batch3.VerifyAll(fleet, options);
  ASSERT_TRUE(rewarm_or.ok()) << rewarm_or.status().message();
  for (const GeneratorResult& r : rewarm_or.value().results) {
    EXPECT_EQ(r.outcome, Outcome::kCachedSafe) << r.generator;
  }
}

TEST(IncrementalE2E, CorruptStoresStillProduceCorrectVerdicts) {
  std::string dir = FreshCacheDir("corrupt_e2e");
  std::unique_ptr<platform::Platform> p = LoadTestPlatform(kHelperV1);
  ASSERT_NE(p, nullptr);
  const std::vector<std::string> fleet = {"incrTestAdd", "incrTestSub"};

  BatchOptions options;
  options.jobs = 2;
  options.incremental = true;
  options.cache_dir = dir;

  BatchVerifier batch(p.get());
  StatusOr<BatchReport> cold_or = batch.VerifyAll(fleet, options);
  ASSERT_TRUE(cold_or.ok()) << cold_or.status().message();

  // Vandalize both stores: the next run must degrade to a cold run with
  // notes — same verdicts, no crash, no CACHED_SAFE rows it cannot justify.
  WriteFile(VerdictStorePath(dir), "{\"schema\":");
  WriteFile(SolverCacheStorePath(dir), "ICSCgarbage");
  StatusOr<BatchReport> after_or = batch.VerifyAll(fleet, options);
  ASSERT_TRUE(after_or.ok()) << after_or.status().message();
  BatchReport after = after_or.take();
  EXPECT_FALSE(after.notes.empty()) << "corrupt stores should be reported";
  for (const GeneratorResult& r : after.results) {
    EXPECT_EQ(r.outcome, Outcome::kVerified) << r.generator << ": " << r.error;
  }
  // The rewritten stores are healthy again: the following run is fully warm.
  StatusOr<BatchReport> warm_or = batch.VerifyAll(fleet, options);
  ASSERT_TRUE(warm_or.ok()) << warm_or.status().message();
  for (const GeneratorResult& r : warm_or.value().results) {
    EXPECT_EQ(r.outcome, Outcome::kCachedSafe) << r.generator;
  }
}

// --- Advisory cache lock: one writer, read-only stragglers ----------------

TEST(CacheLockTest, SecondAcquireOnTheSamePathIsBusy) {
  std::string path = TempPath("icarus_incr_lock_test");
  FileLock::Result first = FileLock::TryExclusive(path);
  ASSERT_EQ(first.state, FileLock::State::kAcquired) << first.message;
  ASSERT_NE(first.lock, nullptr);

  // flock is per open file description, so a second open+flock conflicts
  // even inside one process — the contention story tests the same way it
  // plays out across processes.
  FileLock::Result second = FileLock::TryExclusive(path);
  EXPECT_EQ(second.state, FileLock::State::kBusy);
  EXPECT_EQ(second.lock, nullptr);
  EXPECT_NE(second.message.find("held by another icarus process"), std::string::npos)
      << second.message;

  // Releasing the first holder frees the path immediately (no stale-lock
  // file cleanup: the lock dies with the fd).
  first.lock.reset();
  FileLock::Result third = FileLock::TryExclusive(path);
  EXPECT_EQ(third.state, FileLock::State::kAcquired) << third.message;
}

TEST(CacheLockTest, IncrementalRunDegradesToReadOnlyWhenLockIsHeld) {
  std::string dir = FreshCacheDir("lock_degrade");
  std::unique_ptr<platform::Platform> p = LoadTestPlatform(kHelperV1);
  ASSERT_NE(p, nullptr);
  const std::vector<std::string> fleet = {"incrTestAdd", "incrTestSub"};

  // Another writer (in real life: a daemon or a second verify-all) holds the
  // cache lock for the whole run.
  FileLock::Result held = FileLock::TryExclusive(dir + "/lock");
  ASSERT_EQ(held.state, FileLock::State::kAcquired) << held.message;

  BatchOptions options;
  options.jobs = 2;
  options.incremental = true;
  options.cache_dir = dir;
  BatchVerifier batch(p.get());
  StatusOr<BatchReport> locked_or = batch.VerifyAll(fleet, options);
  ASSERT_TRUE(locked_or.ok()) << locked_or.status().message();
  BatchReport locked = locked_or.take();

  // The run is degraded, not broken: full verdicts, a user-visible note, and
  // no store files published (the holder's stores cannot be clobbered).
  bool noted = false;
  for (const std::string& note : locked.notes) {
    if (note.find("read-only") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted) << "read-only degradation was not surfaced in the notes";
  for (const GeneratorResult& r : locked.results) {
    EXPECT_EQ(r.outcome, Outcome::kVerified) << r.generator << ": " << r.error;
  }
  struct stat st;
  EXPECT_NE(::stat(VerdictStorePath(dir).c_str(), &st), 0)
      << "read-only run wrote the verdict store";

  // Once the holder exits the next run takes the lock, writes the stores,
  // and the one after is fully warm.
  held.lock.reset();
  StatusOr<BatchReport> writer_or = batch.VerifyAll(fleet, options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().message();
  EXPECT_EQ(::stat(VerdictStorePath(dir).c_str(), &st), 0);
  StatusOr<BatchReport> warm_or = batch.VerifyAll(fleet, options);
  ASSERT_TRUE(warm_or.ok()) << warm_or.status().message();
  for (const GeneratorResult& r : warm_or.value().results) {
    EXPECT_EQ(r.outcome, Outcome::kCachedSafe) << r.generator;
  }
}

}  // namespace
}  // namespace icarus::verifier
