#include "src/verifier/session.h"

#include <exception>

#include "src/ast/fingerprint.h"
#include "src/support/failpoint.h"
#include "src/support/file_lock.h"
#include "src/support/replace_file.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/sym/cache_store.h"

namespace icarus::verifier {

Session::Session(const platform::Platform* platform, const BatchOptions& options)
    : platform_(platform),
      keyed_(options.incremental || !options.journal_path.empty()),
      cache_dir_(options.cache_dir),
      journal_path_(options.journal_path),
      cache_max_bytes_(options.cache_max_mb * 1024 * 1024) {
  verify_options_.solver_limits = options.solver_limits;
  verify_options_.record = options.record;
}

Session::~Session() = default;

StatusOr<std::unique_ptr<Session>> Session::Open(const platform::Platform* platform,
                                                 const BatchOptions& options) {
  std::unique_ptr<Session> session(new Session(platform, options));
  Session& s = *session;

  // Two writers would race the temp+rename saves and drop each other's
  // entries, so only the holder of the advisory lock writes the stores back.
  bool persistent = false;
  if (options.incremental) {
    Status dir = EnsureCacheDir(options.cache_dir);
    if (!dir.ok()) {
      s.notes_.push_back(StrCat(dir.message(), "; running without persistence"));
    } else {
      persistent = true;
      FileLock::Result lock = FileLock::TryExclusive(options.cache_dir + "/lock");
      if (lock.state == FileLock::State::kAcquired) {
        s.lock_ = std::move(lock.lock);
      } else {
        s.read_only_ = true;
        s.notes_.push_back(
            StrCat(lock.message, "; cache degraded to read-only (stores not written back)"));
      }
      VerdictStore::LoadResult loaded =
          s.store_.Load(VerdictStorePath(options.cache_dir), kVerifierEpoch);
      if (!loaded.note.empty()) {
        s.notes_.push_back(loaded.note);
        s.store_changed_ = true;  // Replace the damaged or foreign file.
      }
    }
  }
  if (options.use_cache) {
    s.cache_ = std::make_unique<sym::SolverCache>();
    if (persistent) {
      sym::CacheLoadResult loaded = sym::LoadSolverCache(SolverCacheStorePath(options.cache_dir),
                                                         kVerifierEpoch, s.cache_.get());
      if (!loaded.note.empty()) {
        s.notes_.push_back(loaded.note);
        s.cache_load_noted_ = true;
      }
    }
  }
  s.verify_options_.solver_cache = s.cache_.get();

  if (!options.journal_path.empty()) {
    // The journal is the store's second input: its rows restore by the same
    // rule, and a writable store keeps the PASSes it gained. The writer opens
    // first, creating the file and cutting a torn final line.
    StatusOr<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(options.journal_path);
    if (!writer.ok()) {
      return writer.status();
    }
    StatusOr<std::vector<JournalRecord>> rows = ReadJournal(options.journal_path);
    if (!rows.ok()) {
      return Status::Error(StrCat("cannot replay journal '", options.journal_path, "': ",
                                  rows.status().message(),
                                  " (remove or relocate the journal to start cold)"));
    }
    for (JournalRecord& rec : rows.value()) {
      s.store_changed_ |= s.store_.Put(rec);
      s.KeepJournalRow(std::move(rec));
    }
    s.journal_ = writer.take();
  }
  return session;
}

GeneratorResult Session::Verify(const std::string& generator, const Cancellation* cancel,
                                const char* fail_site) {
  // A name the platform does not declare has no fingerprint, so it never
  // matches and is never stored; VerifyOne reports the unknown generator.
  std::string unit_fp;
  if (keyed_) {
    StatusOr<ast::Fingerprint> fp = ast::UnitFingerprint(platform_->module(), generator);
    unit_fp = fp.ok() ? fp.value().ToHex() : "";
  }
  bool stored_pass = false;
  if (!unit_fp.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    stored_pass = store_.FindPass(generator, unit_fp, verify_options_.solver_limits) != nullptr;
  }

  GeneratorResult result;
  if (stored_pass) {
    // Nothing runs: the row carries no work counters, only the identity
    // that justified the skip.
    result.generator = generator;
    result.outcome = Outcome::kCachedSafe;
    result.report.generator = generator;
  } else {
    // Containment boundary: a crash in this unit's pipeline (an
    // ICARUS_REQUIRE/ICARUS_BUG violation or an injected fault) becomes its
    // INTERNAL_ERROR row; every other unit keeps running.
    WallTimer timer;
    try {
      if (fail_site != nullptr) {
        ICARUS_FAILPOINT(fail_site);
      }
      VerifyOptions options = verify_options_;
      options.cancel = cancel;
      result = VerifyOne(platform_, generator, options);
    } catch (const std::exception& e) {
      result.generator = generator;
      result.outcome = Outcome::kInternalError;
      result.error = e.what();
      result.seconds = timer.ElapsedSeconds();
    }
  }
  result.unit_fp = unit_fp;
  result.budget_decisions = verify_options_.solver_limits.max_decisions;
  if (stored_pass) {
    return result;  // The PASS behind it is stored already: nothing to write.
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (result.outcome == Outcome::kVerified) {
    // Ignores an empty unit_fp.
    store_changed_ |= store_.Put(RecordFromResult(result));
  }
  if (journal_ != nullptr) {
    JournalRecord rec = RecordFromResult(result);
    Status st = journal_->Append(rec);
    if (!st.ok() && journal_status_.ok()) {
      journal_status_ = st;
    }
    KeepJournalRow(std::move(rec));
    // Checkpoint, so a run killed mid-fleet still warms the next one. A
    // failed save is retried at the next checkpoint and at Close.
    ++journaled_;
    if (lock_ != nullptr && cache_ != nullptr && journaled_ % 8 == 0) {
      (void)sym::SaveSolverCache(*cache_, SolverCacheStorePath(cache_dir_), kVerifierEpoch,
                                 cache_max_bytes_);
    }
  }
  return result;
}

void Session::KeepJournalRow(JournalRecord rec) {
  KeptRows& kept = journal_rows_[rec.generator];
  if (store_.Restores(rec)) {
    kept.pass.reset();
  } else if (store_.Restores(kept.last)) {
    kept.pass = std::move(kept.last);
  }
  kept.last = std::move(rec);
}

Status Session::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> failed;
  // A store is written back only when this session changed it, so a run of
  // cache hits leaves both files (and their inodes) as they were.
  if (lock_ != nullptr) {
    if (store_changed_) {
      Status saved = store_.Save(VerdictStorePath(cache_dir_));
      if (!saved.ok()) {
        failed.push_back(saved.message());
      }
    }
    if (cache_ != nullptr) {
      sym::SolverCacheStats stats = cache_->Snapshot();
      if (cache_load_noted_ || stats.insertions + stats.upgrades > 0) {
        Status saved = sym::SaveSolverCache(*cache_, SolverCacheStorePath(cache_dir_),
                                            kVerifierEpoch, cache_max_bytes_);
        if (!saved.ok()) {
          failed.push_back(saved.message());
        }
      }
    }
  }
  if (journal_ != nullptr) {
    journal_.reset();
    if (journaled_ > 0) {
      std::string body;
      for (const auto& [generator, kept] : journal_rows_) {
        if (kept.pass.has_value()) {
          body += kept.pass->ToJsonLine();
          body.push_back('\n');
        }
        body += kept.last.ToJsonLine();
        body.push_back('\n');
      }
      Status compacted = ReplaceFile(journal_path_, body, "journal");
      if (!compacted.ok()) {
        failed.push_back(compacted.message());
      }
    }
  }
  lock_.reset();
  return failed.empty() ? Status::Ok() : Status::Error(Join(failed, "; "));
}

size_t Session::store_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.size();
}

Status Session::journal_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_status_;
}

}  // namespace icarus::verifier
