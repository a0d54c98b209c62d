// One verification session: a run's persistent state and its per-unit path,
// shared by `verify-all` (BatchVerifier) and `icarusd` (ServerCore). Every
// stored verdict, from the verdict store or the journal, reaches the run
// through one VerdictStore and its one restore rule (verdict_store.h). See
// docs/ARCHITECTURE.md §"The verification session".
#ifndef ICARUS_VERIFIER_SESSION_H_
#define ICARUS_VERIFIER_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/platform/platform.h"
#include "src/support/status.h"
#include "src/sym/solver_cache.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/journal.h"
#include "src/verifier/verdict_store.h"

namespace icarus {
class FileLock;
}  // namespace icarus

namespace icarus::verifier {

// Verify is thread-safe; one lock guards the verdict store and the journal.
class Session {
 public:
  // Reads the persistence and budget fields of `options` (use_cache,
  // solver_limits, record, journal_path, incremental, cache_dir,
  // cache_max_mb); the rest belong to the driver. In incremental mode it
  // creates cache_dir and takes its advisory lock — if another process holds
  // it, the stores are read but never written back — then loads the verdict
  // store and the solver cache. With a journal_path it opens the journal for
  // appending (creating it) and Puts every row it holds into the verdict
  // store, after the store's own. Errors: a journal that cannot be opened,
  // or one with a malformed line before the last or an unknown schema.
  // Store problems are notes.
  static StatusOr<std::unique_ptr<Session>> Open(const platform::Platform* platform,
                                                 const BatchOptions& options);
  ~Session();

  // Returns the unit's row. With a journal or a store the unit is
  // fingerprinted, and a stored PASS that matches its fingerprint and budget
  // makes the row CACHED_SAFE; nothing is written for it. Otherwise it is
  // VerifyOne's row, with a crash (or `fail_site`, fired when non-null)
  // contained to INTERNAL_ERROR, stamped with fingerprint and budget, Put
  // into the store if VERIFIED, and journaled; every 8 journaled rows, a
  // writable session checkpoints the solver cache. `cancel` may be null.
  GeneratorResult Verify(const std::string& generator, const Cancellation* cancel,
                         const char* fail_site = nullptr);

  // Once no Verify is running: if writable, saves the verdict store when a
  // Put changed an outcome, fingerprint or budget, and the solver cache when
  // it gained an entry or a model since Open; either also when it loaded
  // with a note, so a damaged or foreign file is replaced. Then closes the
  // journal and, if this session appended to it, rewrites it to the last
  // row per generator, preceded by the row a generator restores from when
  // that is an earlier one (ReplaceFile, so a crash leaves every row). A
  // reused journal so stops growing by its refuted units every run, and
  // restores what it did. Then releases the lock. Returns the save
  // failures; idempotent.
  Status Close();

  sym::SolverCache* solver_cache() const { return cache_.get(); }  // Null without use_cache.
  bool read_only() const { return read_only_; }  // Another process held the lock.
  size_t store_entries() const;
  const std::vector<std::string>& notes() const { return notes_; }  // From Open.
  Status journal_status() const;  // The first journal append failure.

 private:
  Session(const platform::Platform* platform, const BatchOptions& options);
  // Makes `rec` its generator's last row in journal_rows_. Under mu_.
  void KeepJournalRow(JournalRecord rec);

  const platform::Platform* platform_;
  const bool keyed_;  // A journal or a store: units are fingerprinted.
  const std::string cache_dir_;
  const std::string journal_path_;
  const int64_t cache_max_bytes_;
  VerifyOptions verify_options_;  // All but `cancel`, which is per call.
  std::unique_ptr<sym::SolverCache> cache_;
  std::unique_ptr<FileLock> lock_;  // Held iff the stores are written back.
  bool read_only_ = false;
  bool cache_load_noted_ = false;  // The solver cache file was discarded.
  std::vector<std::string> notes_;

  mutable std::mutex mu_;  // Guards the members below.
  VerdictStore store_;
  bool store_changed_ = false;  // Close must save the verdict store.
  std::unique_ptr<JournalWriter> journal_;
  int journaled_ = 0;  // Rows appended to the journal; drives the checkpoint.
  // What Close compacts the journal to, per generator: its last row and,
  // when that one cannot restore, the last one before it that can. Reading
  // the compacted journal restores what reading the whole one did. Read at
  // Open and kept up to date by every append.
  struct KeptRows {
    std::optional<JournalRecord> pass;
    JournalRecord last;
  };
  std::map<std::string, KeptRows> journal_rows_;
  Status journal_status_;
};

}  // namespace icarus::verifier

#endif  // ICARUS_VERIFIER_SESSION_H_
