#include "src/verifier/verdict_store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <vector>

#include "src/support/replace_file.h"
#include "src/support/str_util.h"

namespace icarus::verifier {

std::string VerdictStorePath(const std::string& cache_dir) {
  return StrCat(cache_dir, "/verdicts.jsonl");
}

std::string SolverCacheStorePath(const std::string& cache_dir) {
  return StrCat(cache_dir, "/solver_cache.bin");
}

Status EnsureCacheDir(const std::string& cache_dir) {
#ifdef _WIN32
  return Status::Error("incremental cache directories are not supported on this platform");
#else
  if (mkdir(cache_dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::Ok();
  }
  return Status::Error(
      StrCat("cannot create cache dir '", cache_dir, "': ", std::strerror(errno)));
#endif
}

VerdictStore::LoadResult VerdictStore::Load(const std::string& path, const std::string& epoch) {
  by_generator_.clear();
  epoch_ = epoch;
  LoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return result;  // Absent store: clean cold start, no note.
  }
  // Save replaces the file whole, so no crash tears its last line: a
  // malformed line anywhere is damage.
  StatusOr<std::vector<JournalRecord>> records = ReadRecords(in, /*drop_torn_tail=*/false);
  if (!records.ok()) {
    result.note = StrCat("verdict store ", records.status().message(), "; starting cold");
    return result;
  }
  for (const JournalRecord& rec : records.value()) {
    if (rec.epoch != epoch) {
      by_generator_.clear();
      result.note = StrCat("verdict store was written under epoch '", rec.epoch,
                           "' (this build is '", epoch, "'); starting cold");
      return result;
    }
    Put(rec);
  }
  result.entries = by_generator_.size();
  return result;
}

const JournalRecord* VerdictStore::FindPass(const std::string& generator,
                                            const std::string& unit_fp,
                                            const sym::Solver::Limits& limits) const {
  auto it = by_generator_.find(generator);
  if (it == by_generator_.end()) {
    return nullptr;
  }
  const JournalRecord& rec = it->second;
  return rec.unit_fp == unit_fp && rec.budget_decisions == limits.max_decisions ? &rec : nullptr;
}

bool VerdictStore::Restores(const JournalRecord& rec) const {
  return (rec.outcome == "VERIFIED" || rec.outcome == "CACHED_SAFE") && !rec.unit_fp.empty() &&
         rec.epoch == epoch_;
}

bool VerdictStore::Put(const JournalRecord& rec) {
  if (!Restores(rec)) {
    return false;
  }
  auto [it, added] = by_generator_.try_emplace(rec.generator, rec);
  if (added) {
    return true;
  }
  bool changed = it->second.unit_fp != rec.unit_fp ||
                 it->second.budget_decisions != rec.budget_decisions;
  it->second = rec;
  return changed;
}

Status VerdictStore::Save(const std::string& path) const {
  std::string body;
  for (const auto& [generator, rec] : by_generator_) {
    (void)generator;
    body += rec.ToJsonLine();
    body.push_back('\n');
  }
  return ReplaceFile(path, body, "verdict store");
}

}  // namespace icarus::verifier
