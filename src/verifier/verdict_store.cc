#include "src/verifier/verdict_store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

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
  LoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return result;  // Absent store: clean cold start, no note.
  }
  std::string line;
  int line_no = 0;
  std::map<std::string, JournalRecord> loaded;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    JournalRecord rec;
    if (!ParseJournalLine(line, &rec)) {
      result.note = StrFormat("verdict store line %d is malformed; starting cold", line_no);
      return result;
    }
    if (rec.schema < kJournalMinReadSchemaVersion || rec.schema > kJournalSchemaVersion) {
      result.note = StrFormat("verdict store line %d has schema %d (this build reads %d..%d); "
                              "starting cold",
                              line_no, rec.schema, kJournalMinReadSchemaVersion,
                              kJournalSchemaVersion);
      return result;
    }
    if (rec.platform != epoch) {
      result.note = StrCat("verdict store was written under epoch '", rec.platform,
                           "' (this build is '", epoch, "'); starting cold");
      return result;
    }
    std::string generator = rec.generator;
    loaded[std::move(generator)] = std::move(rec);
  }
  by_generator_ = std::move(loaded);
  result.entries = by_generator_.size();
  return result;
}

const JournalRecord* VerdictStore::FindPass(const std::string& generator,
                                            const std::string& unit_fp,
                                            const sym::Solver::Limits& limits) const {
  if (unit_fp.empty()) {
    return nullptr;
  }
  auto it = by_generator_.find(generator);
  if (it == by_generator_.end()) {
    return nullptr;
  }
  const JournalRecord& rec = it->second;
  if (rec.outcome != "VERIFIED" || rec.unit_fp != unit_fp) {
    return nullptr;
  }
  return rec.budget_decisions == limits.max_decisions ? &rec : nullptr;
}

bool VerdictStore::Put(const JournalRecord& rec) {
  if (rec.outcome != "VERIFIED" || rec.unit_fp.empty()) {
    return false;
  }
  JournalRecord& stored = by_generator_[rec.generator];  // A new one has no outcome.
  bool changed = stored.outcome != rec.outcome || stored.unit_fp != rec.unit_fp ||
                 stored.budget_decisions != rec.budget_decisions;
  stored = rec;
  return changed;
}

Status VerdictStore::Save(const std::string& path) const {
  std::string body;
  for (const auto& [generator, rec] : by_generator_) {
    (void)generator;
    body += rec.ToJsonLine();
    body.push_back('\n');
  }
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error(
        StrCat("cannot open verdict store for writing: ", tmp, ": ", std::strerror(errno)));
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fflush(f) == 0 && ok;
#ifndef _WIN32
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Error(StrCat("failed writing verdict store: ", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error(StrCat("failed renaming verdict store into place: ", path));
  }
  return Status::Ok();
}

}  // namespace icarus::verifier
