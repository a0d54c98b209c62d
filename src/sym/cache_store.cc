#include "src/sym/cache_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/replace_file.h"
#include "src/support/str_util.h"

namespace icarus::sym {

namespace {

constexpr char kMagic[4] = {'I', 'C', 'S', 'C'};

// ---------------------------------------------------------------------------
// Serialization (append to a growing buffer; native byte order, local file)
// ---------------------------------------------------------------------------

template <typename T>
void PutRaw(std::string* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void PutString(std::string* out, const std::string& s) {
  PutRaw<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutEntry(std::string* out, const QueryKey& key, const SolverCache::Entry& e) {
  PutRaw<uint64_t>(out, key.lo);
  PutRaw<uint64_t>(out, key.hi);
  PutRaw<uint8_t>(out, static_cast<uint8_t>(e.verdict));
  PutRaw<uint8_t>(out, e.has_model ? 1 : 0);
  PutRaw<uint64_t>(out, e.tick);
  PutString(out, e.model_text);
  PutRaw<uint32_t>(out, static_cast<uint32_t>(e.witnesses.size()));
  for (const Witness& w : e.witnesses) {
    PutString(out, w.name);
    PutRaw<uint8_t>(out, static_cast<uint8_t>(w.sort));
    PutRaw<int64_t>(out, w.value);
  }
}

// ---------------------------------------------------------------------------
// Deserialization (cursor over an in-memory copy; every read bounds-checked)
// ---------------------------------------------------------------------------

struct Cursor {
  const char* data;
  size_t size;
  size_t pos = 0;

  template <typename T>
  bool Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size - pos < sizeof(T)) {
      return false;
    }
    std::memcpy(out, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool GetString(std::string* out) {
    uint32_t len = 0;
    if (!Get(&len) || size - pos < len) {
      return false;
    }
    out->assign(data + pos, len);
    pos += len;
    return true;
  }
};

bool GetEntry(Cursor* c, QueryKey* key, SolverCache::Entry* e) {
  uint8_t verdict = 0;
  uint8_t has_model = 0;
  if (!c->Get(&key->lo) || !c->Get(&key->hi) || !c->Get(&verdict) || !c->Get(&has_model) ||
      !c->Get(&e->tick) || !c->GetString(&e->model_text)) {
    return false;
  }
  // The cache holds decisive answers only: a kUnknown byte is corruption.
  if (verdict >= static_cast<uint8_t>(Verdict::kUnknown) || has_model > 1) {
    return false;
  }
  e->verdict = static_cast<Verdict>(verdict);
  e->has_model = has_model != 0;
  uint32_t witness_count = 0;
  if (!c->Get(&witness_count)) {
    return false;
  }
  e->witnesses.clear();
  for (uint32_t i = 0; i < witness_count; ++i) {
    Witness w;
    uint8_t sort = 0;
    if (!c->GetString(&w.name) || !c->Get(&sort) || !c->Get(&w.value) ||
        sort > static_cast<uint8_t>(Sort::kTerm)) {
      return false;
    }
    w.sort = static_cast<Sort>(sort);
    e->witnesses.push_back(std::move(w));
  }
  return true;
}

CacheLoadResult Cold(std::string note) {
  CacheLoadResult result;
  result.note = std::move(note);
  return result;
}

}  // namespace

CacheLoadResult LoadSolverCache(const std::string& path, const std::string& expected_fingerprint,
                                SolverCache* cache) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // A true first run: absent store, clean cold start, no note.
    return CacheLoadResult{};
  }
  std::string buf;
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.append(chunk, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Cold(StrCat("cache store unreadable: ", path));
  }

  Cursor c{buf.data(), buf.size()};
  char magic[4];
  if (!c.Get(&magic) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Cold("cache store has wrong magic (not an Icarus solver cache)");
  }
  uint32_t version = 0;
  if (!c.Get(&version) || version != kCacheStoreVersion) {
    return Cold(StrFormat("cache store version %u unsupported (want %u)", version,
                          kCacheStoreVersion));
  }
  std::string fingerprint;
  if (!c.GetString(&fingerprint)) {
    return Cold("cache store truncated in fingerprint");
  }
  if (fingerprint != expected_fingerprint) {
    return Cold("cache store fingerprint mismatch (written by an incompatible verifier)");
  }
  uint64_t count = 0;
  if (!c.Get(&count)) {
    return Cold("cache store truncated in entry count");
  }
  // Entries are loaded all-or-nothing: a torn tail means the writer died
  // mid-stream (rename should prevent this, but belt and braces) and partial
  // trust is not worth reasoning about.
  std::vector<std::pair<QueryKey, SolverCache::Entry>> entries;
  entries.reserve(static_cast<size_t>(std::min<uint64_t>(count, 1 << 20)));
  for (uint64_t i = 0; i < count; ++i) {
    QueryKey key;
    SolverCache::Entry entry;
    if (!GetEntry(&c, &key, &entry)) {
      return Cold(StrFormat("cache store truncated at entry %llu of %llu",
                            static_cast<unsigned long long>(i),
                            static_cast<unsigned long long>(count)));
    }
    entries.emplace_back(key, std::move(entry));
  }
  if (c.pos != c.size) {
    return Cold("cache store has trailing garbage");
  }
  for (auto& [key, entry] : entries) {
    cache->Preload(key, std::move(entry));
  }
  CacheLoadResult result;
  result.entries = entries.size();
  return result;
}

Status SaveSolverCache(const SolverCache& cache, const std::string& path,
                       const std::string& fingerprint, int64_t max_bytes) {
  std::vector<std::pair<QueryKey, SolverCache::Entry>> entries = cache.Export();
  // LRU bound: keep the most recently touched entries that fit. Serialize
  // newest-first, stop at the byte budget (header bytes count against it).
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.second.tick > b.second.tick; });

  std::string body;
  body.append(kMagic, sizeof(kMagic));
  PutRaw<uint32_t>(&body, kCacheStoreVersion);
  PutString(&body, fingerprint);
  size_t count_pos = body.size();
  PutRaw<uint64_t>(&body, 0);  // Patched below.

  uint64_t kept = 0;
  for (const auto& [key, entry] : entries) {
    size_t before = body.size();
    PutEntry(&body, key, entry);
    if (max_bytes > 0 && body.size() > static_cast<size_t>(max_bytes)) {
      body.resize(before);
      break;
    }
    ++kept;
  }
  uint64_t count_le = kept;
  std::memcpy(body.data() + count_pos, &count_le, sizeof(count_le));

  return ReplaceFile(path, body, "cache store");
}

}  // namespace icarus::sym
