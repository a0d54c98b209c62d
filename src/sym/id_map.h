// A map from keys to small non-negative ids, for the solver's registration
// tables (the Tseitin encoding of a term, a term's or an atom's theory id, a
// function symbol's id).
//
// One open-addressed array holds every entry: no node per entry, which is
// what a cold solver pays for most, since each solver registers every term
// of its generator once. Keys are compared by value, so an ExprRef key
// compares by node identity.
#ifndef ICARUS_SYM_ID_MAP_H_
#define ICARUS_SYM_ID_MAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "src/sym/expr.h"

namespace icarus::sym {

template <typename Key, typename Hash>
class IdMap {
 public:
  // The id of `key`, or -1.
  int32_t Find(const Key& key) const {
    if (size_ == 0) {
      return -1;
    }
    return slots_[Probe(key)].id;
  }

  // Maps `key`, which must be absent, to `id` (>= 0).
  void Insert(const Key& key, int32_t id) {
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? 64 : 2 * slots_.size());
    }
    slots_[Probe(key)] = Slot{key, id};
    ++size_;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    Key key{};
    int32_t id = -1;  // -1: the slot is free.
  };

  // The slot holding `key`, else the free slot where it would go. The table
  // is never more than half full, so a free slot exists.
  size_t Probe(const Key& key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash()(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].id < 0 || slots_[i].key == key) {
        return i;
      }
    }
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    for (const Slot& s : old) {
      if (s.id >= 0) {
        slots_[Probe(s.key)] = s;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

struct NodeHash {
  size_t operator()(ExprRef e) const {
    uint64_t h = reinterpret_cast<uintptr_t>(e) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

using NodeIdMap = IdMap<ExprRef, NodeHash>;
using NameIdMap = IdMap<std::string_view, std::hash<std::string_view>>;

}  // namespace icarus::sym

#endif  // ICARUS_SYM_ID_MAP_H_
