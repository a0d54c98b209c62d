// A table from names to entries, for lookup by std::string_view.
//
// One open-addressed array holds every entry: no node per entry, and a
// lookup builds no string. The keys are views, so each name must outlive the
// table; an ast::Module's tables key on views of its declarations' names,
// which its arena holds (ast.h).
#ifndef ICARUS_SUPPORT_NAME_TABLE_H_
#define ICARUS_SUPPORT_NAME_TABLE_H_

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

namespace icarus {

template <typename T>
class NameTable {
 public:
  // Adds `name` → `entry` (not null); false, and no change, when the name is
  // taken.
  bool Insert(std::string_view name, T* entry) {
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? 16 : 2 * slots_.size());
    }
    const size_t hash = std::hash<std::string_view>()(name);
    Slot& slot = slots_[Probe(name, hash)];
    if (slot.entry != nullptr) {
      return false;
    }
    slot = Slot{name, hash, entry};
    ++size_;
    return true;
  }

  // The entry of `name`, or null.
  T* Find(std::string_view name) const {
    if (size_ == 0) {
      return nullptr;
    }
    return slots_[Probe(name, std::hash<std::string_view>()(name))].entry;
  }

  // Room for `n` names without regrowing.
  void Reserve(size_t n) {
    size_t capacity = slots_.empty() ? 16 : slots_.size();
    while (2 * n > capacity) {
      capacity *= 2;
    }
    if (capacity > slots_.size()) {
      Rehash(capacity);
    }
  }

  void Clear() {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    std::string_view name;
    size_t hash = 0;
    T* entry = nullptr;  // Null: the slot is free.
  };

  // The index of the slot holding `name`, else of the free slot where it
  // would go. The table is never more than half full, so a free slot exists.
  size_t Probe(std::string_view name, size_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.entry == nullptr || (slot.hash == hash && slot.name == name)) {
        return i;
      }
    }
  }

  // Moves every entry into a new array of `capacity` slots, a power of two.
  void Rehash(size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.entry != nullptr) {
        slots_[Probe(slot.name, slot.hash)] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace icarus

#endif  // ICARUS_SUPPORT_NAME_TABLE_H_
