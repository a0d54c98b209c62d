// A bump allocator for data that lives and dies together.
//
// Memory handed out stays valid until the arena is destroyed, which frees it
// all at once; nothing placed in an arena is ever destroyed on its own, so
// only trivially destructible types go in. An ast::Module keeps its source
// text, its expression and statement nodes and their lists in one (ast.h).
#ifndef ICARUS_SUPPORT_ARENA_H_
#define ICARUS_SUPPORT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace icarus {

class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // `size` bytes aligned to `align`, a power of two.
  void* Allocate(size_t size, size_t align) {
    const uintptr_t at = (reinterpret_cast<uintptr_t>(cur_) + align - 1) & ~(align - 1);
    if (cur_ != nullptr && at + size <= reinterpret_cast<uintptr_t>(end_)) {
      cur_ = reinterpret_cast<char*>(at + size);
      return reinterpret_cast<void*>(at);
    }
    return AllocateSlow(size, align);
  }

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>, "arena objects are never destroyed");
    return new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  // A copy of `items` in the arena; an empty list takes no memory.
  template <typename T>
  std::span<T> Copy(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>, "arena lists are copied bytewise");
    if (items.empty()) {
      return {};
    }
    T* out = static_cast<T*>(Allocate(items.size_bytes(), alignof(T)));
    std::memcpy(out, items.data(), items.size_bytes());
    return {out, items.size()};
  }

  // A copy of `text` in the arena.
  std::string_view Copy(std::string_view text) {
    if (text.empty()) {
      return {};
    }
    char* out = static_cast<char*>(Allocate(text.size(), 1));
    std::memcpy(out, text.data(), text.size());
    return {out, text.size()};
  }

  // A standard block holds this many bytes. A request over a quarter of it
  // gets a block of its own, so the current block's free space is not
  // thrown away.
  static constexpr size_t kBlockBytes = 64 * 1024;

 private:
  // Each block starts with this header; the blocks form a list, newest first.
  struct Block {
    Block* next;
    bool standard;  // kBlockBytes long, else sized for one request.
  };

  void* AllocateSlow(size_t size, size_t align);

  char* cur_ = nullptr;
  char* end_ = nullptr;
  Block* blocks_ = nullptr;
};

}  // namespace icarus

#endif  // ICARUS_SUPPORT_ARENA_H_
