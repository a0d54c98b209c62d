#include "src/support/arena.h"

#include <sanitizer/asan_interface.h>

#include <mutex>
#include <vector>

namespace icarus {

namespace {

// Standard blocks of arenas that died, for the next arena to take: a
// module freed and parsed again, as in an edit-and-reverify loop, reuses
// pages that are already mapped instead of faulting in the ones the C
// allocator handed back to the system when the big blocks were freed
// together. Holds at most kCachedBlocks blocks, about two platform modules'
// worth. Under AddressSanitizer a cached block is poisoned, so a view that
// outlives its module still faults as it would in freed memory.
class BlockCache {
 public:
  static constexpr size_t kCachedBlocks = 24;

  void* Take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (blocks_.empty()) {
      return nullptr;
    }
    void* block = blocks_.back();
    blocks_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(block, Arena::kBlockBytes);
    return block;
  }

  // False when the cache is full; the caller frees the block.
  bool Give(void* block) {
    std::lock_guard<std::mutex> lock(mu_);
    if (blocks_.size() >= kCachedBlocks) {
      return false;
    }
    if (blocks_.capacity() == 0) {
      blocks_.reserve(kCachedBlocks);
    }
    blocks_.push_back(block);
    ASAN_POISON_MEMORY_REGION(block, Arena::kBlockBytes);
    return true;
  }

 private:
  std::mutex mu_;
  std::vector<void*> blocks_;
};

BlockCache& Cache() {
  static BlockCache* cache = new BlockCache();  // Never destroyed: arenas may die late.
  return *cache;
}

}  // namespace

Arena::~Arena() {
  while (blocks_ != nullptr) {
    Block* next = blocks_->next;
    if (!blocks_->standard || !Cache().Give(blocks_)) {
      ::operator delete(blocks_);
    }
    blocks_ = next;
  }
}

void* Arena::AllocateSlow(size_t size, size_t align) {
  if (size + align > kBlockBytes / 4) {
    // A block of its own, behind the current one, which stays current.
    auto* block = static_cast<Block*>(::operator new(sizeof(Block) + size + align));
    block->standard = false;
    if (blocks_ == nullptr) {
      block->next = nullptr;
      blocks_ = block;
    } else {
      block->next = blocks_->next;
      blocks_->next = block;
    }
    const uintptr_t data = reinterpret_cast<uintptr_t>(block + 1);
    return reinterpret_cast<void*>((data + align - 1) & ~(align - 1));
  }
  void* memory = Cache().Take();
  auto* block = static_cast<Block*>(memory != nullptr ? memory : ::operator new(kBlockBytes));
  block->standard = true;
  block->next = blocks_;
  blocks_ = block;
  cur_ = reinterpret_cast<char*>(block + 1);
  end_ = reinterpret_cast<char*>(block) + kBlockBytes;
  return Allocate(size, align);
}

}  // namespace icarus
