// Platform::Load allocates per module, not per token, node or name. This
// binary replaces the global operator new with one that counts, loads the
// platform once to warm process-wide state, and then requires one more load
// to make at most kMaxAllocations heap allocations. It prints the count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/platform/platform.h"

namespace {
long g_allocations = 0;  // The test is single-threaded.
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace icarus::platform {
namespace {

// The platform has about 16,000 tokens, 3,800 expression and statement
// nodes and 400 declarations. What may allocate one by one is a
// declaration and its module-level tables; tokens, nodes, lists and names
// come from per-module storage.
constexpr long kMaxAllocations = 2000;

TEST(LoadAllocTest, PlatformLoadStaysWithinItsAllocationBudget) {
  {
    auto warm = Platform::Load();
    ASSERT_TRUE(warm.ok()) << warm.status().message();
  }
  const long before = g_allocations;
  auto loaded = Platform::Load();
  const long made = g_allocations - before;
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  std::printf("Platform::Load made %ld heap allocations (budget %ld)\n", made, kMaxAllocations);
  EXPECT_LE(made, kMaxAllocations);
}

}  // namespace
}  // namespace icarus::platform
