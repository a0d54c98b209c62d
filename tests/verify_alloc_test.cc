// A verify pass allocates per unit and per query, not per term lookup or
// clause. This binary replaces the global operator new with one that
// counts, verifies all 38 units once at one job to warm process-wide state,
// and then requires a second run to make at most kMaxAllocations heap
// allocations. It prints the count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/platform/platform.h"
#include "src/verifier/batch_verifier.h"

namespace {
long g_allocations = 0;  // The test is single-threaded: one job runs on the caller.
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

namespace icarus::verifier {
namespace {

// Terms are interned without a heap key and live in the pool's arena, and
// clauses live in one array per solver. What still allocates is per unit
// (its pool table, solver tables, report row) and per query or path (path
// conditions, models, event strings).
constexpr long kMaxAllocations = 14000;

TEST(VerifyAllocTest, VerifyAllStaysWithinItsAllocationBudget) {
  StatusOr<std::unique_ptr<platform::Platform>> loaded = platform::Platform::Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  std::vector<std::string> names;
  for (const ast::FunctionDecl* fn : loaded.value()->module().Generators()) {
    names.emplace_back(fn->name);
  }
  ASSERT_EQ(names.size(), 38u);
  BatchVerifier batch(loaded.value().get());
  BatchOptions options;
  options.jobs = 1;
  {
    StatusOr<BatchReport> warm = batch.VerifyAll(names, options);
    ASSERT_TRUE(warm.ok()) << warm.status().message();
  }
  const long before = g_allocations;
  StatusOr<BatchReport> report = batch.VerifyAll(names, options);
  const long made = g_allocations - before;
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report.value().NumWithOutcome(Outcome::kVerified), 32);
  EXPECT_EQ(report.value().NumWithOutcome(Outcome::kRefuted), 6);
  std::printf("VerifyAll of %zu units made %ld heap allocations (budget %ld)\n", names.size(),
              made, kMaxAllocations);
  EXPECT_LE(made, kMaxAllocations);
}

}  // namespace
}  // namespace icarus::verifier
