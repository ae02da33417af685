/**
 * @file
 * Counting global operator new for allocation-contract tests. Linking
 * alloc_counter.cc into a test binary replaces that binary's global
 * allocation functions; no library or other binary links it.
 */

#ifndef CHARLLM_TESTS_ALLOC_COUNTER_HH
#define CHARLLM_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace charllm {
namespace testing {

struct AllocCount
{
    std::uint64_t count;
    std::uint64_t bytes;
};

/** Zero this thread's counters and start counting its allocations. */
void startAllocCounting();

/** Stop counting; returns this thread's allocations since the start. */
AllocCount stopAllocCounting();

} // namespace testing
} // namespace charllm

#endif // CHARLLM_TESTS_ALLOC_COUNTER_HH
