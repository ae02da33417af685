#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

// Kept in its own translation unit so callers never inline the
// malloc/free pairing behind operator new/delete. Counters are per
// thread; the array, nothrow and sized forms of the standard library
// forward to the functions replaced here.

namespace {

thread_local bool tCounting = false;
thread_local std::uint64_t tCount = 0;
thread_local std::uint64_t tBytes = 0;

void
countAlloc(std::size_t n)
{
    if (tCounting) {
        ++tCount;
        tBytes += n;
    }
}

} // namespace

void*
operator new(std::size_t n)
{
    countAlloc(n);
    if (void* p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    countAlloc(n);
    std::size_t a = static_cast<std::size_t>(al);
    void* p = nullptr;
    if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                       n != 0 ? n : 1) == 0)
        return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace charllm {
namespace testing {

void
startAllocCounting()
{
    tCount = 0;
    tBytes = 0;
    tCounting = true;
}

AllocCount
stopAllocCounting()
{
    tCounting = false;
    return {tCount, tBytes};
}

} // namespace testing
} // namespace charllm
