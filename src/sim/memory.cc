#include "sim/memory.hh"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "util/host_placement.hh"

namespace pim::sim {

FlatMemory::FlatMemory(size_t bytes, const char *name)
    : data_(static_cast<uint8_t *>(std::calloc(bytes ? bytes : 1, 1)),
            &std::free),
      size_(bytes), name_(name)
{
    PIM_ASSERT(data_ != nullptr, name, " allocation of ", bytes,
               " bytes failed");
}

void
FlatMemory::reset()
{
    // Reallocating, not fill(0, size_, 0): discarding a whole touched
    // bank with madvise measured slower in the next PimSystem's
    // construction (graph-ingest setup.system_s 0.020 -> 0.034 s).
    data_.reset(
        static_cast<uint8_t *>(std::calloc(size_ ? size_ : 1, 1)));
    PIM_ASSERT(data_ != nullptr, name_, " reallocation of ", size_,
               " bytes failed");
}

bool
FlatMemory::bindToCallingThread()
{
    return util::bindMemoryToCurrentNode(data_.get(), size_);
}

void
FlatMemory::checkRange(MramAddr addr, size_t n) const
{
    PIM_ASSERT(static_cast<size_t>(addr) + n <= size_,
               name_, " access out of range: addr=", addr, " len=", n,
               " size=", size_);
}

void
FlatMemory::readBytes(MramAddr addr, void *dst, size_t n) const
{
    checkRange(addr, n);
    std::memcpy(dst, data_.get() + addr, n);
}

void
FlatMemory::writeBytes(MramAddr addr, const void *src, size_t n)
{
    checkRange(addr, n);
    std::memcpy(data_.get() + addr, src, n);
}

void
FlatMemory::moveBytes(MramAddr dst, MramAddr src, size_t n)
{
    checkRange(dst, n);
    checkRange(src, n);
    std::memmove(data_.get() + dst, data_.get() + src, n);
}

void
FlatMemory::fill(MramAddr addr, size_t n, uint8_t value)
{
    checkRange(addr, n);
    uint8_t *begin = data_.get() + addr;
    uint8_t *end = begin + n;
#if defined(__linux__)
    if (value == 0) {
        static const uintptr_t page =
            static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
        auto *lo = reinterpret_cast<uint8_t *>(
            (reinterpret_cast<uintptr_t>(begin) + page - 1) & ~(page - 1));
        auto *hi = reinterpret_cast<uint8_t *>(
            reinterpret_cast<uintptr_t>(end) & ~(page - 1));
        // The backing store is private anonymous memory (calloc), so
        // discarded pages read back as zero.
        if (lo < hi
            && madvise(lo, static_cast<size_t>(hi - lo), MADV_DONTNEED)
                == 0) {
            std::memset(begin, 0, static_cast<size_t>(lo - begin));
            std::memset(hi, 0, static_cast<size_t>(end - hi));
            return;
        }
    }
#endif
    std::memset(begin, value, n);
}

} // namespace pim::sim
