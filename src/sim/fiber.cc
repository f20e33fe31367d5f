/**
 * @file
 * Backend-independent Fiber pieces; the context-switch machinery itself
 * lives in fiber_asm.cc / fiber_asm_*.S or fiber_ucontext.cc (one of
 * which is compiled in, selected by CMake).
 */

#include "sim/fiber.hh"

#include <vector>

#include "util/logging.hh"

#if PIM_SIM_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace pim::sim {

namespace {

/** Free stacks kept per host thread: one launch of the widest DPU
 *  (24 tasklets) plus slack. */
constexpr size_t kPooledStacks = 32;

/** Default-size stacks of destroyed fibers, reused by this thread. */
thread_local std::vector<std::unique_ptr<uint8_t[]>> tl_free_stacks;

std::unique_ptr<uint8_t[]>
takeStack(size_t bytes)
{
    if (bytes != Fiber::kDefaultStackBytes || tl_free_stacks.empty())
        return std::unique_ptr<uint8_t[]>(new uint8_t[bytes]);
    std::unique_ptr<uint8_t[]> stack = std::move(tl_free_stacks.back());
    tl_free_stacks.pop_back();
    return stack;
}

} // namespace

Fiber::Fiber(std::function<void()> body, size_t stack_bytes)
    : body_(std::move(body)),
      stack_(takeStack(stack_bytes)),
      stackBytes_(stack_bytes)
{
    PIM_ASSERT(body_ != nullptr, "fiber requires a body");
    PIM_ASSERT(stack_bytes >= 16 * 1024, "fiber stack too small");
}

Fiber::~Fiber()
{
    if (stackBytes_ != kDefaultStackBytes
        || tl_free_stacks.size() >= kPooledStacks)
        return;
#if PIM_SIM_FIBER_ASAN
    // A finished fiber never returns from its entry frame, whose
    // redzones would otherwise stay poisoned for the next user.
    ASAN_UNPOISON_MEMORY_REGION(stack_.get(), stackBytes_);
#endif
    tl_free_stacks.push_back(std::move(stack_));
}

} // namespace pim::sim
