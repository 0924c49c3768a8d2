#include "rt/allocator.h"

#include "sim/error.h"
#include "sim/logging.h"
#include "sim/size_class.h"

namespace memento {

Allocator::Allocator(VirtualMemory &vm, StatRegistry &stats,
                     const std::string &prefix)
    : large_(vm, stats, prefix)
{
}

// The three entry points stay out of line: inlined into the trace
// executor's dispatch loop they made replay measurably slower.

Addr
Allocator::malloc(std::uint64_t size, Env &env)
{
    panic_if(size == 0, name(), ": zero-size malloc");
    const Addr ptr = size > kMaxSmallSize ? large_.malloc(size, env)
                                          : smallMalloc(size, env);
    live_[ptr] = size;
    liveBytes_ += size;
    return ptr;
}

void
Allocator::free(Addr ptr, Env &env)
{
    auto it = live_.find(ptr);
    sim_error_if(it == live_.end(), ErrorCategory::Internal, name(),
                 ": free of non-live pointer 0x", std::hex, ptr);
    const std::uint64_t size = it->second;
    live_.erase(it);
    liveBytes_ -= size;
    if (size > kMaxSmallSize)
        large_.free(ptr, env);
    else
        smallFree(ptr, env);
}

void
Allocator::functionExit(Env &env)
{
    smallExit(env);
    live_.clear();
    liveBytes_ = 0;
    large_.releaseAll(env);
}

} // namespace memento
