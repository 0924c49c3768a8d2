#include "rt/allocator.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/error.h"
#include "sim/logging.h"
#include "sim/size_class.h"

namespace memento {

const std::uint64_t *
LiveLedger::find(Addr ptr) const
{
    if (ptr == kNullAddr || slots_.empty())
        return nullptr;
    const Slot &slot = slots_[probe(ptr)];
    return slot.ptr == ptr ? &slot.size : nullptr;
}

void
LiveLedger::insert(Addr ptr, std::uint64_t size)
{
    panic_if(ptr == kNullAddr, "live ledger: null pointer");
    if (2 * (size_ + 1) > slots_.size())
        grow();
    Slot &slot = slots_[probe(ptr)];
    if (slot.ptr == kNullAddr) {
        slot.ptr = ptr;
        ++size_;
    }
    slot.size = size;
}

bool
LiveLedger::erase(Addr ptr, std::uint64_t &size)
{
    if (ptr == kNullAddr || slots_.empty())
        return false;
    std::size_t hole = probe(ptr);
    if (slots_[hole].ptr != ptr)
        return false;
    size = slots_[hole].size;
    // Backward shift: walk the rest of the probe run and move back
    // every entry whose home is not cyclically inside (hole, i], so
    // each remaining entry stays reachable from its home slot.
    for (std::size_t i = (hole + 1) & mask_; slots_[i].ptr != kNullAddr;
         i = (i + 1) & mask_) {
        if (((i - home(slots_[i].ptr)) & mask_) >= ((i - hole) & mask_)) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
}

void
LiveLedger::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
}

std::size_t
LiveLedger::probe(Addr ptr) const
{
    std::size_t i = home(ptr);
    while (slots_[i].ptr != ptr && slots_[i].ptr != kNullAddr)
        i = (i + 1) & mask_;
    return i;
}

void
LiveLedger::grow()
{
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(slots_.empty() ? 64 : 2 * slots_.size()));
    mask_ = slots_.size() - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot &slot : old) {
        if (slot.ptr != kNullAddr)
            slots_[probe(slot.ptr)] = slot;
    }
}

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
    live_.insert(ptr, size);
    liveBytes_ += size;
    return ptr;
}

void
Allocator::free(Addr ptr, Env &env)
{
    std::uint64_t size = 0;
    sim_error_if(!live_.erase(ptr, size), ErrorCategory::Internal, name(),
                 ": free of non-live pointer 0x", std::hex, ptr);
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
