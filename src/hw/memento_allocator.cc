#include "hw/memento_allocator.h"

#include "sim/logging.h"

namespace memento {

MementoAllocator::MementoAllocator(HwObjectAllocator &hw,
                                   MementoSpace &space, VirtualMemory &vm,
                                   StatRegistry &stats)
    : Allocator(vm, stats, "memento"), hw_(hw), space_(space)
{
}

Addr
MementoAllocator::smallMalloc(std::uint64_t size, Env &env)
{
    {
        // The obj-alloc instruction itself plus the size check in the
        // malloc shim (§4's first integration approach).
        CategoryScope scope(env.ledger(), CycleCategory::HwAlloc);
        env.chargeInstructions(3);
    }
    return hw_.objAlloc(space_, size, env, thread_);
}

void
MementoAllocator::smallFree(Addr ptr, Env &env)
{
    {
        CategoryScope scope(env.ledger(), CycleCategory::HwFree);
        env.chargeInstructions(3);
    }
    // The ledger already rejected pointers that are not live, so a
    // hardware free exception here means the model itself is wrong.
    FreeStatus status = hw_.objFree(space_, ptr, env, thread_);
    panic_if(status != FreeStatus::Ok,
             "memento: hardware raised a free exception for 0x", std::hex,
             ptr);
}

void
MementoAllocator::smallExit(Env &env)
{
    // Batch free: every arena goes back to the page allocator with
    // hardware latency; no kernel munmap walk happens for the region.
    hw_.releaseAllArenas(space_, env);
}

double
MementoAllocator::inactiveSlotFraction() const
{
    return hw_.inactiveSlotFraction(space_);
}

} // namespace memento
