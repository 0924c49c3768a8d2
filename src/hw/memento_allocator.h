/**
 * @file
 * The software-visible face of Memento: an rt::Allocator whose small
 * path executes the obj-alloc/obj-free ISA extensions and whose large
 * path (>512 B) falls back to the software allocator, following the
 * integration approach chosen in §4 (malloc checks the size; free
 * routes on the size the Allocator ledger recorded).
 */

#ifndef MEMENTO_HW_MEMENTO_ALLOCATOR_H
#define MEMENTO_HW_MEMENTO_ALLOCATOR_H

#include "hw/hw_object_allocator.h"
#include "rt/allocator.h"

namespace memento {

/** Allocator adapter over the Memento hardware. */
class MementoAllocator : public Allocator
{
  public:
    /**
     * @param hw The core's hardware object allocator.
     * @param space This process's Memento state.
     * @param vm Address space (for the software large-object path).
     */
    MementoAllocator(HwObjectAllocator &hw, MementoSpace &space,
                     VirtualMemory &vm, StatRegistry &stats);

    std::string name() const override { return "memento"; }
    double inactiveSlotFraction() const override;

    MementoSpace &space() { return space_; }

    /** Set the executing thread id (multi-threaded workloads, §4). */
    void setThread(unsigned thread) { thread_ = thread; }
    unsigned thread() const { return thread_; }

  protected:
    Addr smallMalloc(std::uint64_t size, Env &env) override;
    void smallFree(Addr ptr, Env &env) override;
    void smallExit(Env &env) override;

  private:
    HwObjectAllocator &hw_;
    MementoSpace &space_;
    unsigned thread_ = 0;
};

} // namespace memento

#endif // MEMENTO_HW_MEMENTO_ALLOCATOR_H
