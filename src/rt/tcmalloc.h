/**
 * @file
 * Model of TCMalloc — the allocator Mallacc (§6.7's comparator) was
 * built to accelerate.
 *
 * Structure follows the classic design: per-thread caches hold size-
 * classed singly-linked free lists; misses refill in batches from the
 * central free lists, which carve spans from the page heap; the page
 * heap grows via mmap in large increments and keeps freed spans for
 * reuse. Compared to the jemalloc model: TCMalloc's thread-cache free
 * lists are threaded through the objects themselves (the free pop
 * dereferences the object — the load Mallacc's cache short-circuits),
 * and its central lists transfer in fixed batch sizes.
 *
 * Offered as an alternative C++ baseline: construct it instead of
 * JeMalloc. The §6.7 idealized Mallacc (hw/mallacc.h, `figures
 * comp_mallacc`) is this model with the cached operations at zero
 * cost; the allocator tests drive it directly.
 */

#ifndef MEMENTO_RT_TCMALLOC_H
#define MEMENTO_RT_TCMALLOC_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rt/allocator.h"
#include "sim/size_class.h"
#include "sim/stats.h"

namespace memento {

/** TCMalloc-like thread-cache / central-list / page-heap allocator. */
class TcMalloc : public Allocator
{
  public:
    struct Params
    {
        /** Span size carved by the central lists. */
        std::uint64_t spanBytes = 32 << 10;
        /** Page-heap growth increment (sys_alloc). */
        std::uint64_t growBytes = 1 << 20;
        /** Thread-cache capacity per class (object count). */
        unsigned cacheMax = 64;
        /** Objects moved per central transfer. */
        unsigned transferBatch = 16;
        /**
         * Instruction budgets for the paths Mallacc accelerates (size
         * class lookup + free-list pop/push) and the rest of the fast
         * path.
         */
        InstCount cachedPathInstructions = 14;
        InstCount restOfFastPathInstructions = 12;
        /** Follow the free-list pointer inside the object on pop. */
        bool popTouchesObject = true;
    };

    TcMalloc(VirtualMemory &vm, StatRegistry &stats, Params params);
    TcMalloc(VirtualMemory &vm, StatRegistry &stats);

    double inactiveSlotFraction() const override;
    std::string name() const override { return "tcmalloc"; }

  protected:
    Addr smallMalloc(std::uint64_t size, Env &env) override;
    void smallFree(Addr ptr, Env &env) override;
    void smallExit(Env &env) override;

  private:
    struct Span
    {
        Addr base = 0;
        unsigned szclass = 0;
        unsigned capacity = 0;
        unsigned carved = 0;
        unsigned live = 0;
    };

    /** Refill the class's thread cache from the central list. */
    void refill(unsigned cls, Env &env);
    /** Release half the thread cache back to the central list. */
    void release(unsigned cls, Env &env);
    Span &spanOf(Addr ptr);

    VirtualMemory &vm_;
    Params params_;

    /** Thread cache: per-class LIFO of object addresses. */
    std::vector<std::vector<Addr>> cache_;
    /** Central free lists: per-class objects returned by releases. */
    std::vector<std::vector<Addr>> central_;
    /** Spans by base address. */
    std::unordered_map<Addr, Span> spans_;
    /** Per-class span with uncarved objects. */
    std::vector<Addr> openSpan_;

    /** Page-heap growth region. */
    Addr growBase_ = 0;
    std::uint64_t growUsed_ = 0;
    std::uint64_t growSize_ = 0;
    /** All growth regions mapped so far (for teardown). */
    std::vector<Addr> regions_;

    /** Central/pageheap metadata region (pre-populated, warm). */
    Addr metaRegion_ = 0;

    Counter smallMallocs_;
    Counter smallFrees_;
    Counter refills_;
    Counter releases_;
    Counter spanCarves_;
    Counter heapGrows_;
};

} // namespace memento

#endif // MEMENTO_RT_TCMALLOC_H
