/**
 * @file
 * The userspace allocator interface the simulated application calls.
 *
 * Implementations are *models of algorithms*: they maintain the same
 * metadata structures as the real allocators, place that metadata at
 * real simulated virtual addresses, and touch it through Env so that
 * cache behaviour, TLB behaviour, page faults and kernel calls all
 * surface exactly where the real software would cause them.
 *
 * The base owns everything the models share: the live-object ledger
 * (a LiveLedger of pointer -> requested size, plus the live-byte
 * total), the size-0 assertion, the bad-free check, and the routing
 * of every request above kMaxSmallSize to one glibc-style large-object
 * model (§4: the same software path serves large objects in both the
 * baseline and Memento). A model implements only its small-object path.
 *
 * malloc() charges under CycleCategory::UserAlloc, free() under
 * UserFree; kernel work they trigger re-scopes itself (see
 * VirtualMemory).
 */

#ifndef MEMENTO_RT_ALLOCATOR_H
#define MEMENTO_RT_ALLOCATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "mem/env.h"
#include "rt/glibc_large.h"
#include "sim/types.h"

namespace memento {

/**
 * Live-object ledger: pointer -> requested size. Open addressing with
 * linear probing over a power-of-two slot array kept at most half full,
 * and backward-shift erase, so there are no tombstones and no heap node
 * per object. Pointer 0 (kNullAddr, never an allocation) marks an empty
 * slot.
 */
class LiveLedger
{
  public:
    /** Requested size of live @p ptr, or nullptr when it is not live. */
    const std::uint64_t *find(Addr ptr) const;

    /** Record @p ptr (not kNullAddr) as live with @p size. */
    void insert(Addr ptr, std::uint64_t size);

    /**
     * Drop @p ptr and store its size in @p size.
     * @return false (and change nothing) when @p ptr is not live.
     */
    bool erase(Addr ptr, std::uint64_t &size);

    /** Drop every entry, keeping the slot array. */
    void clear();

    /** Live entries. */
    std::size_t size() const { return size_; }

  private:
    struct Slot
    {
        Addr ptr = kNullAddr;
        std::uint64_t size = 0;
    };

    /** Fibonacci hash: the top bits of ptr * 2^64/phi. */
    std::size_t
    home(Addr ptr) const
    {
        return static_cast<std::size_t>((ptr * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    /** Slot holding @p ptr, or the empty slot ending its probe run. */
    std::size_t probe(Addr ptr) const;

    /** Double the slot array and re-insert every entry. */
    void grow();

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

/** Userspace allocator: shared ledger and large path, per-model small path. */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /**
     * Allocate @p size (> 0) bytes.
     * @return virtual address of the object (never kNullAddr).
     */
    Addr malloc(std::uint64_t size, Env &env);

    /**
     * Release the object at @p ptr. For garbage-collected runtimes this
     * records unreachability; reclamation may be deferred to a GC cycle
     * or to functionExit(). A pointer that is not live raises
     * SimError(ErrorCategory::Internal) before any state changes.
     */
    void free(Addr ptr, Env &env);

    /**
     * Function/process teardown: batch-free everything still live and
     * return memory to the OS (the "freed by the OS when the function
     * exits" path of §2.2). The small heap goes first, then the large
     * model.
     */
    void functionExit(Env &env);

    /** True when @p ptr is a live allocation (test/validation hook). */
    bool isLive(Addr ptr) const { return live_.find(ptr) != nullptr; }

    /** Bytes currently live (requested sizes). */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /**
     * Fraction of small-object slots currently tracked by the
     * allocator's metadata that are not live (the §6.6 fragmentation
     * metric; mixes fragmentation and free memory).
     */
    virtual double inactiveSlotFraction() const { return 0.0; }

    /** Allocator display name. */
    virtual std::string name() const = 0;

  protected:
    /** @param prefix Stat prefix of the large model ("<prefix>.large_*"). */
    Allocator(VirtualMemory &vm, StatRegistry &stats,
              const std::string &prefix);

    /** Allocate 1..kMaxSmallSize bytes from the model's small heap. */
    virtual Addr smallMalloc(std::uint64_t size, Env &env) = 0;

    /** Release a live small object (already removed from the ledger). */
    virtual void smallFree(Addr ptr, Env &env) = 0;

    /** Tear down the small heap (first step of functionExit()). */
    virtual void smallExit(Env &env) = 0;

    /** Live small objects (the ledger minus the large model's). */
    std::size_t
    liveSmallObjects() const
    {
        return live_.size() - large_.liveObjects();
    }

  private:
    GlibcLargeAlloc large_;
    LiveLedger live_;
    std::uint64_t liveBytes_ = 0;
};

} // namespace memento

#endif // MEMENTO_RT_ALLOCATOR_H
