/**
 * @file
 * The three-level inclusive cache hierarchy (L1I/L1D + L2 + LLC).
 *
 * Inclusion is maintained by back-invalidating inner levels when the LLC
 * evicts; dirty inner evictions merge downward; LLC dirty evictions write
 * back to DRAM through the MemoryController. The hierarchy also
 * implements the Memento main-memory bypass: a missing line flagged
 * bypassCandidate is instantiated zero-filled at the LLC (§3.3) instead
 * of being fetched, which removes the DRAM read from both the critical
 * path and the traffic totals.
 */

#ifndef MEMENTO_MEM_CACHE_HIERARCHY_H
#define MEMENTO_MEM_CACHE_HIERARCHY_H

#include "mem/access.h"
#include "mem/cache.h"
#include "mem/memory_controller.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace memento {

/** L1I/L1D + unified L2 + LLC slice in front of the memory controller. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const MachineConfig &cfg, StatRegistry &stats);

    /**
     * Perform a line access on behalf of the core or a hardware unit.
     *
     * @param paddr Physical address (any byte within the line).
     * @param type Read, Write, or Fetch.
     * @param now Current core cycle.
     * @param attrs Bypass eligibility.
     */
    AccessResult access(Addr paddr, AccessType type, Cycles now,
                        AccessAttrs attrs = {});

    /**
     * Instantiate a line dirty at the L1D without fetching it from
     * anywhere (used for full-line stores to freshly allocated memory
     * and for hardware-initialized metadata).
     */
    Cycles installLine(Addr paddr, Cycles now);

    /** Lines instantiated at the LLC via the bypass mechanism. */
    std::uint64_t bypassedLines() const { return bypasses_.value(); }

    const Cache &l1d() const { return l1d_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }
    const MemoryController &memCtrl() const { return memCtrl_; }

  private:
    /** Which of the probing L1 and the L2 a back-invalidation hit. */
    struct BackInvalidation
    {
        bool l1 = false;
        bool l2 = false;
    };

    /** Handle an eviction out of the L1 (merge into L2). */
    void absorbL1Eviction(const Cache::Eviction &ev, Cycles now);
    /** Handle an eviction out of the L2 (merge into LLC). */
    void absorbL2Eviction(const Cache::Eviction &ev, Cycles now);
    /**
     * Handle an eviction out of the LLC (writeback + back-invalidate).
     * @return whether the back-invalidation removed a line from @p l1
     *         (the L1 the current access probes) and from the L2.
     */
    BackInvalidation absorbLlcEviction(const Cache::Eviction &ev,
                                       const Cache &l1, Cycles now);
    /**
     * Fill a line that missed all three levels into the ways their
     * probes picked, LLC first (@p llc_dirty: bypass instantiation).
     */
    void fillAllLevels(Cache &l1, Cache::Line *l1_way,
                       Cache::Line *l2_way, Cache::Line *llc_way,
                       Addr line, bool llc_dirty, bool is_write,
                       Cycles now);

    Cache l1d_;
    Cache l1i_;
    Cache l2_;
    Cache llc_;
    MemoryController memCtrl_;

    Counter bypasses_;
    Counter demandFills_;
};

// ---- Hot-path inline definitions ----
//
// access() and its eviction helpers run once per simulated memory
// reference (tens of millions of times per workload); defining them
// here lets them inline into Machine's access paths together with the
// Cache probes they call.
//
// Probe-and-fill: each level's probe() that misses also returns the way
// the line will fill, so a missed level's set is scanned once. The one
// change to a set between its probe and its fill is an LLC
// back-invalidation that removes a line from it; the freed way then
// outranks the probed victim, so that level re-picks with victim(). The
// re-pick keys on whether invalidate() found the line, not on set
// equality (with the default geometries the LLC set index bits contain
// the L2 and L1 ones, so an LLC victim always shares both sets).

inline void
CacheHierarchy::absorbL1Eviction(const Cache::Eviction &ev, Cycles now)
{
    if (!ev.valid || !ev.dirty)
        return;
    // Inclusive hierarchy: the line is resident in L2 unless a racing
    // back-invalidation removed it; merge the dirty data downward.
    if (l2_.tryMarkDirty(ev.lineAddr))
        return;
    if (!llc_.tryMarkDirty(ev.lineAddr))
        memCtrl_.writeback(ev.lineAddr, now);
}

inline void
CacheHierarchy::absorbL2Eviction(const Cache::Eviction &ev, Cycles now)
{
    if (!ev.valid)
        return;
    if (ev.dirty && !llc_.tryMarkDirty(ev.lineAddr))
        memCtrl_.writeback(ev.lineAddr, now);
}

inline CacheHierarchy::BackInvalidation
CacheHierarchy::absorbLlcEviction(const Cache::Eviction &ev,
                                  const Cache &l1, Cycles now)
{
    if (!ev.valid)
        return {};
    // Back-invalidate inner levels to preserve inclusion; fold their
    // dirtiness into the writeback decision.
    const Cache::Eviction d = l1d_.invalidate(ev.lineAddr);
    const Cache::Eviction i = l1i_.invalidate(ev.lineAddr);
    const Cache::Eviction two = l2_.invalidate(ev.lineAddr);
    if (ev.dirty || d.dirty || i.dirty || two.dirty)
        memCtrl_.writeback(ev.lineAddr, now);
    return {(&l1 == &l1d_ ? d : i).valid, two.valid};
}

inline void
CacheHierarchy::fillAllLevels(Cache &l1, Cache::Line *l1_way,
                              Cache::Line *l2_way, Cache::Line *llc_way,
                              Addr line, bool llc_dirty, bool is_write,
                              Cycles now)
{
    const BackInvalidation inv =
        absorbLlcEviction(llc_.fill(llc_way, line, llc_dirty), l1, now);
    if (inv.l2)
        l2_way = l2_.victim(line);
    if (inv.l1)
        l1_way = l1.victim(line);
    absorbL2Eviction(l2_.fill(l2_way, line, false), now);
    absorbL1Eviction(l1.fill(l1_way, line, is_write), now);
}

inline AccessResult
CacheHierarchy::access(Addr paddr, AccessType type, Cycles now,
                       AccessAttrs attrs)
{
    const Addr line = lineBase(paddr);
    const bool is_write = type == AccessType::Write;
    Cache &l1 = type == AccessType::Fetch ? l1i_ : l1d_;

    AccessResult res;
    res.latency = l1.latency();
    Cache::Line *const l1_way = l1.probe(line, is_write);
    if (!l1_way) {
        res.servicedByLevel = 1;
        return res;
    }

    res.latency += l2_.latency();
    Cache::Line *const l2_way = l2_.probe(line, is_write);
    if (!l2_way) {
        // Refill the L1 from the L2.
        absorbL1Eviction(l1.fill(l1_way, line, is_write), now);
        res.servicedByLevel = 2;
        return res;
    }

    res.latency += llc_.latency();
    Cache::Line *const llc_way = llc_.probe(line, is_write);
    if (!llc_way) {
        absorbL2Eviction(l2_.fill(l2_way, line, false), now);
        absorbL1Eviction(l1.fill(l1_way, line, is_write), now);
        res.servicedByLevel = 3;
        return res;
    }

    if (attrs.bypassCandidate) {
        // §3.3: instantiate the never-written line zero-filled at the
        // LLC; the request propagates normally for coherence but no
        // DRAM fetch happens.
        ++bypasses_;
        fillAllLevels(l1, l1_way, l2_way, llc_way, line, true, is_write,
                      now);
        res.servicedByLevel = 3;
        res.bypassed = true;
        return res;
    }

    ++demandFills_;
    res.latency += memCtrl_.fill(line, now + res.latency);
    fillAllLevels(l1, l1_way, l2_way, llc_way, line, false, is_write, now);
    res.servicedByLevel = 4;
    return res;
}

inline Cycles
CacheHierarchy::installLine(Addr paddr, Cycles now)
{
    const Addr line = lineBase(paddr);
    Cache::Line *l1_way = l1d_.probe(line, /*is_write=*/true);
    if (!l1_way)
        return l1d_.latency();
    // L2/LLC residency is unknown here (they are not probed, so their
    // hit/miss counters stay untouched): install() them.
    if (absorbLlcEviction(llc_.install(line, false), l1d_, now).l1)
        l1_way = l1d_.victim(line);
    absorbL2Eviction(l2_.install(line, false), now);
    absorbL1Eviction(l1d_.fill(l1_way, line, /*dirty=*/true), now);
    return l1d_.latency();
}

} // namespace memento

#endif // MEMENTO_MEM_CACHE_HIERARCHY_H
