/**
 * @file
 * Set-associative TLB model (used for both the L1 and L2 levels).
 *
 * Each entry is 24 bytes: one key word (vpage << 6 | page shift; 0 =
 * invalid), so a single compare checks validity, granularity and page;
 * the physical base; and an LRU stamp (0 while invalid, so the first
 * minimum stamp of a set is its first invalid way, else its LRU way).
 */

#ifndef MEMENTO_MEM_TLB_H
#define MEMENTO_MEM_TLB_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace memento {

/** Shift of a 2 MiB huge page. */
inline constexpr unsigned kHugePageShift = 21;

/**
 * `vpage % sets` without a divide. A power-of-two set count is a mask.
 * Any other uses the direct remainder of Lemire, Kaser and Kurz
 * ("Faster remainder by direct computation", 2019): with
 * M = ceil(2^64 / sets), the index is the high word of
 * (M * vpage mod 2^64) * sets. That is always below `sets`, and it
 * equals `vpage % sets` for every vpage <= limit().
 */
class TlbSetIndex
{
  public:
    explicit TlbSetIndex(std::uint64_t sets);

    std::uint64_t
    operator()(Addr vpage) const
    {
        if (magic_ == 0)
            return vpage & mask_;
        using U128 = unsigned __int128;
        return static_cast<std::uint64_t>(
            (static_cast<U128>(magic_ * vpage) * sets_) >> 64);
    }

    /** Largest vpage whose index is exact (the insert guard). */
    Addr limit() const { return limit_; }

  private:
    std::uint64_t sets_;
    std::uint64_t mask_;  ///< sets_ - 1 (power-of-two counts).
    std::uint64_t magic_; ///< ceil(2^64 / sets_); 0 for a power of two.
    Addr limit_;
};

/** One level of virtual-to-physical translation caching. */
class Tlb
{
  public:
    Tlb(const std::string &name, const TlbConfig &cfg, StatRegistry &stats);

    /**
     * Look up the page containing @p vaddr (both 4 KiB and 2 MiB
     * granularities are probed).
     * @return the physical page base on a hit (base of the entry's own
     *         granularity).
     */
    std::optional<Addr> lookup(Addr vaddr);

    /**
     * Insert a translation for the page of @p vaddr at @p shift
     * granularity (4 KiB by default; pass kHugePageShift for THP).
     */
    void insert(Addr vaddr, Addr paddr, unsigned shift = kPageShift);

    /** Translate @p vaddr fully (base + offset) on a hit. */
    std::optional<Addr> translate(Addr vaddr);

    /** Drop the translation for the page of @p vaddr (shootdown). */
    void invalidatePage(Addr vaddr);

    /** Drop every translation (context switch). */
    void flushAll();

    Cycles latency() const { return latency_; }

    std::uint64_t hitCount() const { return hits_.value(); }
    std::uint64_t missCount() const { return misses_.value(); }

  private:
    struct Entry
    {
        Addr key = 0;   ///< keyOf(vpage, shift); 0 = invalid.
        Addr pbase = 0; ///< Physical base at the entry's granularity.
        std::uint64_t lruStamp = 0; ///< 0 while invalid.
    };

    /** Low key bits holding the page shift. */
    static constexpr unsigned kShiftBits = 6;

    static Addr
    keyOf(Addr vpage, unsigned shift)
    {
        return vpage << kShiftBits | shift;
    }
    static unsigned
    shiftOf(const Entry &e)
    {
        return static_cast<unsigned>(e.key & ((1u << kShiftBits) - 1));
    }

    Entry *find(Addr vaddr);
    Entry *findAt(Addr vaddr, unsigned shift);
    Entry *setOf(Addr vpage) { return &entries_[setIndex_(vpage) * ways_]; }

    std::string name_;
    TlbSetIndex setIndex_;
    unsigned ways_;
    Cycles latency_;
    std::vector<Entry> entries_;
    std::uint64_t lruClock_ = 0;
    /**
     * Resident 2 MiB entries. Lets find() skip the huge-granularity
     * set probe entirely while zero — the common case for workloads
     * that never map THP pages.
     */
    std::uint64_t hugeEntries_ = 0;

    Counter hits_;
    Counter misses_;
};

// ---- Hot-path inline definitions ----

inline Tlb::Entry *
Tlb::findAt(Addr vaddr, unsigned shift)
{
    // insert() refuses pages past setIndex_.limit(), so a lookup of one
    // lands in some in-range set and can only miss.
    const Addr vpage = vaddr >> shift;
    const Addr key = keyOf(vpage, shift);
    Entry *base = setOf(vpage);
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].key == key)
            return &base[w];
    }
    return nullptr;
}

inline Tlb::Entry *
Tlb::find(Addr vaddr)
{
    // Probe order (4 KiB before 2 MiB) matches the original dual-loop
    // scan; the huge probe is elided while no huge entry is resident.
    Entry *e = findAt(vaddr, kPageShift);
    if (!e && hugeEntries_ != 0)
        e = findAt(vaddr, kHugePageShift);
    return e;
}

inline std::optional<Addr>
Tlb::lookup(Addr vaddr)
{
    if (Entry *e = find(vaddr)) {
        e->lruStamp = ++lruClock_;
        ++hits_;
        return e->pbase;
    }
    ++misses_;
    return std::nullopt;
}

inline std::optional<Addr>
Tlb::translate(Addr vaddr)
{
    if (Entry *e = find(vaddr)) {
        e->lruStamp = ++lruClock_;
        ++hits_;
        return e->pbase + (vaddr & ((1ull << shiftOf(*e)) - 1));
    }
    ++misses_;
    return std::nullopt;
}

} // namespace memento

#endif // MEMENTO_MEM_TLB_H
