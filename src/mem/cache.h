/**
 * @file
 * A functional set-associative cache model (tags only, LRU, write-back).
 *
 * The cache stores no data: it tracks which physical lines are resident
 * and dirty so the hierarchy can compute hit/miss latencies and DRAM
 * traffic. Timing is owned by CacheHierarchy.
 *
 * Each way is one 16-byte Line: a key word (the line base address with
 * bit 0 set; 0 = invalid) and a stamp word (LRU clock << 1 | dirty).
 * Stamps are unique, so comparing whole stamp words orders the ways
 * exactly by recency, and an invalid way (stamp 0) sorts before every
 * valid one: the way to fill is always the first minimum stamp. That
 * lets probe() report the fill way from the same scan that misses.
 */

#ifndef MEMENTO_MEM_CACHE_H
#define MEMENTO_MEM_CACHE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace memento {

/** One set-associative write-back cache level. */
class Cache
{
  public:
    /** Result of filling or invalidating a way: the line it removed. */
    struct Eviction
    {
        bool valid = false;
        Addr lineAddr = 0;
        bool dirty = false;
    };

    /**
     * One way of a set. Callers only pass the pointers probe() and
     * victim() return back to fill().
     */
    struct Line
    {
        Addr key = 0;             ///< lineBase | kValid; 0 = invalid.
        std::uint64_t stamp = 0;  ///< LRU clock << 1 | dirty; 0 = invalid.
    };

    /**
     * @param name Stat prefix, e.g. "l1d".
     * @param cfg Geometry and latency.
     * @param stats Registry receiving <name>.hits / <name>.misses.
     */
    Cache(const std::string &name, const CacheConfig &cfg,
          StatRegistry &stats);

    // The per-access methods below are defined inline at the bottom of
    // this header: they run tens of millions of times per workload
    // replay and dominate the self-benchmark profile when the compiler
    // cannot see their bodies from CacheHierarchy.

    /**
     * Look up @p paddr, counting a hit or a miss. On a hit, update LRU
     * and (for writes) the dirty bit. Does not allocate on miss — the
     * hierarchy fills lines explicitly so it can model bypass and
     * inclusion.
     *
     * @return nullptr on a hit; on a miss, the way fill() should use
     *         (the set's first invalid way, else its LRU way).
     */
    Line *probe(Addr paddr, bool is_write);

    /**
     * The way probe() would pick for the absent line @p paddr, without
     * counting an access. Used to re-pick after a back-invalidation
     * freed a way in the set since the probe.
     */
    Line *victim(Addr paddr);

    /**
     * Put the absent line holding @p paddr into @p way (from probe() or
     * victim() on this line's set, with no change to the set since),
     * evicting its current line. @p dirty marks the new line dirty.
     */
    Eviction fill(Line *way, Addr paddr, bool dirty);

    /** True if the line holding @p paddr is resident (no LRU update). */
    bool contains(Addr paddr) const;

    /**
     * Install the line holding @p paddr, evicting the set's LRU entry if
     * the set is full. @p dirty marks the new line dirty on arrival; a
     * resident line is refreshed and keeps its dirtiness.
     */
    Eviction install(Addr paddr, bool dirty);

    /**
     * Remove the line holding @p paddr if resident.
     * @return the removed line (valid = false when it was absent).
     */
    Eviction invalidate(Addr paddr);

    /**
     * Mark the resident line holding @p paddr dirty.
     * @return true if the line was resident.
     */
    bool tryMarkDirty(Addr paddr);

    /** Invalidate everything (returns number of dirty lines dropped). */
    std::uint64_t flushAll();

    /** Access latency from the configuration. */
    Cycles latency() const { return latency_; }

    /** Number of resident lines (for tests). */
    std::uint64_t residentLines() const;

    /** Visit every resident line as (line base address, dirty). */
    void forEachLine(
        const std::function<void(Addr lineAddr, bool dirty)> &fn) const;

    /**
     * Verify internal tag/set consistency: every valid line's tag must
     * map back to the set it occupies, no set may hold the same tag
     * twice, and no invalid way may be dirty. Appends one message per
     * violation to @p violations.
     * @return true when clean.
     */
    bool checkIntegrity(std::vector<std::string> &violations) const;

    const std::string &name() const { return name_; }

  private:
    friend struct InvariantTestPeer; ///< Corruption hooks for val tests.

    /** Key bit 0 (line addresses have it clear): the way is valid. */
    static constexpr Addr kValid = 1;
    /** Stamp bit 0: the line is dirty. */
    static constexpr std::uint64_t kDirty = 1;

    static Addr keyOf(Addr paddr) { return lineBase(paddr) | kValid; }
    Line *setOf(Addr paddr);
    /**
     * The one set scan behind probe() and install(): refresh a resident
     * line (merging @p dirty) and return nullptr, else return the fill
     * way.
     */
    Line *lookup(Addr paddr, bool dirty);
    std::uint64_t setIndex(Addr paddr) const;
    /** A fresh stamp word: the next clock value plus @p dirty. */
    std::uint64_t nextStamp(bool dirty) { return ++lruClock_ << 1 | dirty; }

    std::string name_;
    std::uint64_t numSets_;
    unsigned ways_;
    Cycles latency_;
    std::vector<Line> lines_; ///< numSets_ x ways_, row-major.
    std::uint64_t lruClock_ = 0;

    Counter hits_;
    Counter misses_;
    Counter evictions_;
    Counter dirtyEvictions_;
};

// ---- Hot-path inline definitions ----

inline std::uint64_t
Cache::setIndex(Addr paddr) const
{
    return (paddr >> kLineShift) & (numSets_ - 1);
}

inline Cache::Line *
Cache::setOf(Addr paddr)
{
    return &lines_[setIndex(paddr) * ways_];
}

inline Cache::Line *
Cache::lookup(Addr paddr, bool dirty)
{
    const Addr key = keyOf(paddr);
    Line *base = setOf(paddr);
    Line *lru = base;
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.key == key) {
            line.stamp = nextStamp(dirty) | (line.stamp & kDirty);
            return nullptr;
        }
        if (line.stamp < lru->stamp)
            lru = &line;
    }
    return lru;
}

inline Cache::Line *
Cache::probe(Addr paddr, bool is_write)
{
    Line *way = lookup(paddr, is_write);
    if (way)
        ++misses_;
    else
        ++hits_;
    return way;
}

inline Cache::Line *
Cache::victim(Addr paddr)
{
    Line *base = setOf(paddr);
    Line *lru = base;
    for (unsigned w = 1; w < ways_; ++w) {
        if (base[w].stamp < lru->stamp)
            lru = &base[w];
    }
    return lru;
}

inline Cache::Eviction
Cache::fill(Line *way, Addr paddr, bool dirty)
{
    Eviction evicted;
    if (way->key != 0) {
        evicted.valid = true;
        evicted.lineAddr = way->key & ~kValid;
        evicted.dirty = (way->stamp & kDirty) != 0;
        ++evictions_;
        if (evicted.dirty)
            ++dirtyEvictions_;
    }
    way->key = keyOf(paddr);
    way->stamp = nextStamp(dirty);
    return evicted;
}

inline bool
Cache::contains(Addr paddr) const
{
    const Addr key = keyOf(paddr);
    const Line *base = &lines_[setIndex(paddr) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].key == key)
            return true;
    }
    return false;
}

inline Cache::Eviction
Cache::install(Addr paddr, bool dirty)
{
    Line *way = lookup(paddr, dirty);
    return way ? fill(way, paddr, dirty) : Eviction{};
}

inline bool
Cache::tryMarkDirty(Addr paddr)
{
    const Addr key = keyOf(paddr);
    Line *base = setOf(paddr);
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.key == key) {
            line.stamp |= kDirty;
            return true;
        }
    }
    return false;
}

} // namespace memento

#endif // MEMENTO_MEM_CACHE_H
