/**
 * @file
 * Unit tests for the cache model, DRAM model, and the inclusive
 * hierarchy (hit/miss behaviour, LRU, inclusion maintenance,
 * writeback traffic, and the Memento bypass path).
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "mem/cache.h"
#include "mem/cache_hierarchy.h"
#include "mem/dram.h"
#include "sim/rng.h"
#include "test_util.h"

namespace memento {
namespace {

using test::smallConfig;

class CacheTest : public ::testing::Test
{
  protected:
    StatRegistry stats;
    // 4 KiB, 4-way, 64 B lines -> 16 sets.
    Cache cache{"c", CacheConfig{4 << 10, 4, 3}, stats};

    /** Address falling in @p set with tag nonce @p n. */
    static Addr
    addrInSet(std::uint64_t set, std::uint64_t n)
    {
        return (set << kLineShift) + (n << (kLineShift + 4));
    }
};

TEST_F(CacheTest, MissThenHitAfterInstall)
{
    EXPECT_NE(cache.probe(0x1000, false), nullptr);
    cache.install(0x1000, false);
    EXPECT_EQ(cache.probe(0x1000, false), nullptr);
    EXPECT_EQ(stats.value("c.hits"), 1u);
    EXPECT_EQ(stats.value("c.misses"), 1u);
}

TEST_F(CacheTest, SameLineDifferentBytesHit)
{
    cache.install(0x1000, false);
    EXPECT_EQ(cache.probe(0x103F, false), nullptr);
    EXPECT_EQ(cache.probe(0x1001, true), nullptr);
}

TEST_F(CacheTest, WriteSetsDirtyAndEvictionReportsIt)
{
    Addr target = addrInSet(7, 1);
    cache.install(target, false);
    EXPECT_EQ(cache.probe(target, true), nullptr); // Dirty now.

    // Fill the set until the dirty line is evicted.
    bool saw_dirty_victim = false;
    for (std::uint64_t n = 2; n < 8; ++n) {
        Cache::Eviction ev = cache.install(addrInSet(7, n), false);
        if (ev.valid && ev.lineAddr == lineBase(target)) {
            EXPECT_TRUE(ev.dirty);
            saw_dirty_victim = true;
        }
    }
    EXPECT_TRUE(saw_dirty_victim);
}

TEST_F(CacheTest, LruEvictsOldest)
{
    // Fill one set with 4 lines, touch the first to refresh it, then
    // install a 5th: the second line (now LRU) must be evicted.
    std::vector<Addr> addrs;
    for (std::uint64_t n = 0; n < 4; ++n) {
        Addr a = addrInSet(5, n + 1);
        addrs.push_back(a);
        cache.install(a, false);
    }
    EXPECT_EQ(cache.probe(addrs[0], false), nullptr); // Refresh LRU order.

    Cache::Eviction ev = cache.install(addrInSet(5, 9), false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, lineBase(addrs[1]));
    EXPECT_TRUE(cache.contains(addrs[0]));
    EXPECT_FALSE(cache.contains(addrs[1]));
}

TEST_F(CacheTest, DirtyEvictionFlagged)
{
    for (std::uint64_t n = 0; n < 4; ++n)
        cache.install(addrInSet(3, n + 1), false);
    cache.probe(addrInSet(3, 1), true); // Dirty, and refreshes.

    // Evict three clean ones; dirty line remains until last.
    unsigned dirty_evictions = 0;
    for (std::uint64_t n = 10; n < 14; ++n) {
        Cache::Eviction ev = cache.install(addrInSet(3, n), false);
        if (ev.valid && ev.dirty)
            ++dirty_evictions;
    }
    EXPECT_EQ(dirty_evictions, 1u);
}

TEST_F(CacheTest, InvalidateReturnsDirtiness)
{
    cache.install(0x2000, false);
    const Cache::Eviction removed = cache.invalidate(0x2010);
    EXPECT_TRUE(removed.valid);
    EXPECT_EQ(removed.lineAddr, 0x2000u);
    EXPECT_FALSE(removed.dirty);
    EXPECT_FALSE(cache.contains(0x2000));

    cache.install(0x3000, true);
    EXPECT_TRUE(cache.invalidate(0x3000).dirty);
    EXPECT_FALSE(cache.invalidate(0x3000).valid); // Already gone.
}

TEST_F(CacheTest, InstallExistingLineMergesDirty)
{
    cache.install(0x4000, true);
    Cache::Eviction ev = cache.install(0x4000, false);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(cache.invalidate(0x4000).dirty); // Still dirty.
}

TEST_F(CacheTest, FlushAllCountsDirtyLines)
{
    cache.install(0x1000, true);
    cache.install(0x2000, false);
    cache.install(0x3000, true);
    EXPECT_EQ(cache.flushAll(), 2u);
    EXPECT_EQ(cache.residentLines(), 0u);
}

TEST(CacheGeometry, ParamSweepResidency)
{
    // Property: a cache never holds more lines than its capacity and
    // re-accessing installed lines within capacity always hits.
    for (unsigned ways : {1u, 2u, 4u, 8u}) {
        for (std::uint64_t kb : {1u, 4u, 16u}) {
            StatRegistry stats;
            Cache cache("c", CacheConfig{kb << 10, ways, 1}, stats);
            const std::uint64_t lines = (kb << 10) / kLineSize;
            for (std::uint64_t i = 0; i < 4 * lines; ++i)
                cache.install(i * kLineSize, false);
            EXPECT_LE(cache.residentLines(), lines);

            // Sequential fill of exactly one set's worth always hits.
            for (unsigned w = 0; w < ways; ++w)
                cache.install((w * lines / ways) * kLineSize, false);
            for (unsigned w = 0; w < ways; ++w)
                EXPECT_EQ(
                    cache.probe((w * lines / ways) * kLineSize, false),
                    nullptr);
        }
    }
}

// ---------------------------------------------------------------------
// DRAM model
// ---------------------------------------------------------------------

TEST(Dram, RowHitFasterThanMiss)
{
    StatRegistry stats;
    DramConfig cfg;
    Dram dram(cfg, stats);
    Cycles first = dram.access(0x10000, false, 0);
    Cycles second = dram.access(0x10000 + kLineSize * cfg.banks, false,
                                first); // Same bank, same row region?
    (void)second;
    // First access opens the row (miss); an access to the same row on
    // the same bank afterwards is a hit.
    Cycles third = dram.access(0x10000, false, 10'000);
    EXPECT_GT(first, third);
    EXPECT_EQ(stats.value("dram.row_hits") +
                  stats.value("dram.row_misses"),
              3u);
}

TEST(Dram, TrafficAccounting)
{
    StatRegistry stats;
    Dram dram(DramConfig{}, stats);
    dram.access(0x0, false, 0);
    dram.access(0x40, true, 0);
    EXPECT_EQ(dram.totalBytes(), 2 * kLineSize);
    EXPECT_EQ(dram.readCount(), 1u);
    EXPECT_EQ(dram.writeCount(), 1u);
}

TEST(Dram, WritebacksReturnZeroLatency)
{
    StatRegistry stats;
    Dram dram(DramConfig{}, stats);
    EXPECT_EQ(dram.access(0x80, true, 0), 0u);
    EXPECT_GT(dram.access(0x80, false, 0), 0u);
}

TEST(Dram, BankQueuingPenalty)
{
    StatRegistry stats;
    DramConfig cfg;
    Dram dram(cfg, stats);
    // Two immediate accesses to the same bank and row: the second
    // queues behind the first.
    Cycles a = dram.access(0x0, false, 0);
    Cycles b = dram.access(0x0, false, 0);
    EXPECT_EQ(b, cfg.hitLatency + cfg.bankBusyPenalty);
    (void)a;
}

// ---------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------

class HierarchyTest : public ::testing::Test
{
  protected:
    StatRegistry stats;
    MachineConfig cfg = smallConfig();
    CacheHierarchy hier{cfg, stats};
};

TEST_F(HierarchyTest, ColdMissGoesToDram)
{
    AccessResult res = hier.access(0x10000, AccessType::Read, 0);
    EXPECT_EQ(res.servicedByLevel, 4u);
    EXPECT_EQ(stats.value("dram.reads"), 1u);
    // Latency covers every level plus DRAM.
    EXPECT_GE(res.latency, cfg.l1d.latency + cfg.l2.latency +
                               cfg.llc.latency + cfg.dram.hitLatency);
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    hier.access(0x10000, AccessType::Read, 0);
    AccessResult res = hier.access(0x10000, AccessType::Read, 100);
    EXPECT_EQ(res.servicedByLevel, 1u);
    EXPECT_EQ(res.latency, cfg.l1d.latency);
}

TEST_F(HierarchyTest, FetchUsesL1I)
{
    hier.access(0x20000, AccessType::Fetch, 0);
    EXPECT_EQ(stats.value("l1i.misses"), 1u);
    EXPECT_EQ(stats.value("l1d.misses"), 0u);
    AccessResult res = hier.access(0x20000, AccessType::Fetch, 10);
    EXPECT_EQ(res.servicedByLevel, 1u);
}

TEST_F(HierarchyTest, BypassInstantiatesAtLlcWithoutDram)
{
    AccessAttrs attrs;
    attrs.bypassCandidate = true;
    AccessResult res = hier.access(0x30000, AccessType::Write, 0, attrs);
    EXPECT_TRUE(res.bypassed);
    EXPECT_EQ(res.servicedByLevel, 3u);
    EXPECT_EQ(stats.value("dram.reads"), 0u);
    EXPECT_EQ(hier.bypassedLines(), 1u);

    // The line is now resident: subsequent access hits L1.
    AccessResult again = hier.access(0x30000, AccessType::Read, 10);
    EXPECT_EQ(again.servicedByLevel, 1u);
}

TEST_F(HierarchyTest, BypassIgnoredOnResidentLine)
{
    hier.access(0x40000, AccessType::Read, 0);
    AccessAttrs attrs;
    attrs.bypassCandidate = true;
    AccessResult res = hier.access(0x40000, AccessType::Read, 10, attrs);
    EXPECT_FALSE(res.bypassed);
    EXPECT_EQ(res.servicedByLevel, 1u);
}

TEST_F(HierarchyTest, DirtyDataEventuallyWritesBack)
{
    // Write a large footprint so dirty lines cascade out of the LLC.
    const std::uint64_t llc_lines = cfg.llc.sizeBytes / kLineSize;
    for (std::uint64_t i = 0; i < llc_lines * 4; ++i)
        hier.access(0x100000 + i * kLineSize, AccessType::Write, i * 10);
    EXPECT_GT(stats.value("dram.writes"), 0u);
}

TEST_F(HierarchyTest, InclusionBackInvalidatesInnerLevels)
{
    // Fill far beyond LLC capacity, then verify no line is L1-resident
    // that is not also LLC-resident (spot check on a recent victim).
    const std::uint64_t llc_lines = cfg.llc.sizeBytes / kLineSize;
    Addr first = 0x200000;
    hier.access(first, AccessType::Read, 0);
    for (std::uint64_t i = 1; i <= llc_lines * 2; ++i)
        hier.access(first + i * kLineSize, AccessType::Read, i * 10);
    // The first line was certainly evicted from the LLC; inclusion
    // means it cannot be in the L1 anymore.
    EXPECT_FALSE(hier.llc().contains(first));
    EXPECT_FALSE(hier.l1d().contains(first));
    EXPECT_FALSE(hier.l2().contains(first));
}

TEST_F(HierarchyTest, InstallLineMakesL1HitWithoutDram)
{
    const std::uint64_t reads_before = stats.value("dram.reads");
    hier.installLine(0x50000, 0);
    EXPECT_EQ(stats.value("dram.reads"), reads_before);
    AccessResult res = hier.access(0x50000, AccessType::Read, 5);
    EXPECT_EQ(res.servicedByLevel, 1u);
}

TEST_F(HierarchyTest, WriteAllocatesIntoL1)
{
    hier.access(0x60000, AccessType::Write, 0);
    EXPECT_TRUE(hier.l1d().contains(0x60000));
    EXPECT_TRUE(hier.llc().contains(0x60000));
}

// ---------------------------------------------------------------------
// Differential oracle: the stamp-scan model the compact sets replaced
// ---------------------------------------------------------------------

/**
 * Reference Cache: one bool/bool/tag/stamp record per way, and a miss
 * fill (installAbsent) that rescans the set for the first invalid way,
 * else the first least-recently-used valid way.
 */
class RefCache
{
  public:
    using Eviction = Cache::Eviction;

    RefCache(const std::string &name, const CacheConfig &cfg,
             StatRegistry &stats)
        : numSets_(cfg.numSets()),
          ways_(cfg.ways),
          latency_(cfg.latency),
          lines_(numSets_ * ways_),
          hits_(stats.counter(name + ".hits")),
          misses_(stats.counter(name + ".misses")),
          evictions_(stats.counter(name + ".evictions")),
          dirtyEvictions_(stats.counter(name + ".dirty_evictions"))
    {
    }

    Cycles latency() const { return latency_; }

    bool
    access(Addr paddr, bool is_write)
    {
        for (Line &line : set(paddr)) {
            if (line.valid && line.tag == tagOf(paddr)) {
                line.lruStamp = ++lruClock_;
                line.dirty = line.dirty || is_write;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    bool
    contains(Addr paddr)
    {
        for (const Line &line : set(paddr)) {
            if (line.valid && line.tag == tagOf(paddr))
                return true;
        }
        return false;
    }

    Eviction
    install(Addr paddr, bool dirty)
    {
        for (Line &line : set(paddr)) {
            if (line.valid && line.tag == tagOf(paddr)) {
                line.lruStamp = ++lruClock_;
                line.dirty = line.dirty || dirty;
                return {};
            }
        }
        return installAbsent(paddr, dirty);
    }

    Eviction
    installAbsent(Addr paddr, bool dirty)
    {
        Line *invalid = nullptr;
        Line *lru = nullptr;
        for (Line &line : set(paddr)) {
            if (!line.valid) {
                if (!invalid)
                    invalid = &line;
            } else if (!lru || line.lruStamp < lru->lruStamp) {
                lru = &line;
            }
        }
        Eviction evicted;
        Line *victim = invalid;
        if (!victim) {
            victim = lru;
            evicted = {true, victim->tag << kLineShift, victim->dirty};
            ++evictions_;
            if (victim->dirty)
                ++dirtyEvictions_;
        }
        *victim = {true, dirty, tagOf(paddr), ++lruClock_};
        return evicted;
    }

    Eviction
    invalidate(Addr paddr)
    {
        for (Line &line : set(paddr)) {
            if (line.valid && line.tag == tagOf(paddr)) {
                const Eviction removed{true, lineBase(paddr), line.dirty};
                line.valid = false;
                line.dirty = false;
                return removed;
            }
        }
        return {};
    }

    bool
    tryMarkDirty(Addr paddr)
    {
        for (Line &line : set(paddr)) {
            if (line.valid && line.tag == tagOf(paddr)) {
                line.dirty = true;
                return true;
            }
        }
        return false;
    }

    std::uint64_t
    flushAll()
    {
        std::uint64_t dirty = 0;
        for (Line &line : lines_) {
            dirty += line.valid && line.dirty;
            line.valid = false;
            line.dirty = false;
        }
        return dirty;
    }

    std::vector<std::pair<Addr, bool>>
    lines() const
    {
        std::vector<std::pair<Addr, bool>> out;
        for (const Line &line : lines_) {
            if (line.valid)
                out.emplace_back(line.tag << kLineShift, line.dirty);
        }
        return out;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    static Addr tagOf(Addr paddr) { return paddr >> kLineShift; }

    /** The ways of @p paddr's set, as a range-for view. */
    struct Ways
    {
        Line *b, *e;
        Line *begin() const { return b; }
        Line *end() const { return e; }
    };
    Ways
    set(Addr paddr)
    {
        Line *base =
            &lines_[(tagOf(paddr) & (numSets_ - 1)) * ways_];
        return {base, base + ways_};
    }

    std::uint64_t numSets_;
    unsigned ways_;
    Cycles latency_;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;
    Counter hits_;
    Counter misses_;
    Counter evictions_;
    Counter dirtyEvictions_;
};

/** Reference hierarchy: CacheHierarchy's rules over RefCache levels. */
class RefHierarchy
{
  public:
    RefHierarchy(const MachineConfig &cfg, StatRegistry &stats)
        : l1d("l1d", cfg.l1d, stats),
          l1i("l1i", cfg.l1i, stats),
          l2("l2", cfg.l2, stats),
          llc("llc", cfg.llc, stats),
          memCtrl_(cfg.dram, stats),
          bypasses_(stats.counter("hier.bypassed_lines")),
          demandFills_(stats.counter("hier.demand_fills"))
    {
    }

    AccessResult
    access(Addr paddr, AccessType type, Cycles now, AccessAttrs attrs)
    {
        const Addr line = lineBase(paddr);
        const bool is_write = type == AccessType::Write;
        RefCache &l1 = type == AccessType::Fetch ? l1i : l1d;
        AccessResult res;
        res.latency = l1.latency();
        if (l1.access(line, is_write)) {
            res.servicedByLevel = 1;
            return res;
        }
        res.latency += l2.latency();
        if (l2.access(line, is_write)) {
            absorbL1(l1.installAbsent(line, is_write), now);
            res.servicedByLevel = 2;
            return res;
        }
        res.latency += llc.latency();
        if (llc.access(line, is_write)) {
            absorbL2(l2.installAbsent(line, false), now);
            absorbL1(l1.installAbsent(line, is_write), now);
            res.servicedByLevel = 3;
            return res;
        }
        if (attrs.bypassCandidate) {
            ++bypasses_;
            res.bypassed = true;
        } else {
            ++demandFills_;
            res.latency += memCtrl_.fill(line, now + res.latency);
        }
        absorbLlc(llc.installAbsent(line, attrs.bypassCandidate), now);
        absorbL2(l2.installAbsent(line, false), now);
        absorbL1(l1.installAbsent(line, is_write), now);
        res.servicedByLevel = attrs.bypassCandidate ? 3 : 4;
        return res;
    }

    Cycles
    installLine(Addr paddr, Cycles now)
    {
        const Addr line = lineBase(paddr);
        if (!l1d.access(line, true)) {
            absorbLlc(llc.install(line, false), now);
            absorbL2(l2.install(line, false), now);
            absorbL1(l1d.install(line, true), now);
        }
        return l1d.latency();
    }

    RefCache l1d, l1i, l2, llc;
    /** LLC evictions that removed a line from an inner level. */
    std::uint64_t innerBackInvalidations = 0;

  private:
    void
    absorbL1(const RefCache::Eviction &ev, Cycles now)
    {
        if (ev.valid && ev.dirty && !l2.tryMarkDirty(ev.lineAddr) &&
            !llc.tryMarkDirty(ev.lineAddr))
            memCtrl_.writeback(ev.lineAddr, now);
    }

    void
    absorbL2(const RefCache::Eviction &ev, Cycles now)
    {
        if (ev.valid && ev.dirty && !llc.tryMarkDirty(ev.lineAddr))
            memCtrl_.writeback(ev.lineAddr, now);
    }

    void
    absorbLlc(const RefCache::Eviction &ev, Cycles now)
    {
        if (!ev.valid)
            return;
        bool dirty = ev.dirty;
        for (RefCache *inner : {&l1d, &l1i, &l2}) {
            const RefCache::Eviction removed = inner->invalidate(ev.lineAddr);
            dirty |= removed.dirty;
            innerBackInvalidations += removed.valid;
        }
        if (dirty)
            memCtrl_.writeback(ev.lineAddr, now);
    }

    MemoryController memCtrl_;
    Counter bypasses_;
    Counter demandFills_;
};

std::vector<std::pair<Addr, bool>>
linesOf(const Cache &cache)
{
    std::vector<std::pair<Addr, bool>> out;
    cache.forEachLine(
        [&](Addr line, bool dirty) { out.emplace_back(line, dirty); });
    return out;
}

bool
sameEviction(const Cache::Eviction &a, const Cache::Eviction &b)
{
    return a.valid == b.valid &&
           (!a.valid || (a.lineAddr == b.lineAddr && a.dirty == b.dirty));
}

/** Sets and ways of the three levels (L1I mirrors L1D). */
struct OracleGeometry
{
    std::uint64_t l1Sets;
    unsigned l1Ways;
    std::uint64_t l2Sets;
    unsigned l2Ways;
    std::uint64_t llcSets;
    unsigned llcWays;
};

CacheConfig
levelConfig(std::uint64_t sets, unsigned ways, Cycles latency)
{
    return CacheConfig{sets * ways * kLineSize, ways, latency};
}

// Ways 1, 2, 8, 16 and 24 at every level across the list, with set
// counts small enough that LLC victims are often still L1/L2-resident.
// The last two give the LLC fewer sets than the L2, so an LLC victim
// can sit in a different L2 set than the line being filled.
const OracleGeometry kOracleGeometries[] = {
    {1, 1, 2, 2, 4, 2},    {2, 2, 2, 8, 4, 8},    {2, 8, 4, 8, 4, 16},
    {4, 8, 4, 16, 8, 24},  {1, 24, 2, 16, 2, 24}, {4, 2, 8, 8, 2, 8},
    {8, 1, 16, 2, 1, 16},
};

/** A random line address (plus byte offset) from a small footprint. */
Addr
oracleAddr(Rng &rng, std::uint64_t footprint_lines)
{
    return 0x4000'0000 + rng.nextBelow(footprint_lines) * kLineSize +
           rng.nextBelow(kLineSize);
}

TEST(CacheOracle, SingleCacheMatchesStampScanModel)
{
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    for (const OracleGeometry &g : kOracleGeometries) {
        for (const auto &[sets, ways] :
             {std::pair{g.l1Sets, g.l1Ways}, std::pair{g.l2Sets, g.l2Ways},
              std::pair{g.llcSets, g.llcWays}}) {
            SCOPED_TRACE(testing::Message() << sets << " sets x " << ways
                                            << " ways");
            const CacheConfig cfg = levelConfig(sets, ways, 1);
            StatRegistry stats, ref_stats;
            Cache cache("c", cfg, stats);
            RefCache ref("c", cfg, ref_stats);
            Rng rng(sets * 131 + ways);
            const std::uint64_t footprint = 3 * sets * ways + 2;
            for (unsigned op = 0; op < 6000; ++op) {
                const Addr a = oracleAddr(rng, footprint);
                const bool dirty = rng.nextBool(0.3);
                switch (rng.nextBelow(12)) {
                  case 0:
                  case 1:
                  case 2:
                  case 3: {
                      // Probe, then (usually) fill the way it picked.
                      Cache::Line *way = cache.probe(a, dirty);
                      const bool ref_hit = ref.access(a, dirty);
                      ASSERT_EQ(way == nullptr, ref_hit) << "op " << op;
                      hits += ref_hit;
                      if (way && rng.nextBool(0.8)) {
                          const Cache::Eviction ev =
                              cache.fill(way, a, dirty);
                          ASSERT_TRUE(sameEviction(
                              ev, ref.installAbsent(a, dirty)))
                              << "op " << op;
                          evictions += ev.valid;
                      }
                      break;
                  }
                  case 4:
                  case 5:
                  case 6:
                      ASSERT_TRUE(sameEviction(cache.install(a, dirty),
                                               ref.install(a, dirty)))
                          << "op " << op;
                      break;
                  case 7:
                  case 8:
                      ASSERT_TRUE(sameEviction(cache.invalidate(a),
                                               ref.invalidate(a)))
                          << "op " << op;
                      break;
                  case 9:
                      ASSERT_EQ(cache.tryMarkDirty(a), ref.tryMarkDirty(a));
                      break;
                  case 10:
                      ASSERT_EQ(cache.contains(a), ref.contains(a));
                      break;
                  default:
                      if (rng.nextBool(0.02)) {
                          ASSERT_EQ(cache.flushAll(), ref.flushAll());
                      }
                      break;
                }
                ASSERT_EQ(linesOf(cache), ref.lines()) << "op " << op;
            }
            EXPECT_EQ(stats.snapshot(), ref_stats.snapshot());
            std::vector<std::string> violations;
            EXPECT_TRUE(cache.checkIntegrity(violations))
                << violations.front();
        }
    }
    // The sequences must exercise hits and evictions, not just fills.
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(evictions, 1000u);
}

TEST(CacheOracle, HierarchyMatchesStampScanModel)
{
    std::uint64_t back_invalidations = 0;
    for (const OracleGeometry &g : kOracleGeometries) {
        SCOPED_TRACE(testing::Message()
                     << "L1 " << g.l1Sets << "x" << g.l1Ways << ", L2 "
                     << g.l2Sets << "x" << g.l2Ways << ", LLC "
                     << g.llcSets << "x" << g.llcWays);
        MachineConfig cfg;
        cfg.l1d = levelConfig(g.l1Sets, g.l1Ways, 2);
        cfg.l1i = levelConfig(g.l1Sets, g.l1Ways, 2);
        cfg.l2 = levelConfig(g.l2Sets, g.l2Ways, 14);
        cfg.llc = levelConfig(g.llcSets, g.llcWays, 40);
        StatRegistry stats, ref_stats;
        CacheHierarchy hier(cfg, stats);
        RefHierarchy ref(cfg, ref_stats);
        Rng rng(g.l1Sets * 1009 + g.l2Ways * 31 + g.llcWays);
        const std::uint64_t footprint = 2 * g.llcSets * g.llcWays + 3;
        Cycles now = 0;
        for (unsigned op = 0; op < 20000; ++op) {
            now += 1 + rng.nextBelow(50);
            const Addr a = oracleAddr(rng, footprint);
            const std::uint64_t kind = rng.nextBelow(100);
            if (kind < 88) {
                const AccessType type =
                    kind < 40   ? AccessType::Read
                    : kind < 70 ? AccessType::Write
                                : AccessType::Fetch;
                AccessAttrs attrs;
                attrs.bypassCandidate = rng.nextBool(0.3);
                const AccessResult got = hier.access(a, type, now, attrs);
                const AccessResult want = ref.access(a, type, now, attrs);
                ASSERT_EQ(got.latency, want.latency) << "op " << op;
                ASSERT_EQ(got.servicedByLevel, want.servicedByLevel)
                    << "op " << op;
                ASSERT_EQ(got.bypassed, want.bypassed) << "op " << op;
            } else if (kind < 99) {
                ASSERT_EQ(hier.installLine(a, now), ref.installLine(a, now))
                    << "op " << op;
            } else {
                const_cast<Cache &>(hier.l1d()).flushAll();
                const_cast<Cache &>(hier.l1i()).flushAll();
                const_cast<Cache &>(hier.l2()).flushAll();
                const_cast<Cache &>(hier.llc()).flushAll();
                for (RefCache *c : {&ref.l1d, &ref.l1i, &ref.l2, &ref.llc})
                    c->flushAll();
            }
            ASSERT_EQ(stats.snapshot(), ref_stats.snapshot()) << "op " << op;
            ASSERT_EQ(linesOf(hier.l1d()), ref.l1d.lines()) << "op " << op;
            ASSERT_EQ(linesOf(hier.l1i()), ref.l1i.lines()) << "op " << op;
            ASSERT_EQ(linesOf(hier.l2()), ref.l2.lines()) << "op " << op;
            ASSERT_EQ(linesOf(hier.llc()), ref.llc.lines()) << "op " << op;
        }
        back_invalidations += ref.innerBackInvalidations;
    }
    // Each of these left a probed L1/L2 victim stale.
    EXPECT_GT(back_invalidations, 10000u);
}

} // namespace
} // namespace memento
