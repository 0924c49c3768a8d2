/**
 * @file
 * Unit tests for the TLB model.
 */

#include <gtest/gtest.h>

#include <limits>

#include "mem/tlb.h"
#include "sim/rng.h"

namespace memento {
namespace {

class TlbTest : public ::testing::Test
{
  protected:
    StatRegistry stats;
    Tlb tlb{"t", TlbConfig{16, 4, 1}, stats};
};

TEST_F(TlbTest, MissThenHit)
{
    EXPECT_FALSE(tlb.lookup(0x5000).has_value());
    tlb.insert(0x5000, 0x9000);
    auto hit = tlb.lookup(0x5123);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0x9000u);
    EXPECT_EQ(stats.value("t.hits"), 1u);
    EXPECT_EQ(stats.value("t.misses"), 1u);
}

TEST_F(TlbTest, UpdateInPlace)
{
    tlb.insert(0x5000, 0x9000);
    tlb.insert(0x5000, 0xA000);
    EXPECT_EQ(*tlb.lookup(0x5000), 0xA000u);
}

TEST_F(TlbTest, InvalidatePage)
{
    tlb.insert(0x5000, 0x9000);
    tlb.invalidatePage(0x5FFF);
    EXPECT_FALSE(tlb.lookup(0x5000).has_value());
}

TEST_F(TlbTest, FlushAll)
{
    for (Addr p = 0; p < 8; ++p)
        tlb.insert(p << kPageShift, (p + 100) << kPageShift);
    tlb.flushAll();
    for (Addr p = 0; p < 8; ++p)
        EXPECT_FALSE(tlb.lookup(p << kPageShift).has_value());
}

TEST_F(TlbTest, EvictsLruWithinSet)
{
    // 16 entries, 4 ways -> 4 sets; pages with the same (page % 4) map
    // to the same set.
    std::vector<Addr> pages;
    for (int i = 0; i < 4; ++i)
        pages.push_back((4ull * i) << kPageShift);
    for (Addr p : pages)
        tlb.insert(p, p + kPageSize);
    tlb.lookup(pages[0]); // Refresh.
    tlb.insert((4ull * 10) << kPageShift, 0x1000);
    EXPECT_TRUE(tlb.lookup(pages[0]).has_value());
    EXPECT_FALSE(tlb.lookup(pages[1]).has_value());
}

TEST_F(TlbTest, PageOffsetIgnoredOnInsert)
{
    tlb.insert(0x7ABC, 0x3DEF);
    auto hit = tlb.lookup(0x7000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0x3000u); // Physical page base, not the raw value.
}

TEST_F(TlbTest, HugeEntryCoversWholeBlock)
{
    const std::uint64_t huge = 1ull << kHugePageShift;
    tlb.insert(0x4000'0000, 0x1200'0000, kHugePageShift);
    auto hit = tlb.translate(0x4000'0000 + huge - 5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0x1200'0000 + huge - 5);
    // Outside the block: miss.
    EXPECT_FALSE(tlb.translate(0x4000'0000 + huge).has_value());
}

TEST_F(TlbTest, MixedGranularitiesCoexist)
{
    tlb.insert(0x5000, 0x9000);
    tlb.insert(0x4000'0000, 0x1200'0000, kHugePageShift);
    EXPECT_EQ(*tlb.translate(0x5123), 0x9123u);
    EXPECT_TRUE(tlb.translate(0x4010'0000).has_value());
    tlb.invalidatePage(0x4000'0000);
    EXPECT_FALSE(tlb.translate(0x4010'0000).has_value());
    EXPECT_TRUE(tlb.translate(0x5000).has_value());
}

TEST(TlbGeometry, NonDivisibleEntriesRoundDown)
{
    StatRegistry stats;
    // Table 3's 2048-entry 12-way TLB: sets round down to 170.
    Tlb tlb("t", TlbConfig{2048, 12, 7}, stats);
    // Capacity still works for a burst of insert/lookup pairs.
    for (Addr p = 0; p < 100; ++p) {
        tlb.insert(p << kPageShift, (p + 5) << kPageShift);
        EXPECT_TRUE(tlb.lookup(p << kPageShift).has_value());
    }
}

TEST(TlbGeometry, SweepConfigurations)
{
    for (unsigned entries : {8u, 64u, 256u}) {
        for (unsigned ways : {1u, 2u, 4u}) {
            StatRegistry stats;
            Tlb tlb("t", TlbConfig{entries, ways, 1}, stats);
            // Inserting up to one set of pages per set keeps them all.
            const unsigned sets = entries / ways;
            for (unsigned w = 0; w < ways; ++w) {
                Addr page = static_cast<Addr>(w) * sets;
                tlb.insert(page << kPageShift, 0x1000);
            }
            for (unsigned w = 0; w < ways; ++w) {
                Addr page = static_cast<Addr>(w) * sets;
                EXPECT_TRUE(tlb.lookup(page << kPageShift).has_value());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Divide-free set index
// ---------------------------------------------------------------------

TEST(TlbSetIndex, MatchesModuloOverTheGuardedRange)
{
    constexpr Addr kMax = std::numeric_limits<Addr>::max();
    // 3 and 170 (Table 3's L2 TLB) are small odd counts; 2^24 - 1 is the
    // largest non-power-of-two count the config schema allows.
    for (std::uint64_t sets : {3ull, 170ull, (1ull << 24) - 1}) {
        SCOPED_TRACE(sets);
        const TlbSetIndex index(sets);
        const Addr limit = index.limit();
        EXPECT_EQ(limit, kMax / sets);

        std::vector<Addr> vpages = {0, 1, sets - 1, sets, sets + 1,
                                    limit, limit - 1, limit - sets,
                                    limit / 2, (Addr{1} << 52) - 1};
        for (unsigned bit = 0; bit < 64; ++bit) {
            const Addr p = Addr{1} << bit;
            for (Addr v : {p - 1, p, p + 1})
                vpages.push_back(v);
            // Multiples of sets and their neighbours (remainders 0 and
            // sets - 1 are where an inexact quotient shows first).
            const Addr m = p / sets * sets;
            for (Addr v : {m - 1, m, m + 1})
                vpages.push_back(v);
        }
        Rng rng(sets);
        for (unsigned i = 0; i < 200000; ++i) {
            const Addr r = rng.next();
            vpages.push_back(r >> rng.nextBelow(64));
        }
        for (Addr v : vpages) {
            if (v > limit)
                continue;
            ASSERT_EQ(index(v), v % sets) << "vpage " << v;
        }
        // Past the guard the index may be inexact but stays in range.
        for (Addr v : {limit + 1, kMax - 1, kMax, kMax / 2 + 1})
            EXPECT_LT(index(v), sets) << "vpage " << v;
    }
}

TEST(TlbSetIndex, PowerOfTwoCountsAreExactEverywhere)
{
    for (std::uint64_t sets : {1ull, 2ull, 16ull, 1ull << 24}) {
        const TlbSetIndex index(sets);
        EXPECT_EQ(index.limit(), std::numeric_limits<Addr>::max());
        Rng rng(sets);
        for (unsigned i = 0; i < 1000; ++i) {
            const Addr v = rng.next();
            ASSERT_EQ(index(v), v % sets);
        }
    }
}

TEST(TlbSetIndexDeathTest, InsertGuardFiresPastTheBound)
{
    // 5000 single-way sets: the exact range ends below 2^52, the largest
    // 4 KiB page number of a 64-bit address.
    StatRegistry stats;
    Tlb tlb("t", TlbConfig{5000, 1, 1}, stats);
    const Addr limit = TlbSetIndex(5000).limit();
    ASSERT_LT(limit, Addr{1} << 52);

    tlb.insert(limit << kPageShift, 0x1000);
    EXPECT_TRUE(tlb.lookup(limit << kPageShift).has_value());
    // A lookup past the bound lands in a valid set and misses.
    EXPECT_FALSE(tlb.lookup((limit + 1) << kPageShift).has_value());
    EXPECT_DEATH(tlb.insert((limit + 1) << kPageShift, 0x1000),
                 "past the exact set-index range");
}

// ---------------------------------------------------------------------
// Differential oracle: the per-field model the packed entries replaced
// ---------------------------------------------------------------------

/**
 * Reference Tlb: valid/shift/vpage stored separately, a divide for the
 * set index, and a separate LRU pass when no way is invalid.
 */
class RefTlb
{
  public:
    explicit RefTlb(const TlbConfig &cfg)
        : numSets_(cfg.entries / cfg.ways),
          ways_(cfg.ways),
          entries_(numSets_ * ways_)
    {
    }

    std::optional<Addr>
    lookup(Addr vaddr)
    {
        if (Entry *e = find(vaddr)) {
            e->lruStamp = ++lruClock_;
            ++hits;
            return e->pbase;
        }
        ++misses;
        return std::nullopt;
    }

    std::optional<Addr>
    translate(Addr vaddr)
    {
        if (Entry *e = find(vaddr)) {
            e->lruStamp = ++lruClock_;
            ++hits;
            return e->pbase + (vaddr & ((1ull << e->shift) - 1));
        }
        ++misses;
        return std::nullopt;
    }

    void
    insert(Addr vaddr, Addr paddr, unsigned shift)
    {
        const Addr vpage = vaddr >> shift;
        Entry *base = set(vpage);
        Entry *victim = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = base[w];
            if (e.valid && e.shift == shift && e.vpage == vpage) {
                victim = &e;
                break;
            }
            if (!e.valid && !victim)
                victim = &e;
        }
        if (!victim) {
            victim = &base[0];
            for (unsigned w = 1; w < ways_; ++w) {
                if (base[w].lruStamp < victim->lruStamp)
                    victim = &base[w];
            }
        }
        *victim = {true, shift, vpage, paddr & ~((1ull << shift) - 1),
                   ++lruClock_};
    }

    void
    invalidatePage(Addr vaddr)
    {
        for (unsigned shift : {kPageShift, kHugePageShift}) {
            Entry *base = set(vaddr >> shift);
            for (unsigned w = 0; w < ways_; ++w) {
                Entry &e = base[w];
                if (e.valid && e.shift == shift && e.vpage == vaddr >> shift)
                    e.valid = false;
            }
        }
    }

    void
    flushAll()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Entry
    {
        bool valid = false;
        unsigned shift = kPageShift;
        Addr vpage = 0;
        Addr pbase = 0;
        std::uint64_t lruStamp = 0;
    };

    Entry *set(Addr vpage) { return &entries_[vpage % numSets_ * ways_]; }

    Entry *
    find(Addr vaddr)
    {
        for (unsigned shift : {kPageShift, kHugePageShift}) {
            Entry *base = set(vaddr >> shift);
            for (unsigned w = 0; w < ways_; ++w) {
                Entry &e = base[w];
                if (e.valid && e.shift == shift && e.vpage == vaddr >> shift)
                    return &e;
            }
        }
        return nullptr;
    }

    std::uint64_t numSets_;
    unsigned ways_;
    std::vector<Entry> entries_;
    std::uint64_t lruClock_ = 0;
};

TEST(TlbOracle, MatchesPerFieldModel)
{
    // 170 sets is Table 3's L2 TLB; the others cover one set, power-of-
    // two and small odd set counts.
    for (const TlbConfig &cfg :
         {TlbConfig{2048, 12, 7}, TlbConfig{64, 4, 1}, TlbConfig{16, 4, 1},
          TlbConfig{12, 12, 1}, TlbConfig{30, 3, 1}, TlbConfig{7, 1, 1}}) {
        SCOPED_TRACE(testing::Message()
                     << cfg.entries << " entries, " << cfg.ways << " ways");
        StatRegistry stats;
        Tlb tlb("t", cfg, stats);
        RefTlb ref(cfg);
        Rng rng(cfg.entries * 7 + cfg.ways);
        // A footprint of 4 KiB pages twice the capacity, spread over a
        // handful of 2 MiB regions so huge and small entries overlap.
        const std::uint64_t pages = 2 * cfg.entries + 5;
        std::uint64_t hits = 0;
        for (unsigned op = 0; op < 40000; ++op) {
            const Addr region = rng.nextBelow(6) << kHugePageShift;
            const Addr vaddr = 0x7f00'0000'0000ull + region +
                               (rng.nextBelow(pages) << kPageShift) +
                               rng.nextBelow(kPageSize);
            const std::uint64_t kind = rng.nextBelow(100);
            if (kind < 35) {
                const auto got = tlb.lookup(vaddr);
                ASSERT_EQ(got, ref.lookup(vaddr)) << "op " << op;
                hits += got.has_value();
            } else if (kind < 70) {
                ASSERT_EQ(tlb.translate(vaddr), ref.translate(vaddr))
                    << "op " << op;
            } else if (kind < 92) {
                const unsigned shift =
                    rng.nextBool(0.1) ? kHugePageShift : kPageShift;
                const Addr paddr = rng.nextBelow(1ull << 34);
                tlb.insert(vaddr, paddr, shift);
                ref.insert(vaddr, paddr, shift);
            } else if (kind < 99) {
                tlb.invalidatePage(vaddr);
                ref.invalidatePage(vaddr);
            } else {
                tlb.flushAll();
                ref.flushAll();
            }
        }
        EXPECT_EQ(tlb.hitCount(), ref.hits);
        EXPECT_EQ(tlb.missCount(), ref.misses);
        EXPECT_GT(hits, 1000u);
    }
}

} // namespace
} // namespace memento
