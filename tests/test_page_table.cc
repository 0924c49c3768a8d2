/**
 * @file
 * Unit and property tests for the 4-level radix page table.
 */

#include <gtest/gtest.h>

#include <map>

#include "os/page_table.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace memento {
namespace {

/** Frame source handing out sequential fake frames. */
class FakeFrames : public FrameSource
{
  public:
    Addr
    allocFrame() override
    {
        ++outstanding;
        return next += kPageSize;
    }

    void
    freeFrame(Addr) override
    {
        --outstanding;
    }

    Addr next = 0x100000;
    int outstanding = 0;
};

class PageTableTest : public ::testing::Test
{
  protected:
    FakeFrames frames;
};

TEST_F(PageTableTest, RootAllocatedOnConstruction)
{
    PageTable pt(frames);
    EXPECT_EQ(pt.nodePages(), 1u);
    EXPECT_EQ(frames.outstanding, 1);
    EXPECT_NE(pt.rootPhys(), kNullAddr);
}

TEST_F(PageTableTest, MapCreatesThreeNodesForFirstPage)
{
    PageTable pt(frames);
    unsigned created = pt.map(0x7000'0000, 0x55000);
    EXPECT_EQ(created, 3u); // PUD, PMD, PTE nodes.
    EXPECT_EQ(pt.nodePages(), 4u);
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST_F(PageTableTest, NeighborPagesShareNodes)
{
    PageTable pt(frames);
    pt.map(0x7000'0000, 0x55000);
    unsigned created = pt.map(0x7000'1000, 0x56000);
    EXPECT_EQ(created, 0u);
    EXPECT_EQ(pt.nodePages(), 4u);
}

TEST_F(PageTableTest, TranslatePreservesOffset)
{
    PageTable pt(frames);
    pt.map(0x7000'0000, 0x55000);
    EXPECT_EQ(pt.translate(0x7000'0ABC), 0x55ABCu);
    EXPECT_EQ(pt.translate(0x7000'2000), kNullAddr);
    EXPECT_TRUE(pt.isMapped(0x7000'0FFF));
    EXPECT_FALSE(pt.isMapped(0x7000'1000));
}

TEST_F(PageTableTest, UnmapReturnsFrameAndPrunes)
{
    PageTable pt(frames);
    pt.map(0x7000'0000, 0x55000);
    unsigned freed = 0;
    EXPECT_EQ(pt.unmap(0x7000'0000, freed), 0x55000u);
    EXPECT_EQ(freed, 3u); // All interior nodes became empty.
    EXPECT_EQ(pt.nodePages(), 1u);
    EXPECT_EQ(pt.mappedPages(), 0u);
    EXPECT_EQ(frames.outstanding, 1); // Only the root remains.
}

TEST_F(PageTableTest, UnmapOfUnmappedReturnsNull)
{
    PageTable pt(frames);
    unsigned freed = 0;
    EXPECT_EQ(pt.unmap(0x1234'5000, freed), kNullAddr);
    EXPECT_EQ(freed, 0u);
}

TEST_F(PageTableTest, WalkVisitsFourLevels)
{
    PageTable pt(frames);
    pt.map(0x7000'0000, 0x55000);
    WalkResult res = pt.walk(0x7000'0123);
    EXPECT_TRUE(res.valid);
    EXPECT_EQ(res.ppage, 0x55000u);
    EXPECT_EQ(res.visitedCount, 4u);
    // Each visited PTE lies inside a distinct node page.
    for (unsigned i = 1; i < res.visitedCount; ++i)
        EXPECT_NE(pageBase(res.visitedPtes[i]),
                  pageBase(res.visitedPtes[i - 1]));
}

TEST_F(PageTableTest, WalkOnUnmappedIsInvalidButVisitsPrefix)
{
    PageTable pt(frames);
    WalkResult res = pt.walk(0x7000'0000);
    EXPECT_FALSE(res.valid);
    EXPECT_EQ(res.visitedCount, 1u); // Root only.

    pt.map(0x7000'0000, 0x55000);
    res = pt.walk(0x7000'0000 + (1ull << 21)); // Same PMD region? No:
    // next 2 MiB chunk shares PGD/PUD but needs a new PMD leaf node.
    EXPECT_FALSE(res.valid);
    EXPECT_GE(res.visitedCount, 3u);
}

TEST_F(PageTableTest, DistantAddressesUseSeparateSubtrees)
{
    PageTable pt(frames);
    pt.map(0x0000'7000'0000ull, 0x55000);
    pt.map(0x4000'0000'0000ull, 0x66000);
    EXPECT_GT(pt.nodePages(), 4u);
    EXPECT_EQ(pt.translate(0x0000'7000'0000ull), 0x55000u);
    EXPECT_EQ(pt.translate(0x4000'0000'0000ull), 0x66000u);
}

class PageTablePropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PageTablePropertyTest, MatchesReferenceMapUnderRandomTraffic)
{
    FakeFrames frames;
    PageTable pt(frames);
    std::map<Addr, Addr> reference;
    Rng rng(GetParam());

    for (int i = 0; i < 3000; ++i) {
        // Addresses drawn from a few clustered regions.
        const Addr region = (rng.nextBelow(3)) * 0x100'0000'0000ull;
        const Addr vpage =
            region + rng.nextBelow(512) * kPageSize;
        if (reference.count(vpage) == 0 && rng.nextBool(0.6)) {
            Addr frame = 0x1'0000'0000ull + i * kPageSize;
            pt.map(vpage, frame);
            reference[vpage] = frame;
        } else if (reference.count(vpage)) {
            unsigned freed = 0;
            EXPECT_EQ(pt.unmap(vpage, freed), reference[vpage]);
            reference.erase(vpage);
        }
        if (i % 500 == 0) {
            for (const auto &[va, pa] : reference)
                ASSERT_EQ(pt.translate(va), pa);
        }
    }
    EXPECT_EQ(pt.mappedPages(), reference.size());
    // Unmap everything; the table must shrink back to the root.
    while (!reference.empty()) {
        unsigned freed = 0;
        pt.unmap(reference.begin()->first, freed);
        reference.erase(reference.begin());
    }
    EXPECT_EQ(pt.nodePages(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTablePropertyTest,
                         ::testing::Values(7, 11, 13, 17, 19));

} // namespace
} // namespace memento
