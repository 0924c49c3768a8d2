/**
 * @file
 * Unit and property tests for the software allocator models
 * (pymalloc, jemalloc, gomalloc, tcmalloc, glibc-large) and the
 * Allocator contract shared by every backend, Memento and Mallacc
 * included.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "rt/glibc_large.h"
#include "rt/gomalloc.h"
#include "rt/jemalloc.h"
#include "rt/pymalloc.h"
#include "rt/tcmalloc.h"
#include "hw/mallacc.h"
#include "machine/machine.h"
#include "sim/error.h"
#include "sim/rng.h"
#include "sim/size_class.h"
#include "test_util.h"

namespace memento {
namespace {

using test::TestEnv;

/** Fixture owning the OS plumbing every allocator needs. */
class AllocatorFixture : public ::testing::Test
{
  protected:
    AllocatorFixture()
        : buddy(1ull << 22, 1ull << 30, stats),
          vm(cfg, buddy, stats, "vm")
    {
    }

    MachineConfig cfg;
    StatRegistry stats;
    BuddyAllocator buddy;
    VirtualMemory vm;
    TestEnv env;
};

// ---------------------------------------------------------------------
// pymalloc
// ---------------------------------------------------------------------

class PyMallocTest : public AllocatorFixture
{
  protected:
    PyMalloc alloc{vm, stats};
};

TEST_F(PyMallocTest, SmallAllocationsComeFromPools)
{
    Addr a = alloc.malloc(24, env);
    Addr b = alloc.malloc(24, env);
    EXPECT_NE(a, b);
    EXPECT_TRUE(alloc.isLive(a));
    EXPECT_EQ(alloc.liveBytes(), 48u);
    // Same size class allocates from the same 4 KiB pool initially.
    EXPECT_EQ(a & ~(kPageSize - 1), b & ~(kPageSize - 1));
}

TEST_F(PyMallocTest, FreeReusesBlockLifo)
{
    // Keep one object live so the pool (and arena) survive the free.
    Addr keep = alloc.malloc(32, env);
    (void)keep;
    Addr a = alloc.malloc(32, env);
    alloc.free(a, env);
    EXPECT_FALSE(alloc.isLive(a));
    Addr b = alloc.malloc(32, env);
    EXPECT_EQ(a, b); // freeblock head reuse.
}

TEST_F(PyMallocTest, DifferentClassesUseDifferentPools)
{
    Addr a = alloc.malloc(8, env);
    Addr b = alloc.malloc(512, env);
    EXPECT_NE(pageBase(a), pageBase(b));
}

TEST_F(PyMallocTest, ArenaMmappedOnDemandAndReleasedWhenEmpty)
{
    EXPECT_EQ(alloc.arenaCount(), 0u);
    std::vector<Addr> ptrs;
    for (int i = 0; i < 100; ++i)
        ptrs.push_back(alloc.malloc(64, env));
    EXPECT_EQ(alloc.arenaCount(), 1u);
    for (Addr p : ptrs)
        alloc.free(p, env);
    // All pools free -> arena munmapped.
    EXPECT_EQ(alloc.arenaCount(), 0u);
    EXPECT_EQ(stats.value("pymalloc.arena_munmaps"), 1u);
}

TEST_F(PyMallocTest, LargeAllocationsBypassPools)
{
    Addr big = alloc.malloc(4096, env);
    EXPECT_TRUE(alloc.isLive(big));
    EXPECT_EQ(stats.value("pymalloc.small_mallocs"), 0u);
    EXPECT_EQ(stats.value("pymalloc.large_mallocs"), 1u);
    alloc.free(big, env);
    EXPECT_FALSE(alloc.isLive(big));
}

TEST_F(PyMallocTest, FunctionExitReleasesEverything)
{
    for (int i = 0; i < 500; ++i)
        alloc.malloc(8 + (i % 64) * 8, env);
    alloc.malloc(100000, env);
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_EQ(alloc.arenaCount(), 0u);
    // Teardown is OS work, not userspace frees.
    EXPECT_EQ(stats.value("pymalloc.small_frees"), 0u);
}

TEST_F(PyMallocTest, AllocationChargesUserAllocCategory)
{
    alloc.malloc(40, env);
    EXPECT_GT(env.ledger().category(CycleCategory::UserAlloc), 0u);
    EXPECT_EQ(env.ledger().category(CycleCategory::UserFree), 0u);
}

TEST_F(PyMallocTest, PoolExhaustionMovesToNextPool)
{
    // A 4 KiB pool of 504-byte blocks holds 8 objects; the 9th must
    // come from a second pool.
    std::vector<Addr> ptrs;
    for (int i = 0; i < 9; ++i)
        ptrs.push_back(alloc.malloc(504, env));
    EXPECT_NE(pageBase(ptrs.front()), pageBase(ptrs.back()));
}

TEST_F(PyMallocTest, ArenaObjectSlotsAreRecycled)
{
    // Regression: a malloc/free ping-pong at an arena boundary churns
    // one arena per cycle; the arena_object slots must be recycled
    // (CPython's unused_arena_objects) instead of exhausting the table.
    for (int i = 0; i < 10000; ++i) {
        Addr a = alloc.malloc(64, env);
        alloc.free(a, env);
    }
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_GT(stats.value("pymalloc.arena_munmaps"), 1000u);
}

TEST_F(PyMallocTest, InactiveSlotFractionReflectsFrees)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 64; ++i)
        ptrs.push_back(alloc.malloc(64, env));
    const double before = alloc.inactiveSlotFraction();
    for (int i = 0; i < 32; ++i)
        alloc.free(ptrs[i], env);
    EXPECT_GT(alloc.inactiveSlotFraction(), before);
}

// ---------------------------------------------------------------------
// jemalloc
// ---------------------------------------------------------------------

class JeMallocTest : public AllocatorFixture
{
  protected:
    JeMalloc alloc{vm, stats};
};

TEST_F(JeMallocTest, TcacheServesRepeatedAllocFree)
{
    Addr a = alloc.malloc(48, env);
    alloc.free(a, env);
    Addr b = alloc.malloc(48, env);
    EXPECT_EQ(a, b); // LIFO tcache reuse.
    EXPECT_EQ(stats.value("jemalloc.tcache_fills"), 1u);
}

TEST_F(JeMallocTest, FillsComeInBatches)
{
    for (int i = 0; i < 33; ++i)
        alloc.malloc(48, env);
    // Batch of 32 per fill: 33 allocations need 2 fills.
    EXPECT_EQ(stats.value("jemalloc.tcache_fills"), 2u);
}

TEST_F(JeMallocTest, FlushHappensWhenTcacheOverflows)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 100; ++i)
        ptrs.push_back(alloc.malloc(48, env));
    for (Addr p : ptrs)
        alloc.free(p, env);
    EXPECT_GT(stats.value("jemalloc.tcache_flushes"), 0u);
}

TEST_F(JeMallocTest, PrefaultedChunkAvoidsFaults)
{
    // The first chunk is pre-mapped and pre-faulted at init: small
    // allocations must not fault.
    for (int i = 0; i < 1000; ++i)
        alloc.malloc(16 + (i % 32) * 8, env);
    EXPECT_EQ(vm.faultCount(), 0u);
}

TEST_F(JeMallocTest, PurgeReturnsDrainedPages)
{
    JeMalloc::Params params;
    params.purgeIntervalOps = 64;
    params.tcacheMax = 8;
    params.batch = 8;
    JeMalloc purging(vm, stats, params);
    // Churn one class so pages drain and purge.
    for (int round = 0; round < 50; ++round) {
        std::vector<Addr> ptrs;
        for (int i = 0; i < 40; ++i)
            ptrs.push_back(purging.malloc(128, env));
        for (Addr p : ptrs)
            purging.free(p, env);
    }
    EXPECT_GT(stats.value("jemalloc.purges"), 0u);
    EXPECT_GT(stats.value("jemalloc.purged_pages"), 0u);
}

TEST_F(JeMallocTest, LargeGoesToGlibcPath)
{
    Addr big = alloc.malloc(2000, env);
    EXPECT_TRUE(alloc.isLive(big));
    EXPECT_EQ(stats.value("jemalloc.small_mallocs"), 0u);
    alloc.free(big, env);
}

TEST_F(JeMallocTest, FunctionExitUnmapsChunks)
{
    alloc.malloc(64, env);
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_GT(stats.value("vm.munmap_calls"), 0u);
}

// ---------------------------------------------------------------------
// gomalloc
// ---------------------------------------------------------------------

class GoMallocTest : public AllocatorFixture
{
  protected:
    GoMalloc alloc{vm, stats};
};

TEST_F(GoMallocTest, FreeIsDeferredDeath)
{
    Addr a = alloc.malloc(64, env);
    const Cycles before = env.ledger().total();
    alloc.free(a, env);
    // Becoming garbage costs (almost) nothing and performs no frees.
    EXPECT_EQ(env.ledger().total(), before);
    EXPECT_FALSE(alloc.isLive(a));
    EXPECT_EQ(stats.value("gomalloc.deaths"), 1u);
}

TEST_F(GoMallocTest, NoGcWithoutTrigger)
{
    for (int i = 0; i < 5000; ++i) {
        Addr a = alloc.malloc(64, env);
        alloc.free(a, env);
    }
    EXPECT_EQ(alloc.gcCycles(), 0u);
}

TEST_F(GoMallocTest, GcSweepsDeadObjectsAndReusesMemory)
{
    GoMalloc::Params params;
    params.gcTriggerBytes = 64 << 10;
    GoMalloc gc_alloc(vm, stats, params);
    std::vector<Addr> first;
    for (int i = 0; i < 500; ++i)
        first.push_back(gc_alloc.malloc(64, env));
    for (Addr p : first)
        gc_alloc.free(p, env);
    // Keep allocating past the trigger: GC must run and recycle.
    for (int i = 0; i < 2000; ++i)
        gc_alloc.free(gc_alloc.malloc(64, env), env);
    EXPECT_GT(gc_alloc.gcCycles(), 0u);
    EXPECT_GT(stats.value("gomalloc.swept_objects"), 0u);
}

TEST_F(GoMallocTest, ObjectZeroingTouchesObject)
{
    env.virtWrites.clear();
    Addr a = alloc.malloc(64, env);
    bool touched = false;
    for (Addr w : env.virtWrites)
        touched |= (w == a);
    EXPECT_TRUE(touched);
}

TEST_F(GoMallocTest, ArenasAreLargeReservations)
{
    alloc.malloc(64, env);
    EXPECT_EQ(stats.value("gomalloc.arena_mmaps"), 1u);
    // 64 MiB reservation, lazily backed.
    EXPECT_LT(vm.residentUserPages(), 100u);
}

TEST_F(GoMallocTest, FunctionExitBatchFrees)
{
    for (int i = 0; i < 1000; ++i)
        alloc.malloc(96, env);
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    // Batch free happens via munmap of the reservations.
    EXPECT_GT(env.ledger().category(CycleCategory::KernelMmap), 0u);
}

// ---------------------------------------------------------------------
// tcmalloc
// ---------------------------------------------------------------------

class TcMallocTest : public AllocatorFixture
{
  protected:
    TcMalloc alloc{vm, stats};
};

TEST_F(TcMallocTest, CacheServesLifoReuse)
{
    Addr a = alloc.malloc(48, env);
    alloc.free(a, env);
    Addr b = alloc.malloc(48, env);
    EXPECT_EQ(a, b);
}

TEST_F(TcMallocTest, RefillsComeInTransferBatches)
{
    for (int i = 0; i < 17; ++i)
        alloc.malloc(48, env);
    // Transfer batch of 16: 17 allocations need 2 refills.
    EXPECT_EQ(stats.value("tcmalloc.refills"), 2u);
}

TEST_F(TcMallocTest, PopFollowsFreeListPointerInObject)
{
    Addr a = alloc.malloc(64, env);
    env.virtReads.clear();
    alloc.free(a, env);
    Addr b = alloc.malloc(64, env);
    ASSERT_EQ(a, b);
    // The pop dereferenced the object (the load Mallacc removes).
    bool touched = false;
    for (Addr r : env.virtReads)
        touched |= (r == a);
    EXPECT_TRUE(touched);
}

TEST_F(TcMallocTest, ReleaseWhenCacheOverflows)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 80; ++i)
        ptrs.push_back(alloc.malloc(32, env));
    for (Addr p : ptrs)
        alloc.free(p, env);
    EXPECT_GT(stats.value("tcmalloc.releases"), 0u);
    // Released objects are reusable via the central list.
    for (int i = 0; i < 80; ++i)
        EXPECT_NE(alloc.malloc(32, env), kNullAddr);
}

TEST_F(TcMallocTest, PageHeapGrowsInLargeIncrements)
{
    alloc.malloc(64, env);
    EXPECT_EQ(stats.value("tcmalloc.heap_grows"), 1u);
    EXPECT_GT(stats.value("vm.mmap_calls"), 0u);
}

TEST_F(TcMallocTest, FunctionExitUnmapsRegions)
{
    for (int i = 0; i < 500; ++i)
        alloc.malloc(8 + (i % 64) * 8, env);
    const std::uint64_t munmaps = stats.value("vm.munmap_calls");
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_GT(stats.value("vm.munmap_calls"), munmaps);
    // Reusable after teardown.
    EXPECT_NE(alloc.malloc(64, env), kNullAddr);
}

TEST_F(TcMallocTest, MallaccIdealizationIsCheaper)
{
    test::TestEnv e1, e2;
    StatRegistry stats2;
    BuddyAllocator buddy2(1ull << 22, 1ull << 30, stats2);
    VirtualMemory vm2(cfg, buddy2, stats2, "vm2");
    MallaccAllocator ideal(vm2, stats2);

    // Warm both so the comparison is fast-path-only.
    for (int i = 0; i < 64; ++i) {
        alloc.free(alloc.malloc(64, e1), e1);
        ideal.free(ideal.malloc(64, e2), e2);
    }
    const Cycles before1 = e1.ledger().total();
    const Cycles before2 = e2.ledger().total();
    for (int i = 0; i < 100; ++i) {
        alloc.free(alloc.malloc(64, e1), e1);
        ideal.free(ideal.malloc(64, e2), e2);
    }
    EXPECT_LT(e2.ledger().total() - before2,
              e1.ledger().total() - before1);
}

// ---------------------------------------------------------------------
// glibc large
// ---------------------------------------------------------------------

class GlibcTest : public AllocatorFixture
{
  protected:
    GlibcLargeAlloc alloc{vm, stats, "g"};
};

TEST_F(GlibcTest, MediumSizesReuseFreedChunks)
{
    Addr a = alloc.malloc(4096, env);
    alloc.free(a, env);
    Addr b = alloc.malloc(4000, env);
    EXPECT_EQ(a, b); // First-fit finds the coalesced chunk.
}

TEST_F(GlibcTest, HugeSizesGetOwnMapping)
{
    const std::uint64_t mmaps_before = stats.value("vm.mmap_calls");
    Addr a = alloc.malloc(256 << 10, env);
    EXPECT_EQ(stats.value("vm.mmap_calls"), mmaps_before + 1);
    const std::uint64_t munmaps_before = stats.value("vm.munmap_calls");
    alloc.free(a, env);
    EXPECT_EQ(stats.value("vm.munmap_calls"), munmaps_before + 1);
}

TEST_F(GlibcTest, CoalescingMergesNeighbours)
{
    Addr a = alloc.malloc(1024, env);
    Addr b = alloc.malloc(1024, env);
    Addr c = alloc.malloc(1024, env);
    (void)c;
    alloc.free(a, env);
    alloc.free(b, env);
    // A single chunk now spans a+b: allocating 2000 bytes fits there.
    Addr d = alloc.malloc(2000, env);
    EXPECT_EQ(d, a);
}

TEST_F(GlibcTest, OwnsOnlyLivePointers)
{
    Addr a = alloc.malloc(1000, env);
    EXPECT_TRUE(alloc.owns(a));
    EXPECT_FALSE(alloc.owns(a + 8));
    alloc.free(a, env);
    EXPECT_FALSE(alloc.owns(a));
}

// ---------------------------------------------------------------------
// Cross-allocator property tests
// ---------------------------------------------------------------------

enum class Kind { Py, Je, Go, Tc, Memento, Mallacc, GlibcLarge };

/** The six Allocator backends. */
constexpr Kind kAllocatorKinds[] = {Kind::Py, Kind::Je,      Kind::Go,
                                    Kind::Tc, Kind::Memento, Kind::Mallacc};

/**
 * One allocator backend with the plumbing it runs on: the software
 * models get a bare VirtualMemory and a TestEnv; Memento needs the
 * hardware, so it runs inside a Machine. GlibcLarge is the bare
 * large-object model every Allocator routes sizes above kMaxSmallSize
 * to; it is not an Allocator, so only the property test drives it,
 * through large().
 */
class Backend
{
  public:
    explicit Backend(Kind kind)
        : buddy_(1ull << 22, 1ull << 30, stats_),
          vm_(cfg_, buddy_, stats_, "vm")
    {
        switch (kind) {
          case Kind::Py:
            owned_ = std::make_unique<PyMalloc>(vm_, stats_);
            break;
          case Kind::Je:
            owned_ = std::make_unique<JeMalloc>(vm_, stats_);
            break;
          case Kind::Go:
            owned_ = std::make_unique<GoMalloc>(vm_, stats_);
            break;
          case Kind::Tc:
            owned_ = std::make_unique<TcMalloc>(vm_, stats_);
            break;
          case Kind::Mallacc:
            owned_ = std::make_unique<MallaccAllocator>(vm_, stats_);
            break;
          case Kind::Memento: {
            machine_ = std::make_unique<Machine>(test::smallMementoConfig());
            WorkloadSpec spec;
            spec.id = "property";
            spec.lang = Language::Cpp;
            machine_->createProcess(spec);
            break;
          }
          case Kind::GlibcLarge:
            large_ = std::make_unique<GlibcLargeAlloc>(vm_, stats_, "g");
            break;
        }
    }

    Allocator &alloc() { return machine_ ? machine_->allocator() : *owned_; }
    Env &env() { return machine_ ? static_cast<Env &>(*machine_) : env_; }
    StatRegistry &stats() { return machine_ ? machine_->stats() : stats_; }
    /** The bare large-object model (Kind::GlibcLarge), else null. */
    GlibcLargeAlloc *large() { return large_.get(); }

  private:
    MachineConfig cfg_;
    StatRegistry stats_;
    BuddyAllocator buddy_;
    VirtualMemory vm_;
    TestEnv env_;
    std::unique_ptr<Allocator> owned_;
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<GlibcLargeAlloc> large_;
};

class AllocatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<Kind, std::uint64_t>>
{
};

TEST_P(AllocatorPropertyTest, RandomTrafficNeverOverlapsLiveObjects)
{
    auto [kind, seed] = GetParam();
    Backend backend(kind);
    Env &env = backend.env();
    // The bare large model takes only sizes above kMaxSmallSize and
    // keeps no byte count, so it is checked by live-object count.
    GlibcLargeAlloc *large = backend.large();
    const std::uint64_t size_floor = large ? kMaxSmallSize : 0;
    const auto malloc_ = [&](std::uint64_t size) {
        return large ? large->malloc(size, env)
                     : backend.alloc().malloc(size, env);
    };
    const auto free_ = [&](Addr p) {
        large ? large->free(p, env) : backend.alloc().free(p, env);
    };
    const auto is_live = [&](Addr p) {
        return large ? large->owns(p) : backend.alloc().isLive(p);
    };

    Rng rng(seed);
    std::map<Addr, std::uint64_t> live; // base -> size
    std::vector<Addr> order;
    std::uint64_t live_bytes = 0;

    for (int i = 0; i < 8000; ++i) {
        if (order.empty() || rng.nextBool(0.58)) {
            // Small, medium (large model's bins) and at least 128 KiB
            // (the large model's own-mapping path).
            std::uint64_t size =
                rng.nextBool(0.97)  ? rng.nextRange(1, 512)
                : rng.nextBool(0.8) ? rng.nextRange(513, 8192)
                                    : rng.nextRange(128 << 10, 512 << 10);
            size += size_floor;
            Addr p = malloc_(size);
            ASSERT_NE(p, kNullAddr);
            // Overlap check against neighbours in address order.
            auto next = live.lower_bound(p);
            if (next != live.end()) {
                ASSERT_GE(next->first, p + size)
                    << "overlap at iteration " << i;
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->first + prev->second, p);
            }
            live[p] = size;
            order.push_back(p);
            live_bytes += size;
            ASSERT_TRUE(is_live(p));
        } else {
            std::size_t pick = rng.nextBelow(order.size());
            Addr p = order[pick];
            std::uint64_t size = live.at(p);
            free_(p);
            ASSERT_FALSE(is_live(p));
            live.erase(p);
            order.erase(order.begin() + pick);
            live_bytes -= size;
        }
        if (large)
            ASSERT_EQ(large->liveObjects(), order.size());
        else
            ASSERT_EQ(backend.alloc().liveBytes(), live_bytes);
    }

    if (large) {
        large->releaseAll(env);
        EXPECT_EQ(large->liveObjects(), 0u);
    } else {
        backend.alloc().functionExit(env);
        EXPECT_EQ(backend.alloc().liveBytes(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorPropertyTest,
    ::testing::Combine(::testing::Values(Kind::Py, Kind::Je, Kind::Go,
                                         Kind::Tc, Kind::Memento,
                                         Kind::Mallacc, Kind::GlibcLarge),
                       ::testing::Values(1u, 2u, 3u, 4u)));

std::string
kindName(Kind kind)
{
    static const char *const names[] = {"Py", "Je",      "Go",
                                        "Tc", "Memento", "Mallacc"};
    return names[static_cast<int>(kind)];
}

class AllocatorMisuseTest : public ::testing::TestWithParam<Kind>
{
};

/** Expect a SimError(Internal) from freeing @p ptr, with no state change. */
void
expectRejectedFree(Allocator &alloc, Env &env, Addr ptr,
                   const std::vector<Addr> &live)
{
    const std::uint64_t bytes = alloc.liveBytes();
    try {
        alloc.free(ptr, env);
        ADD_FAILURE() << "free of 0x" << std::hex << ptr << " accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Internal);
    }
    EXPECT_EQ(alloc.liveBytes(), bytes);
    EXPECT_FALSE(alloc.isLive(ptr));
    for (Addr p : live)
        EXPECT_TRUE(alloc.isLive(p));
}

TEST_P(AllocatorMisuseTest, DoubleAndForeignFreesThrowWithoutEffect)
{
    Backend backend(GetParam());
    Allocator &alloc = backend.alloc();
    Env &env = backend.env();

    // One object per path: small, large-model bins, large-model mmap.
    std::vector<Addr> live;
    for (std::uint64_t size : {64u, 4096u, 256u << 10})
        live.push_back(alloc.malloc(size, env));
    for (std::uint64_t size : {48u, 2048u, 192u << 10}) {
        const Addr freed = alloc.malloc(size, env);
        alloc.free(freed, env);
        expectRejectedFree(alloc, env, freed, live); // Double free.
    }
    for (Addr p : live)
        expectRejectedFree(alloc, env, p + 8, live); // Interior pointer.
    expectRejectedFree(alloc, env, kNullAddr, live);

    // The allocator is still usable: every live object frees cleanly.
    for (Addr p : live)
        alloc.free(p, env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    alloc.functionExit(env);
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorMisuseTest,
    ::testing::ValuesIn(kAllocatorKinds),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return kindName(info.param);
    });

class AllocatorOversizeTest : public ::testing::TestWithParam<Kind>
{
};

/** Prefix of the backend's own counters, its large model's included. */
std::string
statPrefix(Kind kind)
{
    static const char *const prefixes[] = {"pymalloc", "jemalloc",
                                           "gomalloc", "tcmalloc",
                                           "memento",  "tcmalloc"};
    return prefixes[static_cast<int>(kind)];
}

/**
 * A counter of some small-object path: a software model's own, or one
 * of Memento's object-allocation hardware (HOT, object and page
 * allocators, AAC, bypass).
 */
bool
isSmallPathCounter(const std::string &name)
{
    if (name.find(".large_") != std::string::npos)
        return false;
    for (const char *prefix : {"pymalloc.", "jemalloc.", "gomalloc.",
                               "tcmalloc.", "memento.", "hot.", "hwobj.",
                               "hwpage.", "aac.", "bypass."}) {
        if (name.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

TEST_P(AllocatorOversizeTest, ServedByTheBaseLargeModelOnly)
{
    const Kind kind = GetParam();
    Backend backend(kind);
    Allocator &alloc = backend.alloc();
    Env &env = backend.env();
    const std::string large = statPrefix(kind) + ".large_";

    // Just above the small range (the large model's bins) and several
    // MiB (its own-mapping path).
    for (std::uint64_t size : {kMaxSmallSize + 1, std::uint64_t{3} << 20,
                               std::uint64_t{16} << 20}) {
        SCOPED_TRACE("size " + std::to_string(size));
        std::map<std::string, std::uint64_t> before =
            backend.stats().snapshot();
        const Addr p = alloc.malloc(size, env);
        EXPECT_TRUE(alloc.isLive(p));
        EXPECT_EQ(alloc.liveBytes(), size);
        alloc.free(p, env);
        std::map<std::string, std::uint64_t> after =
            backend.stats().snapshot();

        EXPECT_EQ(after[large + "mallocs"], before[large + "mallocs"] + 1);
        EXPECT_EQ(after[large + "frees"], before[large + "frees"] + 1);
        EXPECT_EQ(after[large + "mmap_served"],
                  before[large + "mmap_served"] +
                      (size >= GlibcLargeAlloc::kMmapThreshold ? 1 : 0));
        for (const auto &[name, value] : after) {
            if (isSmallPathCounter(name)) {
                EXPECT_EQ(value, before[name]) << name << " moved";
            }
        }
    }
    EXPECT_EQ(alloc.liveBytes(), 0u);
    alloc.functionExit(env);
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorOversizeTest,
    ::testing::ValuesIn(kAllocatorKinds),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return kindName(info.param);
    });

// ---------------------------------------------------------------------
// The base's flat live-object ledger against a hash-map oracle
// ---------------------------------------------------------------------

TEST(LiveLedger, MatchesUnorderedMapOracle)
{
    // Three key families: 64 KiB-strided keys (identical low 16 bits),
    // dense 16-byte-aligned heap-like keys, and sparse random keys.
    std::vector<Addr> keys;
    for (Addr i = 1; i <= 1500; ++i)
        keys.push_back(i << 16);
    for (Addr i = 0; i < 1500; ++i)
        keys.push_back(0x7000'0000 + 16 * i);
    Rng rng(2024);
    for (int i = 0; i < 1500; ++i)
        keys.push_back((rng.next() | 1) & ((1ull << 48) - 1));

    LiveLedger ledger;
    std::unordered_map<Addr, std::uint64_t> oracle;
    auto check_all = [&] {
        ASSERT_EQ(ledger.size(), oracle.size());
        for (Addr key : keys) {
            const std::uint64_t *size = ledger.find(key);
            const auto it = oracle.find(key);
            ASSERT_EQ(size != nullptr, it != oracle.end()) << key;
            if (size != nullptr) {
                ASSERT_EQ(*size, it->second) << key;
            }
        }
    };
    for (int step = 0; step < 100000; ++step) {
        const Addr key = keys[rng.nextBelow(keys.size())];
        const std::uint64_t roll = rng.nextBelow(10000);
        if (roll == 0) {
            ledger.clear();
            oracle.clear();
        } else if (roll < 5500) {
            const std::uint64_t size = rng.nextRange(1, 1 << 20);
            ledger.insert(key, size);
            oracle[key] = size;
        } else {
            std::uint64_t size = 0;
            const auto it = oracle.find(key);
            ASSERT_EQ(ledger.erase(key, size), it != oracle.end()) << key;
            if (it != oracle.end()) {
                ASSERT_EQ(size, it->second) << key;
                oracle.erase(it);
            }
        }
        ASSERT_EQ(ledger.size(), oracle.size()) << "step " << step;
        if (step % 997 == 0)
            check_all();
    }
    check_all();
    std::uint64_t size = 0;
    EXPECT_FALSE(ledger.erase(kNullAddr, size));
    EXPECT_EQ(ledger.find(kNullAddr), nullptr);
}

} // namespace
} // namespace memento
