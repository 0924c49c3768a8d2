/**
 * @file
 * Memento arena layout and address arithmetic (§3.1–3.2).
 *
 * The reserved virtual region [MRS, MRE) is divided evenly into 64
 * size-class sub-regions. Within a sub-region, arenas are laid out
 * back-to-back at a fixed per-class span, so hardware can recover the
 * size class and arena base of any object address with shifts and one
 * divide by a constant known in advance — exactly the property §3.2
 * relies on.
 *
 * Arena layout: a 64-byte header (VA field, 256-bit allocation bitmap,
 * 11-bit bypass counter, prev/next list pointers) followed by the body
 * of 256 equal-sized objects; the whole span is rounded up to pages.
 */

#ifndef MEMENTO_HW_ARENA_H
#define MEMENTO_HW_ARENA_H

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/config.h"
#include "sim/logging.h"
#include "sim/size_class.h"
#include "sim/types.h"

namespace memento {

/** Where an in-region address falls (ArenaGeometry::locate). */
struct ArenaCoord
{
    unsigned cls = 0;          ///< Size class.
    std::uint64_t arena = 0;   ///< Arena number within the class.
    std::uint64_t offset = 0;  ///< Byte offset from the arena base.
};

/** Address arithmetic over the Memento region. */
class ArenaGeometry
{
  public:
    /** Header bytes at the start of every arena. */
    static constexpr std::uint64_t kHeaderBytes = 64;

    ArenaGeometry(const MementoConfig &mcfg, const AddressLayout &layout)
        : regionStart_(layout.mementoRegionStart),
          perClassBytes_(layout.perClassRegionBytes),
          classShift_(std::has_single_bit(layout.perClassRegionBytes)
                          ? static_cast<unsigned>(std::countr_zero(
                                layout.perClassRegionBytes))
                          : 0),
          numClasses_(mcfg.numSizeClasses),
          objectsPerArena_(mcfg.objectsPerArena)
    {
        // The header's allocation bitmap field is 256 bits (Fig. 5a).
        panic_if(objectsPerArena_ == 0 || objectsPerArena_ > 256,
                 "memento: objectsPerArena must be in [1, 256]");
        // locate() divides page numbers within a class in 32 bits.
        panic_if((perClassBytes_ >> kPageShift) > UINT32_MAX,
                 "memento: per-class region exceeds 2^32 pages");
    }

    Addr regionStart() const { return regionStart_; }
    Addr regionEnd() const
    {
        return regionStart_ + perClassBytes_ * numClasses_;
    }

    /** True when @p va lies in [MRS, MRE). */
    bool
    inRegion(Addr va) const
    {
        return va >= regionStart() && va < regionEnd();
    }

    unsigned numClasses() const { return numClasses_; }
    unsigned objectsPerArena() const { return objectsPerArena_; }

    /** Total bytes (header + body) of a class-@p cls arena, unpadded. */
    std::uint64_t
    arenaPayloadBytes(unsigned cls) const
    {
        return kHeaderBytes + objectsPerArena_ * sizeClassBytes(cls);
    }

    /** Page-rounded virtual span of a class-@p cls arena. */
    std::uint64_t
    arenaSpan(unsigned cls) const
    {
        return alignUp(arenaPayloadBytes(cls), kPageSize);
    }

    /**
     * Class, arena number and in-arena offset of an in-region address:
     * a shift (or, for a region size that is not a power of two, one
     * divide) for the class, one 32-bit divide for the arena.
     */
    ArenaCoord
    locate(Addr va) const
    {
        panic_if(!inRegion(va), "locate: address outside Memento region");
        const std::uint64_t rel = va - regionStart_;
        const unsigned cls = static_cast<unsigned>(
            classShift_ != 0 ? rel >> classShift_ : rel / perClassBytes_);
        const std::uint64_t in_class = rel - cls * perClassBytes_;
        const std::uint64_t span = arenaSpan(cls);
        // Exact: floor(x / (p * 4096)) == floor(floor(x / 4096) / p).
        const std::uint64_t arena =
            static_cast<std::uint32_t>(in_class >> kPageShift) /
            static_cast<std::uint32_t>(span >> kPageShift);
        return {cls, arena, in_class - arena * span};
    }

    /** Size class of an in-region address. */
    unsigned classOf(Addr va) const { return locate(va).cls; }

    /** Base virtual address of the arena containing @p va. */
    Addr arenaBaseOf(Addr va) const { return va - locate(va).offset; }

    /** Object slot index of the address at @p at. */
    unsigned
    objIndexOf(const ArenaCoord &at) const
    {
        panic_if(at.offset < kHeaderBytes,
                 "objIndexOf: address inside arena header");
        return static_cast<unsigned>((at.offset - kHeaderBytes) /
                                     sizeClassBytes(at.cls));
    }

    /** Object slot index of @p va within its arena. */
    unsigned objIndexOf(Addr va) const { return objIndexOf(locate(va)); }

    /** Virtual address of slot @p idx in the arena at @p arena_base. */
    Addr
    objAddr(Addr arena_base, unsigned cls, unsigned idx) const
    {
        return arena_base + kHeaderBytes +
               static_cast<std::uint64_t>(idx) * sizeClassBytes(cls);
    }

    /** Cache-line index of @p va within its arena (bypass tracking). */
    unsigned
    lineIndexOf(Addr va) const
    {
        return static_cast<unsigned>(locate(va).offset >> kLineShift);
    }

    /** First arena base of class @p cls. */
    Addr
    classBase(unsigned cls) const
    {
        return regionStart_ + static_cast<std::uint64_t>(cls) *
                                  perClassBytes_;
    }

  private:
    Addr regionStart_;
    std::uint64_t perClassBytes_;
    /** log2(perClassBytes_) when a power of two, else 0 (divide). */
    unsigned classShift_;
    unsigned numClasses_;
    unsigned objectsPerArena_;
};

/** The header's 256-bit allocation bitmap: slot i is bit i % 64 of word i / 64. */
struct SlotBitmap
{
    std::array<std::uint64_t, 4> words{};

    bool test(unsigned i) const { return (words[i >> 6] >> (i & 63)) & 1; }
    void set(unsigned i) { words[i >> 6] |= bit(i); }
    void reset(unsigned i) { words[i >> 6] &= ~bit(i); }
    void flip(unsigned i) { words[i >> 6] ^= bit(i); }

    /** Number of set bits. */
    unsigned
    count() const
    {
        unsigned n = 0;
        for (std::uint64_t w : words)
            n += static_cast<unsigned>(std::popcount(w));
        return n;
    }

    /** Lowest clear bit below @p limit, or @p limit when there is none. */
    unsigned
    firstClear(unsigned limit) const
    {
        for (unsigned w = 0; w < words.size(); ++w) {
            if (~words[w] != 0) {
                const unsigned i =
                    w * 64 + static_cast<unsigned>(std::countr_one(words[w]));
                return i < limit ? i : limit;
            }
        }
        return limit;
    }

  private:
    static std::uint64_t bit(unsigned i) { return 1ull << (i & 63); }
};

/**
 * Authoritative (memory-resident) state of one arena header. The HOT
 * caches this; hardware reads/writes are charged against the header's
 * physical address.
 */
struct ArenaState
{
    static constexpr unsigned kMaxObjects = 256;

    Addr va = 0;       ///< Base virtual address (header VA field).
    Addr headerPa = 0; ///< Physical address of the header line.
    unsigned szclass = 0;
    /** Owning thread (§4: each thread allocates from its own arenas). */
    unsigned ownerThread = 0;
    SlotBitmap bitmap;
    unsigned allocated = 0;
    /** 11-bit bypass counter: high-water accessed line index + 1. */
    unsigned bypassCounter = 0;

    bool full(unsigned capacity) const { return allocated == capacity; }
    bool empty() const { return allocated == 0; }

    /** Lowest clear bit, or capacity when full. */
    unsigned
    findFreeSlot(unsigned capacity) const
    {
        return bitmap.firstClear(capacity);
    }
};

/**
 * The memory-resident arena headers of one address space, found the
 * way the hardware finds them: by address arithmetic. Each size class
 * has a dense table indexed by arena number, (va - classBase) / span.
 *
 * Arena VAs come from the class's bump pointer and are never reused,
 * so a class's table is the window from its oldest live arena up to
 * the newest: insertion appends, a released arena leaves an empty slot
 * (va == 0: the config schema keeps MRS at 4096 or above), and empty
 * slots at the front are dropped.
 * A std::deque per class keeps references valid as the table grows.
 * Walks visit arenas in ascending VA order by construction.
 */
class ArenaTable
{
  public:
    explicit ArenaTable(const ArenaGeometry &geometry)
        : geometry_(geometry), classes_(geometry.numClasses())
    {
    }

    /** Header of arena number @p arena of class @p cls, or nullptr. */
    ArenaState *
    find(unsigned cls, std::uint64_t arena)
    {
        Class &c = classes_[cls];
        // Below the window, the index wraps past size(): absent too.
        const std::uint64_t i = arena - c.first;
        if (i >= c.slots.size() || c.slots[i].va == kNullAddr)
            return nullptr;
        return &c.slots[i];
    }

    /** Header of the live arena based at @p base, or nullptr. */
    ArenaState *
    find(Addr base)
    {
        if (!geometry_.inRegion(base))
            return nullptr;
        const ArenaCoord at = geometry_.locate(base);
        return at.offset == 0 ? find(at.cls, at.arena) : nullptr;
    }

    /** Header of the live arena based at @p base (which must exist). */
    ArenaState &
    at(Addr base)
    {
        ArenaState *state = find(base);
        panic_if(state == nullptr, "memento: no arena at 0x", std::hex,
                 base);
        return *state;
    }

    /** Add the header of a newly granted arena (based at state.va). */
    ArenaState &
    insert(const ArenaState &state)
    {
        const ArenaCoord at = geometry_.locate(state.va);
        panic_if(at.offset != 0, "memento: arena VA 0x", std::hex,
                 state.va, " is not an arena base");
        Class &c = classes_[at.cls];
        if (c.slots.empty())
            c.first = at.arena;
        panic_if(at.arena < c.first, "memento: arena VA 0x", std::hex,
                 state.va, " reused below the live window");
        const std::uint64_t i = at.arena - c.first;
        if (i >= c.slots.size())
            c.slots.resize(i + 1);
        ArenaState &slot = c.slots[i];
        panic_if(slot.va != kNullAddr, "memento: duplicate arena at 0x",
                 std::hex, state.va);
        slot = state;
        ++live_;
        return slot;
    }

    /** Drop the header of the live arena based at @p base. */
    void
    erase(Addr base)
    {
        at(base) = ArenaState{};
        --live_;
        Class &c = classes_[geometry_.classOf(base)];
        while (!c.slots.empty() && c.slots.front().va == kNullAddr) {
            c.slots.pop_front();
            ++c.first;
        }
    }

    /** Drop every header. */
    void
    clear()
    {
        for (Class &c : classes_)
            c.slots.clear();
        live_ = 0;
    }

    /** The lowest-addressed live header, or nullptr when there is none. */
    ArenaState *
    lowest()
    {
        for (Class &c : classes_) {
            if (!c.slots.empty())
                return &c.slots.front(); // Empty front slots are dropped.
        }
        return nullptr;
    }

    /** Live arenas. */
    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

    /** Call @p fn on every live header in ascending VA order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Class &c : classes_) {
            for (ArenaState &state : c.slots) {
                if (state.va != kNullAddr)
                    fn(state);
            }
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const_cast<ArenaTable *>(this)->forEach(
            [&](const ArenaState &state) { fn(state); });
    }

  private:
    struct Class
    {
        std::uint64_t first = 0; ///< Arena number of slots.front().
        std::deque<ArenaState> slots;
    };

    ArenaGeometry geometry_;
    std::vector<Class> classes_;
    std::size_t live_ = 0;
};

} // namespace memento

#endif // MEMENTO_HW_ARENA_H
