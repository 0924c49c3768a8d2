#include "mem/tlb.h"

#include <algorithm>
#include <limits>

#include "sim/logging.h"

namespace memento {

TlbSetIndex::TlbSetIndex(std::uint64_t sets)
    : sets_(sets),
      mask_(sets - 1),
      magic_(isPowerOfTwo(sets)
                 ? 0
                 : std::numeric_limits<std::uint64_t>::max() / sets + 1),
      limit_(isPowerOfTwo(sets)
                 ? std::numeric_limits<Addr>::max()
                 : std::numeric_limits<Addr>::max() / sets)
{
}

Tlb::Tlb(const std::string &name, const TlbConfig &cfg, StatRegistry &stats)
    : name_(name),
      setIndex_(cfg.entries / cfg.ways),
      ways_(cfg.ways),
      latency_(cfg.latency),
      entries_(cfg.entries / cfg.ways * cfg.ways),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses"))
{
    // A 2048-entry 12-way TLB (Table 3) is not evenly divisible; round
    // the set count down as real designs do (capacity 2040 here).
    panic_if(cfg.entries < cfg.ways, "tlb ", name, ": too few entries");
}

void
Tlb::insert(Addr vaddr, Addr paddr, unsigned shift)
{
    const Addr vpage = vaddr >> shift;
    panic_if(vpage > setIndex_.limit(), "tlb ", name_, ": page 0x",
             std::hex, vpage, " is past the exact set-index range");
    const Addr key = keyOf(vpage, shift);
    Entry *base = setOf(vpage);

    // Update in place on a match; otherwise the first minimum stamp is
    // the first invalid way, else the LRU way.
    Entry *victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = base[w];
        if (e.key == key) {
            victim = &e;
            break;
        }
        if (e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    if (victim->key != 0 && shiftOf(*victim) == kHugePageShift)
        --hugeEntries_;
    if (shift == kHugePageShift)
        ++hugeEntries_;
    victim->key = key;
    victim->pbase = paddr & ~((1ull << shift) - 1);
    victim->lruStamp = ++lruClock_;
}

void
Tlb::invalidatePage(Addr vaddr)
{
    for (unsigned shift : {kPageShift, kHugePageShift}) {
        const Addr vpage = vaddr >> shift;
        const Addr key = keyOf(vpage, shift);
        Entry *base = setOf(vpage);
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].key == key) {
                base[w] = Entry{};
                if (shift == kHugePageShift)
                    --hugeEntries_;
            }
        }
    }
}

void
Tlb::flushAll()
{
    std::fill(entries_.begin(), entries_.end(), Entry{});
    hugeEntries_ = 0;
}

} // namespace memento
