#include "mem/cache.h"

#include "sim/logging.h"

namespace memento {

Cache::Cache(const std::string &name, const CacheConfig &cfg,
             StatRegistry &stats)
    : name_(name),
      numSets_(cfg.numSets()),
      ways_(cfg.ways),
      latency_(cfg.latency),
      lines_(numSets_ * ways_),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      evictions_(stats.counter(name + ".evictions")),
      dirtyEvictions_(stats.counter(name + ".dirty_evictions"))
{
    panic_if(numSets_ == 0, "cache ", name, ": zero sets");
    panic_if(!isPowerOfTwo(numSets_), "cache ", name,
             ": set count must be a power of two");
}

Cache::Eviction
Cache::invalidate(Addr paddr)
{
    const Addr key = keyOf(paddr);
    Line *base = setOf(paddr);
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.key == key) {
            Eviction removed{true, lineBase(paddr),
                             (line.stamp & kDirty) != 0};
            line = Line{};
            return removed;
        }
    }
    return {};
}

std::uint64_t
Cache::flushAll()
{
    std::uint64_t dirty = 0;
    for (Line &line : lines_) {
        if (line.key != 0 && (line.stamp & kDirty))
            ++dirty;
        line = Line{};
    }
    return dirty;
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (const Line &line : lines_) {
        if (line.key != 0)
            ++n;
    }
    return n;
}

void
Cache::forEachLine(
    const std::function<void(Addr lineAddr, bool dirty)> &fn) const
{
    for (const Line &line : lines_) {
        if (line.key != 0)
            fn(line.key & ~kValid, (line.stamp & kDirty) != 0);
    }
}

bool
Cache::checkIntegrity(std::vector<std::string> &violations) const
{
    const std::size_t before = violations.size();
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const Line *base = &lines_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            const Line &line = base[w];
            if (line.key == 0) {
                // A stamped invalid way would lose victim choice to an
                // older valid one: invalid ways must keep stamp 0.
                if (line.stamp & kDirty)
                    violations.push_back(name_ + ": invalid line dirty");
                else if (line.stamp != 0)
                    violations.push_back(name_ + ": invalid line stamped");
                continue;
            }
            if (setIndex(line.key) != set)
                violations.push_back(
                    name_ + ": tag does not map to its own set");
            for (unsigned v = w + 1; v < ways_; ++v) {
                if (base[v].key == line.key)
                    violations.push_back(
                        name_ + ": duplicate tag within a set");
            }
        }
    }
    return violations.size() == before;
}

} // namespace memento
