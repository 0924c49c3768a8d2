/**
 * @file
 * A lightweight named-statistics registry.
 *
 * Components register counters under dotted names ("l1d.hits"). The
 * registry owns the storage; Counter is a cheap handle. Benchmarks and
 * reports read counters by name after a run.
 */

#ifndef MEMENTO_SIM_STATS_H
#define MEMENTO_SIM_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/thread_annotations.h"

namespace memento {

class StatRegistry;

/**
 * Read-only handle to one counter, resolved by name once.
 *
 * Resolution never creates the counter (creating a zero entry would
 * perturb machine-state digests): a handle to a name that is never
 * registered reads as 0, and a handle resolved before its counter
 * appears re-resolves lazily on the next read. Report extraction
 * resolves each metric once per experiment instead of copying the
 * registry and repeating string-keyed lookups.
 */
class StatHandle
{
  public:
    StatHandle() = default;

    /** Current value (0 when the counter was never registered). */
    std::uint64_t value() const;

  private:
    friend class StatRegistry;
    StatHandle(const StatRegistry *stats, std::string name,
               const std::uint64_t *slot)
        : stats_(stats), name_(std::move(name)), slot_(slot)
    {
    }

    const StatRegistry *stats_ = nullptr;
    std::string name_;
    mutable const std::uint64_t *slot_ = nullptr;
};

/** Handle to a registered 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator+=(std::uint64_t n)
    {
        *slot_ += n;
        return *this;
    }

    Counter &
    operator++()
    {
        ++*slot_;
        return *this;
    }

    /** Current value. */
    std::uint64_t value() const { return *slot_; }

    /** Overwrite the value (used for gauges such as peak usage). */
    void set(std::uint64_t v) { *slot_ = v; }

    /** Raise the value to @p v if larger (high-water marks). */
    void
    raiseTo(std::uint64_t v)
    {
        if (v > *slot_)
            *slot_ = v;
    }

  private:
    friend class StatRegistry;
    explicit Counter(std::uint64_t *slot) : slot_(slot) {}
    std::uint64_t *slot_ = nullptr;
};

/**
 * Owns all counters of one simulated machine.
 *
 * Deliberately not synchronized: a registry belongs to exactly one
 * Machine, and a machine is driven by exactly one thread. The parallel
 * sweep engine gives every run a fresh Machine (hence a fresh
 * registry) instead of sharing counters across workers — there are no
 * process-wide statistics anywhere in the simulator.
 */
class MEMENTO_SINGLE_THREADED StatRegistry
{
  public:
    /** Get (creating if needed) the counter registered as @p name. */
    Counter counter(const std::string &name);

    /** Value of @p name, or 0 if it was never registered. */
    std::uint64_t value(const std::string &name) const;

    /** One-time name resolution for repeated reads (see StatHandle). */
    StatHandle handle(const std::string &name) const;

    /** Address of @p name's slot, or nullptr if never registered. */
    const std::uint64_t *findSlot(const std::string &name) const;

    /** value(numer) / value(denom), or 0 when the denominator is 0. */
    double ratio(const std::string &numer, const std::string &denom) const;

    /** Zero every registered counter (registrations survive). */
    void resetAll();

    /** Print "name value" lines sorted by name. */
    void dump(std::ostream &os) const;

    /** Snapshot of all counters, for paired-run comparisons. */
    std::map<std::string, std::uint64_t> snapshot() const;

  private:
    // node_hash-stable container: Counter handles point into mapped values
    // and std::map guarantees reference stability across inserts.
    std::map<std::string, std::uint64_t> values_;
};

/**
 * Nearest-rank percentile (num/den) of @p values, selected rather
 * than sorted. Calls must come in ascending percentile order, with
 * @p from the position the previous call selected (0 before the
 * first): std::nth_element leaves [from, end) holding exactly the
 * values of sorted positions from.., so each selection searches only
 * that tail.
 */
template <typename T>
T
selectNearestRank(std::vector<T> &values, std::size_t &from,
                  std::uint64_t num, std::uint64_t den)
{
    if (values.empty())
        return T{};
    const auto n = static_cast<std::uint64_t>(values.size());
    std::uint64_t rank = (num * n + den - 1) / den; // ceil(num/den * n)
    if (rank == 0)
        rank = 1;
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(from),
                     nth, values.end());
    from = rank - 1;
    return *nth;
}

} // namespace memento

#endif // MEMENTO_SIM_STATS_H
