/**
 * @file
 * Synthesizes operation traces from a WorkloadSpec.
 *
 * The generator reproduces the paper's measured structure: a stream of
 * allocation events separated by compute, each allocating from the
 * spec's size mixture, touching the fresh object, reading recent
 * objects and the static working set, and dying after a malloc-free
 * distance drawn from the bimodal lifetime model (distance counted in
 * same-size-class allocations, exactly the §2.2 metric). Never-freed
 * objects are reclaimed by the FunctionEnd batch free.
 */

#ifndef MEMENTO_WL_TRACE_GENERATOR_H
#define MEMENTO_WL_TRACE_GENERATOR_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/thread_annotations.h"
#include "wl/trace.h"
#include "wl/workloads.h"

namespace memento {

/** Deterministic trace synthesis. */
class TraceGenerator
{
  public:
    explicit TraceGenerator(const WorkloadSpec &spec) : spec_(spec) {}

    /** Generate the full trace (same spec + seed => same trace). */
    Trace generate() const;

  private:
    const WorkloadSpec &spec_;
};

/**
 * Thread-safe memoization of TraceGenerator::generate().
 *
 * A sweep runs each workload under several configurations (baseline,
 * Memento, bypass-off, digest pairing); the trace depends only on the
 * spec, so synthesizing it once and sharing it is both a large saving
 * and a correctness aid — every variant replays the *same object*, not
 * merely an equal one. Traces are handed out as shared_ptr<const Trace>
 * so no caller can mutate the shared copy.
 *
 * Concurrent first touches of the same workload synthesize exactly
 * once: late arrivals block on the entry's once_flag until the winner
 * has published the trace.
 */
class TraceCache
{
  public:
    /**
     * The trace for @p spec, synthesizing on first touch. Entries are
     * keyed by traceIdentity(); one cache must not be fed two
     * different specs that collide on that key.
     */
    std::shared_ptr<const Trace> get(const WorkloadSpec &spec);

    /** Number of actual generate() calls performed (for tests). */
    std::uint64_t generations() const { return generations_.load(); }

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const Trace> trace;
    };

    std::mutex mu_;
    std::map<std::string, std::shared_ptr<Entry>> entries_
        MEMENTO_GUARDED_BY(mu_);
    std::atomic<std::uint64_t> generations_{0};
};

} // namespace memento

#endif // MEMENTO_WL_TRACE_GENERATOR_H
