/**
 * @file
 * Self-benchmark harness: measures the simulator simulating.
 *
 * `memento_sim bench` replays the built-in workload sweep and reports
 * how fast the *simulator* runs — trace ops replayed per wall-clock
 * second, per-op latency percentiles, and the sweep's total wall time
 * at one worker and at N workers — as a versioned JSON document
 * (kind "bench", see sim/json.h). The simulated results themselves
 * (cycle counts, machine-state digests) ride along so a bench run
 * doubles as a determinism fixture: perf numbers vary run to run, but
 * cycles and digests must be byte-identical at any --jobs level.
 *
 * Measurement recipe, per workload:
 *  - the trace is synthesized once (untimed);
 *  - `repeats` timed replays on fresh machines, each timing only the
 *    FunctionExecutor::run window; ops/s is the median;
 *  - one chunked replay (runRange in ~4 Ki-op chunks) collects per-op
 *    wall-latency samples for the nearest-rank p50/p99;
 *  - cycles and digest come from the first timed replay.
 *
 * The jobs-N phase re-runs the whole sweep through SweepEngine to
 * measure parallel throughput with the same work distribution the
 * `run all` command uses. Every invocation measures afresh: bench
 * opens no result store, so its timings are never replayed from one.
 */

#ifndef MEMENTO_BENCH_BENCH_HARNESS_H
#define MEMENTO_BENCH_BENCH_HARNESS_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "sim/config.h"

namespace memento {

/** What to benchmark. */
struct BenchOptions
{
    MachineConfig cfg = defaultConfig();
    /** Reduced three-workload sweep for CI smoke jobs. */
    bool smoke = false;
    /** Timed repetitions per workload; the median is reported. */
    unsigned repeats = 3;
    /** Workers for the jobs-N phase; 0 = hardware concurrency. */
    unsigned jobs = 0;
};

/** Per-workload measurements. */
struct WorkloadBench
{
    std::string id;
    std::uint64_t traceOps = 0;
    /** Simulated cycles of one replay (deterministic). */
    std::uint64_t cycles = 0;
    /** Machine-state digest after one replay (deterministic). */
    std::uint64_t digest = 0;
    /** Median replay throughput over the timed repetitions. */
    double opsPerSec = 0.0;
    /** Per-op wall latency percentiles from the chunked pass. */
    double p50OpNs = 0.0;
    double p99OpNs = 0.0;
    /**
     * Sweep-comparable serial seconds for this workload (measurement
     * wall time over repeats + 1 replays). Feeds the report's
     * jobs1_wall_sec total; not itself in the JSON document.
     */
    double serialWallSec = 0.0;
};

/** The full bench result. */
struct BenchReport
{
    std::vector<WorkloadBench> workloads;
    unsigned repeats = 0;
    bool smoke = false;
    std::uint64_t totalOps = 0;
    std::uint64_t totalCycles = 0;
    /** Whole-sweep wall seconds, one run per workload. */
    double jobs1WallSec = 0.0;
    double jobsNWallSec = 0.0;
    /** Effective worker count of the jobs-N phase. */
    unsigned jobsN = 1;
    /** totalOps / jobs1WallSec. */
    double aggregateOpsPerSec = 0.0;
    /**
     * Fleet scenario (src/fleet) benched alongside the sweep: a fixed
     * Poisson arrival run (400 invocations in smoke mode, 2000 in
     * full) whose throughput and latency percentiles land in the
     * BENCH_*.json trajectory. Entirely integer-derived, so it is
     * byte-identical across --jobs levels.
     */
    FleetReport fleet;
    /** Config the fleet scenario ran under (for cycle->ms rendering). */
    MachineConfig fleetCfg;
};

/** Run the benchmark (drives real simulations; takes seconds). */
BenchReport runBench(const BenchOptions &opts);

/** Serialize @p report as the versioned "bench" JSON document. */
void writeBenchJson(std::ostream &os, const BenchReport &report);

/** One-line-per-workload text rendering for terminals. */
void printBenchText(std::ostream &os, const BenchReport &report);

} // namespace memento

#endif // MEMENTO_BENCH_BENCH_HARNESS_H
