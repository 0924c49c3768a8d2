#include "bench/bench_harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "machine/function_executor.h"
#include "machine/machine.h"
#include "machine/sweep.h"
#include "sim/config_canon.h"
#include "sim/json.h"
#include "sim/stats.h"
#include "val/digest.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

#ifndef MEMENTO_BUILD_FLAGS
#define MEMENTO_BUILD_FLAGS "unknown"
#endif

namespace memento {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

WorkloadBench
benchWorkload(const WorkloadSpec &spec, const Trace &trace,
              const BenchOptions &opts)
{
    WorkloadBench wb;
    wb.id = spec.id;
    wb.traceOps = trace.size();

    // Timed repetitions: fresh machine each time, clock only around
    // the replay itself (machine construction and process set-up are
    // the sweep's fixed costs, not the per-op path under test).
    std::vector<double> opsPerSec;
    for (unsigned r = 0; r < opts.repeats; ++r) {
        Machine machine(opts.cfg);
        machine.createProcess(spec);
        FunctionExecutor executor(machine);
        const Cycles before = machine.cycleLedger().total();
        const auto start = Clock::now();
        executor.run(spec, trace);
        const double elapsed = secondsSince(start);
        if (elapsed > 0.0)
            opsPerSec.push_back(static_cast<double>(trace.size()) /
                                elapsed);
        if (r == 0) {
            wb.cycles = machine.cycleLedger().total() - before;
            wb.digest = digestMachine(machine);
        }
    }
    std::sort(opsPerSec.begin(), opsPerSec.end());
    if (!opsPerSec.empty())
        wb.opsPerSec = opsPerSec[opsPerSec.size() / 2];

    // Chunked pass: per-op latency samples at ~4 Ki-op granularity
    // (fine enough to expose slow phases, coarse enough that the clock
    // reads do not dominate what they measure).
    constexpr std::size_t kChunkOps = 4096;
    std::vector<double> perOpNs;
    Machine machine(opts.cfg);
    machine.createProcess(spec);
    FunctionExecutor executor(machine);
    for (std::size_t from = 0; from < trace.size(); from += kChunkOps) {
        const std::size_t to = std::min(from + kChunkOps, trace.size());
        const auto start = Clock::now();
        executor.runRange(spec, trace, from, to);
        const double elapsed = secondsSince(start);
        perOpNs.push_back(elapsed * 1e9 /
                          static_cast<double>(to - from));
    }
    std::size_t from = 0;
    wb.p50OpNs = selectNearestRank(perOpNs, from, 50, 100);
    wb.p99OpNs = selectNearestRank(perOpNs, from, 99, 100);
    return wb;
}

} // namespace

BenchReport
runBench(const BenchOptions &opts)
{
    std::vector<WorkloadSpec> specs = allWorkloads();
    if (opts.smoke)
        specs.resize(std::min<std::size_t>(specs.size(), 3));

    BenchReport report;
    report.repeats = opts.repeats;
    report.smoke = opts.smoke;

    // Phase 1: per-workload measurements plus the serial sweep time
    // (the sum of per-workload serial seconds — one replay each).
    // Traces are kept for the jobs-N phase.
    std::vector<std::shared_ptr<const Trace>> traces;
    traces.reserve(specs.size());
    for (const WorkloadSpec &spec : specs) {
        traces.push_back(std::make_shared<const Trace>(
            TraceGenerator(spec).generate()));
        const auto start = Clock::now();
        WorkloadBench wb = benchWorkload(spec, *traces.back(), opts);
        // One replay per workload is the sweep-comparable serial time;
        // the measurement ran repeats + 1 replays.
        wb.serialWallSec =
            secondsSince(start) / static_cast<double>(opts.repeats + 1);
        report.totalOps += wb.traceOps;
        report.totalCycles += wb.cycles;
        report.jobs1WallSec += wb.serialWallSec;
        report.workloads.push_back(std::move(wb));
    }
    if (report.jobs1WallSec > 0.0)
        report.aggregateOpsPerSec =
            static_cast<double>(report.totalOps) / report.jobs1WallSec;

    // Fleet scenario: a fixed arrival run through src/fleet, so the
    // BENCH_*.json trajectory tracks node-level throughput and latency
    // percentiles PR over PR.
    FleetOptions fopts;
    fopts.cfg = opts.cfg;
    fopts.cfg.fleet.invocations = opts.smoke ? 400 : 2000;
    if (opts.smoke)
        fopts.cfg.fleet.mix = "aes"; // One cheap profile run.
    fopts.jobs = opts.jobs;
    report.fleetCfg = fopts.cfg;
    report.fleet = runFleet(fopts);

    // Phase 2: the same sweep through the work-stealing engine.
    std::vector<SweepTask> tasks;
    tasks.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        tasks.push_back({specs[i], opts.cfg, RunOptions{}, traces[i], {}});
    SweepOptions sweep_opts;
    sweep_opts.jobs = opts.jobs;
    SweepEngine engine(sweep_opts);
    report.jobsN = engine.effectiveJobs();
    const auto par_start = Clock::now();
    engine.run(tasks);
    report.jobsNWallSec = secondsSince(par_start);
    return report;
}

void
writeBenchJson(std::ostream &os, const BenchReport &report)
{
    JsonWriter w(os);
    w.beginObject();
    writeSchemaHeader(w, "bench");
    w.member("git_sha", codeVersionString());
    w.member("compiler", __VERSION__);
    w.member("build_flags", MEMENTO_BUILD_FLAGS);
    w.member("smoke", report.smoke);
    w.member("repeats", report.repeats);
    w.member("jobs", report.jobsN);
    w.key("workloads").beginArray();
    for (const WorkloadBench &wb : report.workloads) {
        w.beginObject();
        w.member("id", wb.id);
        w.member("trace_ops", wb.traceOps);
        w.member("cycles", wb.cycles);
        w.member("digest", digestToHex(wb.digest));
        w.member("ops_per_sec", wb.opsPerSec);
        w.member("p50_op_ns", wb.p50OpNs);
        w.member("p99_op_ns", wb.p99OpNs);
        w.endObject();
    }
    w.endArray();
    w.key("totals").beginObject();
    w.member("workloads",
             static_cast<std::uint64_t>(report.workloads.size()));
    w.member("trace_ops", report.totalOps);
    w.member("cycles", report.totalCycles);
    w.member("jobs1_wall_sec", report.jobs1WallSec);
    w.member("jobsN_wall_sec", report.jobsNWallSec);
    w.member("aggregate_ops_per_sec", report.aggregateOpsPerSec);
    w.endObject();
    const FleetMetrics &m = report.fleet.metrics;
    w.key("fleet").beginObject();
    w.member("arrival", report.fleet.fleet.arrival);
    w.member("invocations", report.fleet.fleet.invocations);
    w.member("cores", report.fleet.fleet.cores);
    w.member("mix", report.fleet.fleet.mix);
    w.member("completed", m.completed);
    w.member("cold_starts", m.coldStarts);
    w.member("p50_cycles", m.p50Cycles);
    w.member("p99_cycles", m.p99Cycles);
    w.member("p999_cycles", m.p999Cycles);
    w.member("p50_ms", m.latencyMs(report.fleetCfg, m.p50Cycles));
    w.member("p99_ms", m.latencyMs(report.fleetCfg, m.p99Cycles));
    w.member("p999_ms", m.latencyMs(report.fleetCfg, m.p999Cycles));
    w.member("throughput_rps", m.throughputRps(report.fleetCfg));
    w.member("cold_start_rate", m.coldStartRate());
    w.member("packing_density", m.packingDensity());
    w.member("digest", digestToHex(m.digest));
    w.endObject();
    w.endObject();
    w.complete();
}

void
printBenchText(std::ostream &os, const BenchReport &report)
{
    os << "workload                  ops        ops/s    p50ns   p99ns\n";
    for (const WorkloadBench &wb : report.workloads) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "%-22s %8llu %12.0f %8.1f %7.1f\n", wb.id.c_str(),
                      static_cast<unsigned long long>(wb.traceOps),
                      wb.opsPerSec, wb.p50OpNs, wb.p99OpNs);
        os << line;
    }
    char tail[200];
    std::snprintf(tail, sizeof tail,
                  "sweep: %.3fs at 1 job, %.3fs at %u job(s); "
                  "%.0f ops/s aggregate\n",
                  report.jobs1WallSec, report.jobsNWallSec, report.jobsN,
                  report.aggregateOpsPerSec);
    os << tail;
    const FleetMetrics &m = report.fleet.metrics;
    char fleet_line[200];
    std::snprintf(fleet_line, sizeof fleet_line,
                  "fleet: %llu invocations, %.1f rps, p50 %.3f ms, "
                  "p99 %.3f ms, cold %.2f%%, digest %s\n",
                  static_cast<unsigned long long>(m.completed),
                  m.throughputRps(report.fleetCfg),
                  m.latencyMs(report.fleetCfg, m.p50Cycles),
                  m.latencyMs(report.fleetCfg, m.p99Cycles),
                  m.coldStartRate() * 100.0,
                  digestToHex(m.digest).c_str());
    os << fleet_line;
}

} // namespace memento
