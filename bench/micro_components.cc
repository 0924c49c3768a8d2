/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths:
 * how fast the host executes simulated obj-alloc/obj-free, software
 * allocator operations, cache accesses, page walks, and the fleet
 * event loop. These guard the simulator's throughput (host-seconds per
 * simulated operation), not the simulated latencies.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "machine/machine.h"
#include "sim/rng.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

using namespace memento;

namespace {

void
BM_MementoAllocFree(benchmark::State &state)
{
    Machine machine(mementoConfig());
    machine.createProcess(workloadById("aes"));
    Allocator &alloc = machine.allocator();
    for (auto _ : state) {
        const Addr a = alloc.malloc(64, machine);
        benchmark::DoNotOptimize(a);
        alloc.free(a, machine);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MementoAllocFree);

void
BM_PyMallocAllocFree(benchmark::State &state)
{
    Machine machine(defaultConfig());
    machine.createProcess(workloadById("aes"));
    Allocator &alloc = machine.allocator();
    // One object live across the loop keeps its arena mapped; without
    // it every iteration would map, fault and unmap a whole arena.
    const Addr pinned = alloc.malloc(64, machine);
    for (auto _ : state) {
        const Addr a = alloc.malloc(64, machine);
        benchmark::DoNotOptimize(a);
        alloc.free(a, machine);
    }
    const std::uint64_t mmaps =
        machine.stats().value("pymalloc.arena_mmaps");
    state.counters["arena_mmaps"] = static_cast<double>(mmaps);
    if (mmaps != 1)
        state.SkipWithError("pymalloc mapped more than one arena");
    alloc.free(pinned, machine);
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PyMallocAllocFree);

void
BM_AppAccess(benchmark::State &state)
{
    Machine machine(defaultConfig());
    machine.createProcess(workloadById("aes"));
    Addr base = machine.staticBase();
    std::uint64_t offset = 0;
    for (auto _ : state) {
        machine.appAccess(base + (offset % (128 << 10)),
                          AccessType::Read);
        offset += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppAccess);

void
BM_AppAccessScattered(benchmark::State &state)
{
    // Random line-aligned reads over a static footprint 8x the larger of
    // the simulated LLC and the L2 TLB's reach, so L2 TLB misses with
    // page walks, LLC misses and DRAM are all on the timed path
    // (BM_AppAccess stays in L2 and the L1 TLB).
    const MachineConfig cfg = defaultConfig();
    const std::uint64_t footprint =
        8 * std::max<std::uint64_t>(cfg.llc.sizeBytes,
                                    cfg.l2Tlb.entries * kPageSize);
    WorkloadSpec spec = workloadById("aes");
    spec.staticWsBytes = footprint;
    Machine machine(cfg);
    machine.createProcess(spec);
    const Addr base = machine.staticBase();
    // Fault every page in first: the steady state has no page faults.
    for (std::uint64_t off = 0; off < footprint; off += kPageSize)
        machine.appAccess(base + off, AccessType::Read);
    Rng rng(1);
    for (auto _ : state) {
        const std::uint64_t line = rng.nextBelow(footprint >> kLineShift);
        machine.appAccess(base + (line << kLineShift), AccessType::Read);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppAccessScattered);

void
BM_TraceGeneration(benchmark::State &state)
{
    const WorkloadSpec &spec = workloadById("jl");
    for (auto _ : state) {
        Trace trace = TraceGenerator(spec).generate();
        benchmark::DoNotOptimize(trace.data());
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_SimulateFleet(benchmark::State &state)
{
    // The fleet event loop alone, at the shape of a function node:
    // 16 synthetic profiles, 8 cores, Poisson arrivals at 200 rps,
    // 50 ms keep-alive and a 45 000-page budget, so expiry, warm reuse
    // and eviction all run.
    MachineConfig cfg = defaultConfig();
    cfg.fleet.arrival = "poisson";
    cfg.fleet.cores = 8;
    cfg.fleet.ratePerSec = 200.0;
    cfg.fleet.keepAliveMs = 50.0;
    cfg.fleet.memoryBudgetPages = 45'000;
    cfg.fleet.invocations = 200'000;
    std::vector<FleetProfile> profiles;
    for (std::uint64_t i = 0; i < 16; ++i) {
        FleetProfile p;
        p.id = "synthetic" + std::to_string(i);
        p.serviceCycles = 12'000'000 + 10'000'000 * i;
        p.pages = 150 + 300 * i;
        profiles.push_back(p);
    }
    const std::vector<Arrival> arrivals =
        generateArrivals(cfg, profiles.size());
    for (auto _ : state) {
        const FleetMetrics m = simulateFleet(arrivals, profiles, cfg);
        benchmark::DoNotOptimize(m.digest);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(arrivals.size()));
}
BENCHMARK(BM_SimulateFleet)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
