/**
 * @file
 * Repository benchmark program. Links the simulator library and runs one
 * of two workloads, the paper's two application classes, through its
 * public entry points:
 *
 *  - functions: the 16 serverless function applications;
 *  - longrun:   the 7 long-running applications (data processing and
 *               platform operations).
 *
 * Both workloads time the same pass over their own applications:
 * compareSweep x {baseline, Memento, Memento-no-bypass} on a 2-worker
 * SweepEngine with a fresh result store, plus profileTrace; a
 * single-thread Experiment::runOne replay under baseline and Memento; and
 * a node simulation (generateArrivals + simulateFleet) serving the class,
 * one fixed-rate run and one capacity search per config. Every metric a
 * workload prints comes from its own pass.
 *
 * With --trace 0 the program prints the workload's end-to-end metrics;
 * with --trace 1 it runs the workload once untraced, then drives every
 * replay cell through a benchmark-owned dispatch loop that times each
 * call into the allocator (rt/hw) and memory (mem) layers from outside,
 * checks that loop against FunctionExecutor cell by cell (cycles and
 * digest), and prints per-layer metrics. Spans are written to
 * <out-dir>/spans-<workload>-seed<seed>.json at exit.
 *
 * The last stdout line is always one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * Lines before it starting with '#' are run metadata and check notes.
 *
 * Usage: memento_perfbench --workload functions|longrun [--seed N]
 *        [--seconds S]
 *        [--trace 0|1] [--reduced] [--golden FILE] [--out-dir DIR]
 *        memento_perfbench --write-golden FILE --seeds A-B
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "an/lifetime.h"
#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "machine/experiment.h"
#include "machine/function_executor.h"
#include "machine/machine.h"
#include "machine/result_store.h"
#include "machine/sweep.h"
#include "sim/config.h"
#include "sim/config_canon.h"
#include "sim/error.h"
#include "sim/json.h"
#include "val/digest.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

using namespace memento;

namespace {

// ---------------------------------------------------------------------
// Fixed shape of the benchmark
// ---------------------------------------------------------------------

/** The workloads: the paper's two application classes. */
const std::vector<std::string> kWorkloads = {"functions", "longrun"};

/** Worker threads for the parallel parts (shared 4-core hosts). */
constexpr unsigned kJobs = 2;
/** Set-up is repeated this often per run; setup_s is the median. */
constexpr unsigned kSetupRepeats = 3;

/** Shape of the node simulated for one application class. */
struct FleetShape
{
    /** fleet.mix of the node (a label here; profiles come from the pass). */
    std::string mix = "function";
    double rateRps = 200.0;
    std::uint64_t arrivals = 2'000'000;
    std::uint64_t probeArrivals = 200'000;
    /**
     * Below the unbounded peak at the fixed rate (functions at 200 rps:
     * 57-62k pages; longrun at 40 rps: 59k), so eviction and reclaim run.
     */
    std::uint64_t budgetPages = 45'000;
    double p99TargetMs = 100.0;
    /** Minimum share of offered arrivals served (per mille). */
    std::uint64_t servedPermille = 990;
    /** Capacity search: start bracket and resolution (rps). */
    double bracketLo = 100.0;
    double bracketHi = 600.0;
    double resolutionRps = 1.0;
};

// Paper reference values: the "Paper" column of EXPERIMENTS.md.
constexpr double kRefSpeedupPct[3] = {16.0, 8.0, 5.5};  // Fig. 8
constexpr double kRefTrafficPct[2] = {30.0, 33.0};      // Fig. 10
constexpr double kRefMemoryPct[3] = {85.0, 77.0, 100.0}; // Fig. 11
constexpr double kRefHotAllocPct = 99.8;                 // Fig. 12
constexpr double kRefHotFreePct = 83.0;                  // Fig. 12
constexpr double kRefFragPct = 3.68;                     // §6.6

// ---------------------------------------------------------------------
// Timing and small helpers
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Mean cost of one steady_clock read, from a calibration loop. */
double
timerCostNs()
{
    constexpr unsigned kReads = 1'000'000;
    const std::uint64_t t0 = nowNs();
    for (unsigned i = 0; i < kReads; ++i)
        (void)nowNs();
    return static_cast<double>(nowNs() - t0) / kReads;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The seed argument: 0 keeps every spec's own seed (the numbers in
 * EXPERIMENTS.md); any other value remaps each seed deterministically.
 */
std::uint64_t
remapSeed(std::uint64_t own, std::uint64_t seed)
{
    return seed == 0 ? own : splitmix64(own ^ splitmix64(seed));
}

std::vector<WorkloadSpec>
remapped(std::vector<WorkloadSpec> specs, std::uint64_t seed)
{
    for (WorkloadSpec &s : specs)
        s.seed = remapSeed(s.seed, seed);
    return specs;
}

std::vector<WorkloadSpec>
specsById(const std::vector<std::string> &ids, std::uint64_t seed)
{
    std::vector<WorkloadSpec> out;
    for (const std::string &id : ids)
        out.push_back(workloadById(id));
    return remapped(std::move(out), seed);
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

enum class Cfg { Base, Mem, NoBypass };

const char *
cfgName(Cfg c)
{
    switch (c) {
      case Cfg::Base:
        return "base";
      case Cfg::Mem:
        return "mem";
      case Cfg::NoBypass:
        return "nobypass";
    }
    return "?";
}

MachineConfig
makeConfig(Cfg c)
{
    if (c == Cfg::Base)
        return defaultConfig();
    MachineConfig cfg = mementoConfig();
    if (c == Cfg::NoBypass)
        cfg.memento.bypassEnabled = false;
    return cfg;
}

MachineConfig
fleetConfig(Cfg c, const FleetShape &shape, double rate,
            std::uint64_t arrivals, std::uint64_t seed)
{
    MachineConfig cfg = makeConfig(c);
    cfg.fleet.arrival = "poisson";
    cfg.fleet.ratePerSec = rate;
    cfg.fleet.invocations = arrivals;
    cfg.fleet.cores = 8;
    cfg.fleet.keepAliveMs = 50.0;
    cfg.fleet.memoryBudgetPages = shape.budgetPages;
    cfg.fleet.mix = shape.mix;
    cfg.fleet.seed = remapSeed(1, seed);
    return cfg;
}

// ---------------------------------------------------------------------
// Output: metrics, failures, spans
// ---------------------------------------------------------------------

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** One operation failed its output check. */
    void
    fail(const std::string &why)
    {
        ++failed;
        std::cout << "# FAILED " << why << "\n";
    }

    void
    print() const
    {
        bool finite = true;
        std::ostringstream os;
        os << "{\"correct\": ";
        for (const auto &[name, vu] : metrics)
            finite = finite && std::isfinite(vu.first);
        os << (failed == 0 && finite && attempted > 0 ? "true" : "false");
        os << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &[name, vu] = metrics[i];
            os << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
               << (std::isfinite(vu.first) ? fmt(vu.first) : "null")
               << ", \"unit\": \"" << vu.second << "\"}";
        }
        os << "}}";
        std::cout << os.str() << std::endl;
    }
};

/** One timed region, written out once the run ends. */
struct Span
{
    std::string name;
    std::string cell;
    std::uint64_t ns = 0;
    std::uint64_t calls = 1;
};

struct SpanLog
{
    bool enabled = false;
    std::vector<Span> spans;

    void
    add(std::string name, std::string cell, std::uint64_t ns,
        std::uint64_t calls = 1)
    {
        if (enabled)
            spans.push_back({std::move(name), std::move(cell), ns, calls});
    }
};

// ---------------------------------------------------------------------
// Golden cycles/digests (drift count, never a failure)
// ---------------------------------------------------------------------

class Goldens
{
  public:
    void
    load(const std::string &path)
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream ls(line);
            std::string seed, what, cfg, value, digest;
            if (ls >> seed >> what >> cfg >> value >> digest)
                rows_[seed + "/" + what + "/" + cfg] = value + " " + digest;
        }
    }

    void
    check(std::uint64_t seed, const std::string &what, const std::string &cfg,
          std::uint64_t value, std::uint64_t digest)
    {
        const std::string key =
            std::to_string(seed) + "/" + what + "/" + cfg;
        const std::string got =
            std::to_string(value) + " " + digestToHex(digest);
        recorded_.push_back(std::to_string(seed) + "\t" + what + "\t" + cfg +
                            "\t" + std::to_string(value) + "\t" +
                            digestToHex(digest));
        auto it = rows_.find(key);
        if (it == rows_.end())
            return;
        ++checked;
        if (it->second != got) {
            ++mismatches;
            std::cout << "# golden drift " << key << ": expected "
                      << it->second << ", got " << got << "\n";
        }
    }

    const std::vector<std::string> &recorded() const { return recorded_; }

    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;

  private:
    std::map<std::string, std::string> rows_;
    std::vector<std::string> recorded_;
};

// ---------------------------------------------------------------------
// Replay cells: untraced (FunctionExecutor) and traced (own loop)
// ---------------------------------------------------------------------

/** Host time of the calls the traced loop makes into each layer. */
struct LayerTimes
{
    std::uint64_t mallocNs = 0, mallocs = 0;
    std::uint64_t freeNs = 0, frees = 0;
    std::uint64_t exitNs = 0, exits = 0;
    std::uint64_t accessNs = 0, accesses = 0;
    /** Whole traced replay, RPC bookends included. */
    std::uint64_t loopNs = 0;

    std::uint64_t
    layerNs() const
    {
        return mallocNs + freeNs + exitNs + accessNs;
    }
    /** Dispatch remainder: loop self time outside every layer call. */
    std::uint64_t selfNs() const { return loopNs - layerNs(); }
    std::uint64_t
    allocCalls() const
    {
        return mallocs + frees + exits;
    }

    void
    add(const LayerTimes &o)
    {
        mallocNs += o.mallocNs;
        mallocs += o.mallocs;
        freeNs += o.freeNs;
        frees += o.frees;
        exitNs += o.exitNs;
        exits += o.exits;
        accessNs += o.accessNs;
        accesses += o.accesses;
        loopNs += o.loopNs;
    }
};

/** Machine stats the per-layer report reads, as deltas over the replay. */
const std::vector<std::string> kLayerStats = {
    "l1d.hits",   "l1d.misses",   "llc.hits",    "llc.misses",
    "l1tlb.hits", "l1tlb.misses", "l2tlb.hits",  "l2tlb.misses",
};

struct CellTrace
{
    std::string workload;
    Cfg cfg = Cfg::Base;
    std::uint64_t ops = 0;
    std::uint64_t buildNs = 0;
    std::uint64_t runNs = 0; ///< FunctionExecutor::run, untraced.
    std::uint64_t digestNs = 0;
    Cycles cycles = 0;
    std::uint64_t digest = 0;
    Cycles tracedCycles = 0;
    std::uint64_t tracedDigest = 0;
    LayerTimes layers;
    std::map<std::string, std::uint64_t> stats;
    std::string error;
};

/** The RPC bookend FunctionExecutor charges (function_executor.cc). */
void
chargeRpc(Machine &m, const WorkloadSpec &spec)
{
    if (spec.rpcBytes == 0)
        return;
    CategoryScope scope(m.ledger(), CycleCategory::Rpc);
    m.chargeCycles(120'000 + spec.rpcBytes / 4);
}

/**
 * Benchmark-owned dispatch loop over @p trace: the same calls, in the
 * same order, as FunctionExecutor::run with default RunOptions, with a
 * timer around every call into the allocator and the memory system.
 * Compute ops and object binding stay untimed (dispatch self time).
 */
double
tracedReplay(Machine &m, const WorkloadSpec &spec, const Trace &trace,
             LayerTimes &lt)
{
    struct Obj
    {
        Addr addr = 0;
        std::uint64_t size = 0;
        bool live = false;
    };
    constexpr std::uint64_t kDenseIdLimit = 1ull << 22;
    std::vector<Obj> dense;
    std::unordered_map<std::uint64_t, Obj> sparse;
    Allocator &alloc = m.allocator();
    const Addr static_base = m.staticBase();
    std::uint64_t since_frag = 0, frag_max_live = 0;
    double frag = 0.0;

    const auto find = [&](std::uint64_t id) -> Obj & {
        if (id < dense.size() && dense[id].live)
            return dense[id];
        auto it = sparse.find(id);
        sim_error_if(it == sparse.end(), ErrorCategory::Trace,
                     "trace: unknown object ", id);
        return it->second;
    };
    const auto access = [&](Addr addr, AccessType type) {
        const std::uint64_t t = nowNs();
        m.appAccess(addr, type);
        lt.accessNs += nowNs() - t;
        ++lt.accesses;
    };

    const std::uint64_t start = nowNs();
    chargeRpc(m, spec);
    for (const TraceOp &op : trace) {
        switch (op.kind) {
          case OpKind::Compute:
            m.appCompute(op.value);
            break;
          case OpKind::StaticLoad:
          case OpKind::StaticStore:
            access(static_base + op.offset % spec.staticWsBytes,
                   op.kind == OpKind::StaticStore ? AccessType::Write
                                                  : AccessType::Read);
            break;
          case OpKind::Malloc: {
            std::uint64_t t = nowNs();
            const Addr addr = alloc.malloc(op.value, m);
            lt.mallocNs += nowNs() - t;
            ++lt.mallocs;
            const Obj obj{addr, op.value, true};
            if (op.objId < kDenseIdLimit) {
                if (op.objId >= dense.size())
                    dense.resize(op.objId + 1);
                sim_error_if(dense[op.objId].live, ErrorCategory::Trace,
                             "trace: duplicate object id ", op.objId);
                dense[op.objId] = obj;
            } else {
                sim_error_if(!sparse.emplace(op.objId, obj).second,
                             ErrorCategory::Trace,
                             "trace: duplicate object id ", op.objId);
            }
            // The executor's periodic fragmentation sample (read-only).
            if (++since_frag >= 4096) {
                since_frag = 0;
                const std::uint64_t live = alloc.liveBytes();
                if (live >= frag_max_live) {
                    frag_max_live = live;
                    frag = alloc.inactiveSlotFraction();
                }
            }
            break;
          }
          case OpKind::Free: {
            Obj &obj = find(op.objId);
            const Addr addr = obj.addr;
            if (op.objId < dense.size() && &obj == &dense[op.objId])
                obj.live = false;
            else
                sparse.erase(op.objId);
            const std::uint64_t t = nowNs();
            alloc.free(addr, m);
            lt.freeNs += nowNs() - t;
            ++lt.frees;
            break;
          }
          case OpKind::Load:
          case OpKind::Store: {
            const Obj &obj = find(op.objId);
            sim_error_if(op.offset >= obj.size, ErrorCategory::Trace,
                         "trace: access past object end");
            access(obj.addr + op.offset, op.kind == OpKind::Store
                                             ? AccessType::Write
                                             : AccessType::Read);
            break;
          }
          case OpKind::FunctionEnd: {
            if (frag_max_live == 0)
                frag = alloc.inactiveSlotFraction();
            const std::uint64_t t = nowNs();
            alloc.functionExit(m);
            lt.exitNs += nowNs() - t;
            ++lt.exits;
            dense.clear();
            sparse.clear();
            break;
          }
        }
    }
    chargeRpc(m, spec);
    lt.loopNs += nowNs() - start;
    return frag;
}

/**
 * Replay one cell twice on fresh machines: once through
 * FunctionExecutor::run (untraced) and once through tracedReplay. Both
 * must reproduce the same cycles and digest.
 */
CellTrace
traceCell(const WorkloadSpec &spec, const Trace &trace, Cfg c)
{
    CellTrace ct;
    ct.workload = spec.id;
    ct.cfg = c;
    ct.ops = trace.size();
    const MachineConfig cfg = makeConfig(c);
    try {
        {
            std::uint64_t t = nowNs();
            Machine m(cfg);
            m.createProcess(spec);
            ct.buildNs = nowNs() - t;
            const Cycles before = m.cycleLedger().total();
            FunctionExecutor exec(m);
            t = nowNs();
            exec.run(spec, trace, RunOptions{});
            ct.runNs = nowNs() - t;
            ct.cycles = m.cycleLedger().total() - before;
            t = nowNs();
            ct.digest = digestMachine(m);
            ct.digestNs = nowNs() - t;
        }
        Machine m(cfg);
        m.createProcess(spec);
        const auto s0 = m.stats().snapshot();
        const Cycles before = m.cycleLedger().total();
        tracedReplay(m, spec, trace, ct.layers);
        ct.tracedCycles = m.cycleLedger().total() - before;
        ct.tracedDigest = digestMachine(m);
        const auto s1 = m.stats().snapshot();
        for (const std::string &name : kLayerStats) {
            const auto a = s0.find(name), b = s1.find(name);
            ct.stats[name] = (b == s1.end() ? 0 : b->second) -
                             (a == s0.end() ? 0 : a->second);
        }
    } catch (const SimError &e) {
        ct.error = e.what();
    }
    return ct;
}

/** Check a traced cell against the untraced result of the timed run. */
void
checkCell(Report &rep, const CellTrace &ct, const RunResult &timed)
{
    ++rep.attempted;
    const std::string cell = ct.workload + "/" + cfgName(ct.cfg);
    const bool ok = ct.error.empty() && ct.cycles == timed.cycles &&
                    ct.digest == timed.digest &&
                    ct.tracedCycles == ct.cycles &&
                    ct.tracedDigest == ct.digest;
    std::cout << "# cell " << cell << " cycles " << timed.cycles
              << " digest " << digestToHex(timed.digest) << " executor "
              << ct.cycles << " " << digestToHex(ct.digest) << " traced "
              << ct.tracedCycles << " " << digestToHex(ct.tracedDigest)
              << (ok ? " ok" : " MISMATCH") << "\n";
    if (!ok)
        rep.fail("traced cell " + cell +
                 (ct.error.empty() ? " diverged" : ": " + ct.error));
}

/** Aggregates of a set of traced cells, for the per-layer report. */
struct TracedSet
{
    std::vector<CellTrace> cells;
    std::uint64_t synthNs = 0;
    std::uint64_t synthOps = 0;

    LayerTimes
    layers(bool memento) const
    {
        LayerTimes lt;
        for (const CellTrace &c : cells)
            if ((c.cfg != Cfg::Base) == memento)
                lt.add(c.layers);
        return lt;
    }

    /** Sum of @p f over the cells @p pick selects (all when null). */
    double
    sum(const std::function<double(const CellTrace &)> &f,
        const std::function<bool(const CellTrace &)> &pick = nullptr) const
    {
        double s = 0.0;
        for (const CellTrace &c : cells)
            if (!pick || pick(c))
                s += f(c);
        return s;
    }
};

/** Sums over RunResults of one config (simulated per-layer metrics). */
struct SimTotals
{
    double cycles = 0, app = 0, userMm = 0, kernelMm = 0, hwMm = 0;
    double dramBytes = 0, faults = 0, mmaps = 0, kernelPages = 0;
    double hotAllocHits = 0, hotAllocAll = 0, hotFreeHits = 0,
           hotFreeAll = 0;
    double listOps = 0, poolRefills = 0, bypassedLines = 0;

    void
    add(const RunResult &r)
    {
        cycles += static_cast<double>(r.cycles);
        app += static_cast<double>(r.category(CycleCategory::AppCompute) +
                                   r.category(CycleCategory::AppMemory));
        userMm += static_cast<double>(r.userMmCycles());
        kernelMm += static_cast<double>(r.kernelMmCycles());
        hwMm += static_cast<double>(r.hwMmCycles());
        dramBytes += static_cast<double>(r.dramBytes);
        faults += static_cast<double>(r.pageFaults);
        mmaps += static_cast<double>(r.mmapCalls);
        kernelPages += static_cast<double>(r.aggKernelPages);
        hotAllocHits += static_cast<double>(r.hotAllocHits);
        hotAllocAll += static_cast<double>(r.hotAllocHits + r.hotAllocMisses);
        hotFreeHits += static_cast<double>(r.hotFreeHits);
        hotFreeAll += static_cast<double>(r.hotFreeHits + r.hotFreeMisses);
        listOps += static_cast<double>(r.allocListOps + r.freeListOps);
        poolRefills += static_cast<double>(r.poolRefills);
        bypassedLines += static_cast<double>(r.bypassedLines);
    }
};

/**
 * Per-layer metrics shared by the two replay workloads: host times from
 * the traced cells @p ts, simulated sums from the untraced run's
 * baseline (@p base) and full-Memento (@p mem) cells.
 */
void
reportReplayLayers(Report &rep, const TracedSet &ts, const SimTotals &base,
                   const SimTotals &mem)
{
    constexpr double kMiB = 1024.0 * 1024.0;
    const auto is = [](Cfg c) {
        return [c](const CellTrace &x) { return x.cfg == c; };
    };

    rep.metric("wl.synth_s", ts.synthNs / 1e9, "s");
    rep.metric("wl.synth_ns_per_op", ratio(ts.synthNs, ts.synthOps),
               "ns/op");
    rep.metric("wl.trace_mb", ts.synthOps * sizeof(TraceOp) / kMiB, "MB");

    const double cells = static_cast<double>(ts.cells.size());
    rep.metric("machine.build_ms",
               ts.sum([](const CellTrace &c) { return c.buildNs / 1e6; }) /
                   cells,
               "ms");
    for (const bool memento : {false, true}) {
        const char *sfx = memento ? ".mem" : ".base";
        const auto pick = [memento](const CellTrace &c) {
            return (c.cfg != Cfg::Base) == memento;
        };
        const double ops = ts.sum(
            [](const CellTrace &c) { return double(c.ops); }, pick);
        const double run_ns = ts.sum(
            [](const CellTrace &c) { return double(c.runNs); }, pick);
        const LayerTimes lt = ts.layers(memento);
        rep.metric(std::string("machine.replay_ns_per_op") + sfx,
                   ratio(run_ns, ops), "ns/op");
        rep.metric(std::string("machine.dispatch_ns_per_op") + sfx,
                   ratio(lt.selfNs(), ops), "ns/op");
        rep.metric(std::string("mem.access_ns") + sfx,
                   ratio(lt.accessNs, lt.accesses), "ns");
        rep.metric(std::string("mem.accesses") + sfx, lt.accesses, "count");
    }
    rep.metric("machine.cells", cells, "count");

    const LayerTimes rt = ts.layers(false), hw = ts.layers(true);
    rep.metric("rt.malloc_ns", ratio(rt.mallocNs, rt.mallocs), "ns");
    rep.metric("rt.free_ns", ratio(rt.freeNs, rt.frees), "ns");
    rep.metric("rt.exit_ms", ratio(rt.exitNs / 1e6, rt.exits), "ms");
    rep.metric("rt.calls", rt.allocCalls(), "count");
    rep.metric("hw.malloc_ns", ratio(hw.mallocNs, hw.mallocs), "ns");
    rep.metric("hw.free_ns", ratio(hw.freeNs, hw.frees), "ns");
    rep.metric("hw.exit_ms", ratio(hw.exitNs / 1e6, hw.exits), "ms");
    rep.metric("hw.calls", hw.allocCalls(), "count");
    rep.metric("hw.hot_alloc_hit_rate",
               ratio(mem.hotAllocHits, mem.hotAllocAll), "ratio");
    rep.metric("hw.hot_free_hit_rate", ratio(mem.hotFreeHits, mem.hotFreeAll),
               "ratio");
    rep.metric("hw.list_ops", mem.listOps, "count");
    rep.metric("hw.pool_refills", mem.poolRefills, "count");
    rep.metric("hw.bypassed_lines", mem.bypassedLines, "count");

    for (const Cfg c : {Cfg::Base, Cfg::Mem}) {
        const std::string sfx = c == Cfg::Base ? ".base" : ".mem";
        const auto stat = [&](const std::string &name) {
            return ts.sum(
                [&](const CellTrace &x) {
                    return double(x.stats.at(name));
                },
                is(c));
        };
        const auto miss = [&](const std::string &unit) {
            const double m = stat(unit + ".misses");
            return ratio(m, m + stat(unit + ".hits"));
        };
        rep.metric("mem.l1d_miss_rate" + sfx, miss("l1d"), "ratio");
        rep.metric("mem.llc_miss_rate" + sfx, miss("llc"), "ratio");
        rep.metric("mem.l1tlb_miss_rate" + sfx, miss("l1tlb"), "ratio");
        rep.metric("mem.l2tlb_miss_rate" + sfx, miss("l2tlb"), "ratio");
        const SimTotals &s = c == Cfg::Base ? base : mem;
        rep.metric("mem.dram_mb" + sfx, s.dramBytes / kMiB, "MB");
        rep.metric("os.page_faults" + sfx, s.faults, "count");
        rep.metric("os.mmap_calls" + sfx, s.mmaps, "count");
        rep.metric("os.kernel_pages" + sfx, s.kernelPages, "count");
        rep.metric("cycles.app_frac" + sfx, ratio(s.app, s.cycles), "ratio");
        rep.metric("cycles.user_mm_frac" + sfx, ratio(s.userMm, s.cycles),
                   "ratio");
        rep.metric("cycles.kernel_mm_frac" + sfx,
                   ratio(s.kernelMm, s.cycles), "ratio");
        if (c == Cfg::Mem)
            rep.metric("cycles.hw_mm_frac.mem", ratio(s.hwMm, s.cycles),
                       "ratio");
    }

    rep.metric("val.digest_ms",
               ts.sum([](const CellTrace &c) { return c.digestNs / 1e6; }) /
                   cells,
               "ms");

    const double untraced =
        ts.sum([](const CellTrace &c) { return double(c.runNs); });
    const double traced =
        ts.sum([](const CellTrace &c) { return double(c.layers.loopNs); });
    rep.metric("trace.overhead_frac", ratio(traced - untraced, untraced),
               "ratio");
}

/** Per-layer self-time table of a traced replay (stdout, '#' lines). */
void
printSelfTimeTable(const std::string &workload, const TracedSet &ts)
{
    const LayerTimes rt = ts.layers(false), hw = ts.layers(true);
    LayerTimes all = rt;
    all.add(hw);
    struct Row
    {
        const char *layer;
        std::uint64_t calls, ns;
    };
    const Row rows[] = {
        {"rt.malloc", rt.mallocs, rt.mallocNs},
        {"rt.free", rt.frees, rt.freeNs},
        {"rt.exit", rt.exits, rt.exitNs},
        {"hw.malloc", hw.mallocs, hw.mallocNs},
        {"hw.free", hw.frees, hw.freeNs},
        {"hw.exit", hw.exits, hw.exitNs},
        {"mem.access.base", rt.accesses, rt.accessNs},
        {"mem.access.mem", hw.accesses, hw.accessNs},
        {"machine.dispatch (self)", 0, all.selfNs()},
    };
    char buf[160];
    std::cout << "# per-layer self time, " << workload << " ("
              << ts.cells.size() << " traced cells)\n";
    std::snprintf(buf, sizeof(buf), "# %-24s %12s %12s %9s %7s", "layer",
                  "calls", "self_ms", "ns/call", "share");
    std::cout << buf << "\n";
    std::uint64_t sum = 0;
    for (const Row &r : rows) {
        sum += r.ns;
        std::snprintf(buf, sizeof(buf), "# %-24s %12llu %12.3f %9.1f %6.2f%%",
                      r.layer, static_cast<unsigned long long>(r.calls),
                      r.ns / 1e6, r.calls ? double(r.ns) / r.calls : 0.0,
                      100.0 * ratio(r.ns, all.loopNs));
        std::cout << buf << "\n";
    }
    std::snprintf(buf, sizeof(buf),
                  "# %-24s %12s %12.3f (layers + dispatch = %.3f ms)",
                  "traced replay", "", all.loopNs / 1e6, sum / 1e6);
    std::cout << buf << "\n";
}

/**
 * Spans of every traced cell: the cell, its machine build, untraced and
 * traced replay, each layer's aggregated calls, the dispatch self time,
 * and the digest.
 */
void
addCellSpans(SpanLog &spans, const TracedSet &ts)
{
    for (const CellTrace &c : ts.cells) {
        const std::string cell = c.workload + "/" + cfgName(c.cfg);
        const std::string lay = c.cfg == Cfg::Base ? "rt" : "hw";
        const LayerTimes &l = c.layers;
        spans.add("cell", cell, c.buildNs + c.runNs + c.digestNs);
        spans.add("machine.build", cell, c.buildNs);
        spans.add("replay.untraced", cell, c.runNs);
        spans.add("replay.traced", cell, l.loopNs);
        spans.add(lay + ".malloc", cell, l.mallocNs, l.mallocs);
        spans.add(lay + ".free", cell, l.freeNs, l.frees);
        spans.add(lay + ".exit", cell, l.exitNs, l.exits);
        spans.add("mem.access", cell, l.accessNs, l.accesses);
        spans.add("machine.dispatch.self", cell, l.selfNs());
        spans.add("digestMachine", cell, c.digestNs);
    }
}

// ---------------------------------------------------------------------
// Run metadata
// ---------------------------------------------------------------------

std::string
firstLineWith(const char *path, const std::string &prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            return line;
    return "";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

void
writeMeta(JsonWriter &w, const std::string &workload, std::uint64_t seed)
{
    std::string cpu = firstLineWith("/proc/cpuinfo", "model name");
    if (auto pos = cpu.find(':'); pos != std::string::npos)
        cpu = cpu.substr(cpu.find_first_not_of(' ', pos + 1));
    std::string load;
    std::getline(std::ifstream("/proc/loadavg"), load);
    w.beginObject();
    w.member("workload", workload);
    w.member("seed", seed);
    w.member("nproc",
             static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    w.member("loadavg_at_start", load);
    w.member("cpu_model", cpu);
    w.member("compiler", __VERSION__);
    w.member("build_type", PERFBENCH_BUILD_TYPE);
    w.member("build_flags", PERFBENCH_BUILD_FLAGS);
    w.member("git_sha", codeVersionString());
    w.endObject();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool reduced = false;
    std::string golden;
    std::string outDir = ".bench_build/out";
};

/**
 * Host-speed reference: a fixed integer hash loop that shares no code with
 * the simulator. A shared host's speed drifts by up to 1.7x over minutes;
 * the loop, timed before every set-up and every repetition, tracks that
 * drift. Host times are reported in seconds of a nominal host on which the
 * loop takes kNominalS: measured x kNominalS / (median loop time of the run).
 */
double
referenceLoopS()
{
    constexpr unsigned kSteps = 150'000'000;
    const std::uint64_t t = nowNs();
    std::uint64_t h = t;
    for (unsigned i = 0; i < kSteps; ++i)
        h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + i;
    const double s = (nowNs() - t) / 1e9;
    // Depend on h so the loop cannot be elided.
    return h == 0 ? s + 1e-12 : s;
}

constexpr double kNominalS = 0.35;

struct Context
{
    Options opt;
    Report rep;
    SpanLog spans;
    Goldens goldens;
    /** Reference loop times of this run (host seconds). */
    std::vector<double> refS;

    /** Nominal-host seconds per host second, for this run. */
    double scale() const { return kNominalS / median(refS); }
};

/**
 * Run @p rep_fn until opt.seconds have passed (at least once), timing
 * the reference loop before each repetition.
 */
void
repeatFor(Context &ctx, const std::function<void()> &rep_fn)
{
    const std::uint64_t start = nowNs();
    do {
        ctx.refS.push_back(referenceLoopS());
        rep_fn();
    } while ((nowNs() - start) / 1e9 < ctx.opt.seconds);
}

/**
 * Run set-up kSetupRepeats times (once when tracing); median host
 * seconds, unscaled.
 */
double
timedSetup(Context &ctx, const std::function<void()> &setup_fn)
{
    std::vector<double> times;
    const unsigned n = ctx.opt.trace ? 1 : kSetupRepeats;
    for (unsigned i = 0; i < n; ++i) {
        if (!ctx.opt.trace)
            ctx.refS.push_back(referenceLoopS());
        const std::uint64_t t = nowNs();
        setup_fn();
        times.push_back((nowNs() - t) / 1e9);
    }
    return median(times);
}

/** The raw repetition walls and reference times behind a run's metrics. */
void
printRepeats(const Context &ctx, const char *what,
             const std::vector<double> &raw)
{
    std::cout << "# " << what << " host walls (s):";
    for (double w : raw)
        std::cout << " " << w;
    std::cout << "; reference loop (s):";
    for (double r : ctx.refS)
        std::cout << " " << r;
    std::cout << "; scale " << ctx.scale() << "\n";
}

/** Compare a repetition's cell results with the first repetition's. */
void
checkRepeat(Report &rep, const std::string &cell, const RunResult &first,
            const RunResult &again)
{
    if (first.cycles != again.cycles || first.digest != again.digest)
        rep.fail("non-deterministic cell " + cell);
}

// ---- application classes --------------------------------------------

/**
 * One benchmark workload: an application class of the paper, put through
 * every stage of the timed pass (sweep, single-thread replay, node
 * simulation) on its own applications.
 */
struct AppClass
{
    std::string name;
    std::vector<Domain> domains;
    /** The applications of --reduced mode (the benchmark's own test). */
    std::vector<std::string> reducedIds;
    /** Seed variants of each application the accuracy metrics average. */
    unsigned variants = 1;
    FleetShape fleet;
};

AppClass
appClass(const std::string &name, bool reduced)
{
    AppClass ac;
    ac.name = name;
    if (name == "functions") {
        ac.domains = {Domain::Function};
        ac.reducedIds = {"aes", "jl"};
    } else { // longrun
        ac.domains = {Domain::DataProc, Domain::Platform};
        ac.reducedIds = {"redis", "up"};
        ac.fleet.mix = "longrun";
        ac.variants = 8;
        // Invocations of 80-200 ms: a lower rate, a looser latency target
        // and a finer capacity resolution than the functions' node.
        ac.fleet.rateRps = 40.0;
        ac.fleet.p99TargetMs = 500.0;
        ac.fleet.bracketLo = 10.0;
        ac.fleet.bracketHi = 80.0;
        ac.fleet.resolutionRps = 0.25;
    }
    if (reduced) {
        ac.fleet.rateRps /= 2;
        ac.fleet.arrivals = 20'000;
        ac.fleet.probeArrivals = 5'000;
    }
    return ac;
}

std::vector<WorkloadSpec>
classSpecs(const AppClass &ac, const Options &opt)
{
    if (opt.reduced)
        return specsById(ac.reducedIds, opt.seed);
    std::vector<WorkloadSpec> out;
    for (const Domain d : ac.domains)
        for (WorkloadSpec &s : workloadsByDomain(d))
            out.push_back(std::move(s));
    return remapped(std::move(out), opt.seed);
}

// ---- accuracy against the paper -------------------------------------

enum ErrIdx { kSpeedup, kTraffic, kMemory, kHotHit, kFrag, kNumErr };

/** Mean of |measured - reference| over the figures added. */
struct ErrMean
{
    double sum = 0.0;
    unsigned n = 0;

    void
    add(double measured, double reference)
    {
        sum += std::fabs(measured - reference);
        ++n;
    }
    double value() const { return n == 0 ? 0.0 : sum / n; }
};

/** Domain averages over a sweep, as Figs. 8, 10, 11 compute them. */
struct DomainAvg
{
    double sum[3] = {};
    unsigned n[3] = {};

    void
    add(Domain d, double v)
    {
        sum[static_cast<int>(d)] += v;
        ++n[static_cast<int>(d)];
    }
    bool has(int d) const { return n[d] > 0; }
    double avg(int d) const { return sum[d] / n[d]; }
};

/**
 * Gaps to the paper over the cells of one sweep. Each *_err_pp is the
 * mean over the applications of |the application's figure - the paper's
 * figure for its domain|; a domain the paper gives no figure for (traffic
 * of platform operations) adds nothing. Per-application gaps, unlike the
 * gap of a domain average, stay well away from zero, so a seed moves them
 * by a small share. The domain averages are printed as notes.
 */
void
computeErrors(const std::vector<ComparisonOutcome> &outs,
              double (&err)[kNumErr])
{
    DomainAvg speedup, traffic, memory;
    ErrMean e_speed, e_traffic, e_memory, e_hot, e_frag;
    const auto rate = [](std::uint64_t hits, std::uint64_t misses) {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 100.0 : 100.0 * double(hits) / double(total);
    };
    for (const ComparisonOutcome &o : outs) {
        const Comparison &c = o.cmp;
        const Domain d = c.spec.domain;
        const int di = static_cast<int>(d);
        const double sp = 100.0 * (c.speedup() - 1.0);
        const double tr = 100.0 * c.bandwidthReduction();
        const double b = double(c.base.aggUserPages + c.base.aggKernelPages);
        const double m =
            double(c.memento.aggUserPages + c.memento.aggKernelPages);
        const double mem = 100.0 * (b == 0 ? 1.0 : m / b);
        speedup.add(d, sp);
        traffic.add(d, tr);
        memory.add(d, mem);
        e_speed.add(sp, kRefSpeedupPct[di]);
        if (d != Domain::Platform)
            e_traffic.add(tr, kRefTrafficPct[di]);
        e_memory.add(mem, kRefMemoryPct[di]);
        e_hot.add(rate(c.memento.hotAllocHits, c.memento.hotAllocMisses),
                  kRefHotAllocPct);
        e_hot.add(rate(c.memento.hotFreeHits, c.memento.hotFreeMisses),
                  kRefHotFreePct);
        e_frag.add(100.0 * c.memento.fragInactiveFraction, kRefFragPct);
    }
    for (int d = 0; d < 3; ++d)
        if (speedup.has(d))
            std::cout << "# domain " << d << " averages: speedup "
                      << speedup.avg(d) << "%, traffic reduction "
                      << traffic.avg(d) << "%, memory " << memory.avg(d)
                      << "% of baseline\n";
    err[kSpeedup] = e_speed.value();
    err[kTraffic] = e_traffic.value();
    err[kMemory] = e_memory.value();
    err[kHotHit] = e_hot.value();
    err[kFrag] = e_frag.value();
}

// ---- node simulation --------------------------------------------------

struct FleetRun
{
    FleetMetrics m;
    std::uint64_t arrivalsNs = 0;
    std::uint64_t simNs = 0;
};

/** Both configs: one fixed-rate run and one capacity search each. */
struct FleetRep
{
    FleetRun fixed[2];
    double capacity[2] = {};
    unsigned probes = 0;
    std::uint64_t arrivals = 0, arrivalsNs = 0, simNs = 0;
};

FleetRun
fleetOnce(Context &ctx, const MachineConfig &cfg,
          const std::vector<FleetProfile> &profiles, const std::string &tag)
{
    FleetRun r;
    std::uint64_t t = nowNs();
    const std::vector<Arrival> arrivals =
        generateArrivals(cfg, profiles.size());
    r.arrivalsNs = nowNs() - t;
    t = nowNs();
    r.m = simulateFleet(arrivals, profiles, cfg);
    r.simNs = nowNs() - t;
    ctx.spans.add("generateArrivals", tag, r.arrivalsNs, arrivals.size());
    ctx.spans.add("simulateFleet", tag, r.simNs, arrivals.size());
    ++ctx.rep.attempted;
    if (r.m.completed + r.m.rejected != r.m.arrivals ||
        r.m.arrivals != cfg.fleet.invocations)
        ctx.rep.fail("fleet conservation broken in " + tag);
    return r;
}

bool
meetsTarget(const FleetMetrics &m, const MachineConfig &cfg,
            const FleetShape &shape)
{
    return m.completed * 1000 >= m.arrivals * shape.servedPermille &&
           cfg.cyclesToMs(m.p99Cycles) <= shape.p99TargetMs;
}

FleetRep
fleetRepOnce(Context &ctx, const FleetShape &shape,
             const std::vector<FleetProfile> (&profiles)[2])
{
    FleetRep fr;
    const auto tally = [&fr](const FleetRun &r) {
        fr.arrivals += r.m.arrivals;
        fr.arrivalsNs += r.arrivalsNs;
        fr.simNs += r.simNs;
    };
    for (int k = 0; k < 2; ++k) {
        const Cfg c = k == 0 ? Cfg::Base : Cfg::Mem;
        const MachineConfig cfg = fleetConfig(c, shape, shape.rateRps,
                                              shape.arrivals, ctx.opt.seed);
        fr.fixed[k] = fleetOnce(ctx, cfg, profiles[k],
                                std::string("fixed/") + cfgName(c));
        tally(fr.fixed[k]);

        // Capacity: highest rate (in resolution steps) meeting the
        // target, assuming the target is monotone in the rate (same
        // seed at every rate).
        const double step = shape.resolutionRps;
        const auto ok = [&](std::uint64_t steps) {
            const double rate = steps * step;
            const MachineConfig pc = fleetConfig(
                c, shape, rate, shape.probeArrivals, ctx.opt.seed);
            const FleetRun r = fleetOnce(ctx, pc, profiles[k],
                                         std::string("probe/") + cfgName(c) +
                                             "/" + fmt(rate));
            tally(r);
            ++fr.probes;
            return meetsTarget(r.m, pc, shape);
        };
        std::uint64_t lo = std::llround(shape.bracketLo / step),
                      hi = std::llround(shape.bracketHi / step);
        if (!ok(lo)) {
            hi = lo;
            lo = 0;
        } else {
            while (ok(hi) && hi < 100'000'000) {
                lo = hi;
                hi *= 2;
            }
        }
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (ok(mid) ? lo : hi) = mid;
        }
        fr.capacity[k] = lo * step;
        if (lo == 0)
            ctx.rep.fail(std::string("fleet capacity is zero for ") +
                         cfgName(c));
    }
    return fr;
}

// ---- the timed pass -------------------------------------------------

/** One timed pass: sweep, single-thread replay, node simulation. */
struct Pass
{
    double wallS = 0.0;
    double sweepS = 0.0;
    double profileS = 0.0;
    std::uint64_t storeWrites = 0;
    std::vector<ComparisonOutcome> outs;
    /** Trace ops replayed and host time inside Experiment::runOne. */
    std::uint64_t replayOps = 0, replayNs = 0;
    FleetRep fleet;
    /** profileTrace means over the class (Fig. 3, Table 1), percent. */
    double shortPct = 0.0, smallShortPct = 0.0;
};

const Cfg kReplayCfgs[2] = {Cfg::Base, Cfg::Mem};

/**
 * The timed pass of every workload:
 *  1. compareSweep over the class x {baseline, Memento, no-bypass} on a
 *     2-worker SweepEngine with a fresh result store (traces are
 *     synthesized here, as in every sweep), then profileTrace;
 *  2. Experiment::runOne on one thread over the class x {baseline,
 *     Memento}, on the sweep's traces; each cell must equal the sweep's;
 *  3. generateArrivals + simulateFleet of a node serving the class, with
 *     the sweep's cells as profiles: a fixed-rate run and a capacity
 *     search per config.
 */
Pass
passOnce(Context &ctx, const AppClass &ac,
         const std::vector<WorkloadSpec> &specs, const std::string &store_dir)
{
    Pass p;
    Report &rep = ctx.rep;
    std::filesystem::remove_all(store_dir);
    const std::uint64_t t0 = nowNs();
    ResultStoreOptions so;
    so.dir = store_dir;
    ResultStore store(so);
    const auto tally = [&rep](const std::vector<ComparisonOutcome> &outs) {
        for (const ComparisonOutcome &o : outs) {
            rep.attempted += 3;
            if (o.error)
                rep.fail("cell " + o.cmp.spec.id + ": " + o.error->message);
        }
    };
    {
        SweepOptions opts;
        opts.jobs = kJobs;
        opts.store = &store;
        SweepEngine engine(opts);
        RunOptions run_opts;
        run_opts.computeDigest = true;
        std::uint64_t t = nowNs();
        p.outs = compareSweep(specs, makeConfig(Cfg::Base),
                              makeConfig(Cfg::Mem), run_opts, engine);
        p.sweepS = (nowNs() - t) / 1e9;
        ctx.spans.add("compareSweep", "", nowNs() - t, specs.size() * 3);
        tally(p.outs);

        t = nowNs();
        for (const WorkloadSpec &s : specs) {
            const TraceProfile tp = profileTrace(*engine.traceCache().get(s));
            p.shortPct += tp.lifetimeHist.percent(0);
            p.smallShortPct += 100.0 * tp.joint.smallShort;
        }
        p.shortPct /= specs.size();
        p.smallShortPct /= specs.size();
        p.profileS = (nowNs() - t) / 1e9;
        ctx.spans.add("profileTrace", "", nowNs() - t, specs.size());

        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::shared_ptr<const Trace> trace =
                engine.traceCache().get(specs[i]);
            const Comparison &cmp = p.outs[i].cmp;
            for (const Cfg c : kReplayCfgs) {
                const std::string cell = specs[i].id + "/" + cfgName(c);
                RunOptions ro;
                ro.computeDigest = true;
                ++rep.attempted;
                RunResult r;
                t = nowNs();
                try {
                    r = Experiment::runOne(specs[i], *trace, makeConfig(c), ro);
                } catch (const SimError &e) {
                    rep.fail(cell + ": " + e.what());
                }
                const std::uint64_t ns = nowNs() - t;
                p.replayNs += ns;
                p.replayOps += trace->size();
                ctx.spans.add("Experiment::runOne", cell, ns, trace->size());
                const RunResult &swept = c == Cfg::Base ? cmp.base : cmp.memento;
                if (r.cycles != swept.cycles || r.digest != swept.digest)
                    rep.fail("replay of " + cell + " differs from its sweep "
                             "cell");
            }
        }
    }

    p.storeWrites = store.stats().stores;

    std::vector<FleetProfile> profiles[2];
    for (const ComparisonOutcome &o : p.outs) {
        if (o.error)
            throw SimError(ErrorCategory::Internal,
                           "no fleet profile for " + o.cmp.spec.id);
        for (int k = 0; k < 2; ++k) {
            const RunResult &r = k == 0 ? o.cmp.base : o.cmp.memento;
            profiles[k].push_back(FleetProfile{o.cmp.spec.id, r.cycles,
                                               r.peakResidentPages,
                                               r.hotValidEntries});
        }
    }
    p.fleet = fleetRepOnce(ctx, ac.fleet, profiles);
    p.wallS = (nowNs() - t0) / 1e9;
    std::filesystem::remove_all(store_dir);
    return p;
}

/** Deterministic results of a repetition must equal the first's. */
void
checkPassRepeat(Report &rep, const Pass &first, const Pass &again)
{
    for (std::size_t i = 0; i < again.outs.size(); ++i) {
        const Comparison &a = first.outs[i].cmp, &b = again.outs[i].cmp;
        checkRepeat(rep, b.spec.id, a.base, b.base);
        checkRepeat(rep, b.spec.id, a.memento, b.memento);
        checkRepeat(rep, b.spec.id, a.mementoNoBypass, b.mementoNoBypass);
    }
    for (int k = 0; k < 2; ++k)
        if (first.fleet.fixed[k].m != again.fleet.fixed[k].m ||
            first.fleet.capacity[k] != again.fleet.capacity[k])
            rep.fail("non-deterministic fleet run");
}

/** Golden rows of a pass: every sweep cell and both fleet results. */
void
checkGoldens(Goldens &g, std::uint64_t seed, const AppClass &ac,
             const Pass &p)
{
    for (const ComparisonOutcome &o : p.outs) {
        g.check(seed, o.cmp.spec.id, "base", o.cmp.base.cycles,
                o.cmp.base.digest);
        g.check(seed, o.cmp.spec.id, "mem", o.cmp.memento.cycles,
                o.cmp.memento.digest);
        g.check(seed, o.cmp.spec.id, "nobypass", o.cmp.mementoNoBypass.cycles,
                o.cmp.mementoNoBypass.digest);
    }
    for (int k = 0; k < 2; ++k) {
        const char *cn = k == 0 ? "base" : "mem";
        g.check(seed, "fleet-" + ac.name + "-fixed", cn,
                p.fleet.fixed[k].m.completed, p.fleet.fixed[k].m.digest);
        // Capacity in milli-rps, so the table holds integers.
        g.check(seed, "fleet-" + ac.name + "-capacity", cn,
                std::llround(p.fleet.capacity[k] * 1000), 0);
    }
}

/** Per-layer metrics of the node simulation (first pass, host + sim). */
void
reportFleetLayers(Report &rep, const FleetRep &f)
{
    rep.metric("fleet.arrivals_ns", ratio(f.arrivalsNs, f.arrivals), "ns");
    rep.metric("fleet.loop_ns", ratio(f.simNs, f.arrivals), "ns");
    rep.metric("fleet.probes", f.probes, "count");
    for (int k = 0; k < 2; ++k) {
        const std::string sfx = k == 0 ? ".base" : ".mem";
        const FleetMetrics &m = f.fixed[k].m;
        rep.metric("fleet.cold_start_rate" + sfx, m.coldStartRate(), "ratio");
        rep.metric("fleet.evictions" + sfx, m.evictions, "count");
        rep.metric("fleet.served_frac" + sfx, ratio(m.completed, m.arrivals),
                   "ratio");
    }
    std::cout << "# per-layer self time, node simulation (host)\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "# %-20s %14s %12s %12s", "span",
                  "arrivals", "self_ms", "ns/arrival");
    std::cout << buf << "\n";
    for (const auto &[name, ns] : {std::pair{"generateArrivals", f.arrivalsNs},
                                   std::pair{"simulateFleet", f.simNs}}) {
        std::snprintf(buf, sizeof(buf), "# %-20s %14llu %12.3f %12.1f", name,
                      static_cast<unsigned long long>(f.arrivals), ns / 1e6,
                      ratio(ns, f.arrivals));
        std::cout << buf << "\n";
    }
}

/**
 * The accuracy metrics of a pass's sweep. A class of few applications
 * also runs further seed variants of each (baseline and Memento, the only
 * cells the metrics read) to estimate its averages steadily. They run
 * once per run, after the timed passes: they serve the accuracy metrics
 * alone, not the work a sweep does. Without the store: its cell key
 * holds the workload id but not the spec's seed, so a variant would hit
 * the first sweep's cells.
 */
void
accuracy(Context &ctx, const AppClass &ac,
         const std::vector<WorkloadSpec> &specs, const Pass &first,
         double (&err)[kNumErr])
{
    std::vector<ComparisonOutcome> acc = first.outs;
    for (unsigned v = 1; v < ac.variants; ++v) {
        RunOptions run_opts;
        run_opts.computeDigest = true;
        std::vector<SweepTask> tasks;
        for (WorkloadSpec s : specs) {
            s.seed = splitmix64(s.seed + v);
            for (const Cfg c : kReplayCfgs)
                tasks.push_back({s, makeConfig(c), run_opts, nullptr, {}});
        }
        SweepOptions opts;
        opts.jobs = kJobs;
        SweepEngine engine(opts);
        const std::vector<SweepOutcome> outs = engine.run(tasks);
        for (std::size_t i = 0; i < outs.size(); i += 2) {
            ComparisonOutcome o;
            o.cmp.spec = tasks[i].spec;
            o.cmp.base = outs[i].result;
            o.cmp.memento = outs[i + 1].result;
            ctx.rep.attempted += 2;
            for (const SweepOutcome &out : {outs[i], outs[i + 1]})
                if (out.skipped || out.result.failed())
                    ctx.rep.fail("variant cell " + o.cmp.spec.id + ": " +
                                 (out.result.error ? out.result.error->message
                                                   : "skipped"));
            acc.push_back(std::move(o));
        }
    }
    computeErrors(acc, err);
}

void
runWorkload(Context &ctx)
{
    Report &rep = ctx.rep;
    const AppClass ac = appClass(ctx.opt.workload, ctx.opt.reduced);
    std::vector<WorkloadSpec> specs;
    std::string store_root;
    // Set-up: the class's specs, the golden table, and a pre-flight
    // machine for every application and configuration, so a bad spec
    // fails before a long pass.
    const double setup_s = timedSetup(ctx, [&] {
        specs = classSpecs(ac, ctx.opt);
        ctx.goldens = Goldens();
        ctx.goldens.load(ctx.opt.golden);
        store_root = ctx.opt.outDir + "/store-" + std::to_string(getpid());
        std::filesystem::create_directories(store_root);
        for (const WorkloadSpec &s : specs)
            for (const Cfg c : {Cfg::Base, Cfg::Mem, Cfg::NoBypass}) {
                Machine m(makeConfig(c));
                m.createProcess(s);
            }
    });

    std::vector<Pass> passes;
    const auto one = [&] {
        passes.push_back(passOnce(
            ctx, ac, specs, store_root + "/" + std::to_string(passes.size())));
        if (passes.size() > 1)
            checkPassRepeat(rep, passes.front(), passes.back());
    };
    if (ctx.opt.trace)
        one();
    else
        repeatFor(ctx, one);
    std::filesystem::remove_all(store_root);

    const Pass &first = passes.front();
    checkGoldens(ctx.goldens, ctx.opt.seed, ac, first);
    const MachineConfig mem_cfg = fleetConfig(
        Cfg::Mem, ac.fleet, ac.fleet.rateRps, ac.fleet.arrivals, ctx.opt.seed);
    const FleetMetrics &mm = first.fleet.fixed[1].m;
    std::cout << "# " << ac.name << ": " << passes.size() << " pass(es), "
              << specs.size() << " applications; memento node @"
              << ac.fleet.rateRps << " rps: " << mm.arrivals << " arrivals, "
              << mm.completed << " served, " << mm.rejected
              << " rejected, peak " << mm.peakRssPages << " pages (budget "
              << ac.fleet.budgetPages << "), p99 over " << mm.completed
              << " served samples; capacity base " << first.fleet.capacity[0]
              << " rps, memento " << first.fleet.capacity[1] << " rps\n";

    if (!ctx.opt.trace) {
        std::vector<double> walls, mops, minv;
        for (const Pass &p : passes) {
            walls.push_back(p.wallS);
            mops.push_back(ratio(p.replayOps, p.replayNs / 1e3));
            minv.push_back(ratio(p.fleet.arrivals, p.fleet.simNs / 1e3));
        }
        printRepeats(ctx, (ac.name + ": pass").c_str(), walls);
        double err[kNumErr];
        accuracy(ctx, ac, specs, first, err);
        rep.metric("wall_s", median(walls) * ctx.scale(), "s");
        rep.metric("setup_s", setup_s * ctx.scale(), "s");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
        rep.metric("replay_mops", median(mops) / ctx.scale(), "Mops/s");
        rep.metric("fleet_minv_s", median(minv) / ctx.scale(), "Minv/s");
        rep.metric("speedup_err_pp", err[kSpeedup], "pp");
        rep.metric("traffic_err_pp", err[kTraffic], "pp");
        rep.metric("memory_err_pp", err[kMemory], "pp");
        rep.metric("hot_hit_err_pp", err[kHotHit], "pp");
        rep.metric("frag_err_pp", err[kFrag], "pp");
        // Rejected arrivals count as misses: past 1% of offered load the
        // 99th percentile is a rejection, reported as infinite.
        const bool served = mm.completed * 100 >= mm.arrivals * 99;
        rep.metric("p99_ms",
                   served ? mem_cfg.cyclesToMs(mm.p99Cycles) : INFINITY,
                   "ms");
        rep.metric("capacity_rps", first.fleet.capacity[1], "rps");
        rep.metric("capacity_gain",
                   ratio(first.fleet.capacity[1], first.fleet.capacity[0]),
                   "ratio");
        return;
    }

    // At the default seed the functions node is the registry's own
    // "function" mix, so runFleet (its profile stage and event loop) must
    // reproduce the fixed-rate runs.
    if (ac.name == "functions" && ctx.opt.seed == 0 && !ctx.opt.reduced) {
        for (int k = 0; k < 2; ++k) {
            const Cfg c = kReplayCfgs[k];
            FleetOptions fo;
            fo.cfg = fleetConfig(c, ac.fleet, ac.fleet.rateRps,
                                 ac.fleet.arrivals, 0);
            fo.jobs = kJobs;
            const std::uint64_t t = nowNs();
            const FleetReport fr = runFleet(fo);
            ctx.spans.add("runFleet", cfgName(c), nowNs() - t,
                          fr.metrics.arrivals);
            ++rep.attempted;
            const bool same = fr.metrics == first.fleet.fixed[k].m;
            std::cout << "# runFleet " << cfgName(c) << " digest "
                      << digestToHex(fr.metrics.digest)
                      << (same ? " ok" : " MISMATCH") << "\n";
            if (!same)
                rep.fail(std::string("runFleet differs from the fixed-rate "
                                     "run for ") +
                         cfgName(c));
        }
    }

    // Traced pass: every cell of the sweep, through the benchmark's own
    // dispatch loop, two workers like the sweep. One application (trace
    // + its three cells) per task keeps at most two traces resident.
    TracedSet ts;
    std::vector<std::vector<CellTrace>> slots(specs.size());
    std::vector<std::uint64_t> synth_ns(specs.size()), synth_ops(specs.size());
    std::vector<std::uint64_t> profile_ns(specs.size());
    parallelFor(specs.size(), kJobs, [&](std::size_t i) {
        const WorkloadSpec &spec = specs[i];
        std::uint64_t t = nowNs();
        const Trace trace = TraceGenerator(spec).generate();
        synth_ns[i] = nowNs() - t;
        synth_ops[i] = trace.size();
        t = nowNs();
        (void)profileTrace(trace);
        profile_ns[i] = nowNs() - t;
        for (const Cfg c : {Cfg::Base, Cfg::Mem, Cfg::NoBypass})
            slots[i].push_back(traceCell(spec, trace, c));
    });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Comparison &cmp = first.outs[i].cmp;
        const RunResult *timed[3] = {&cmp.base, &cmp.memento,
                                     &cmp.mementoNoBypass};
        ctx.spans.add("generate", specs[i].id, synth_ns[i]);
        ctx.spans.add("profileTrace", specs[i].id, profile_ns[i]);
        ts.synthNs += synth_ns[i];
        ts.synthOps += synth_ops[i];
        for (int k = 0; k < 3; ++k) {
            checkCell(rep, slots[i][k], *timed[k]);
            ts.cells.push_back(std::move(slots[i][k]));
        }
    }

    SimTotals base, mem;
    for (const ComparisonOutcome &o : first.outs) {
        base.add(o.cmp.base);
        mem.add(o.cmp.memento);
    }
    reportReplayLayers(rep, ts, base, mem);
    double cell_ns = 0;
    for (const CellTrace &c : ts.cells)
        cell_ns += double(c.buildNs + c.runNs + c.digestNs);
    rep.metric("an.profile_s", first.profileS, "s");
    rep.metric("an.short_lived_pct", first.shortPct, "%");
    rep.metric("an.small_short_pct", first.smallShortPct, "%");
    rep.metric("machine.sweep_efficiency",
               cell_ns / 1e9 / (kJobs * first.sweepS), "ratio");
    rep.metric("machine.store_writes", first.storeWrites, "count");
    printSelfTimeTable(ac.name, ts);
    addCellSpans(ctx.spans, ts);
    reportFleetLayers(rep, first.fleet);
}

// ---------------------------------------------------------------------
// Golden table writer
// ---------------------------------------------------------------------

int
writeGolden(const std::string &path, std::uint64_t from, std::uint64_t to)
{
    std::ofstream out(path);
    out << "# Cycles and digests of every benchmark cell, per seed argument\n"
           "# (0 = each spec's own seed). Written by\n"
           "#   memento_perfbench --write-golden FILE --seeds A-B\n"
           "# seed\twhat\tconfig\tvalue\tdigest\n";
    for (std::uint64_t seed = from; seed <= to; ++seed) {
        for (const std::string &name : kWorkloads) {
            Context ctx;
            ctx.opt.workload = name;
            ctx.opt.seed = seed;
            std::cerr << "golden: seed " << seed << " " << name << "\n";
            const AppClass ac = appClass(name, false);
            const Pass p = passOnce(ctx, ac, classSpecs(ac, ctx.opt),
                                    ctx.opt.outDir + "/golden-store");
            if (ctx.rep.failed != 0)
                return 1;
            checkGoldens(ctx.goldens, seed, ac, p);
            for (const std::string &row : ctx.goldens.recorded())
                out << row << "\n";
        }
    }
    return out ? 0 : 1;
}

void
writeSpans(const Context &ctx)
{
    std::filesystem::create_directories(ctx.opt.outDir);
    const std::string path = ctx.opt.outDir + "/spans-" + ctx.opt.workload +
                             "-seed" + std::to_string(ctx.opt.seed) + ".json";
    std::ofstream out(path);
    JsonWriter w(out);
    w.beginObject();
    w.key("meta");
    writeMeta(w, ctx.opt.workload, ctx.opt.seed);
    w.key("spans").beginArray();
    for (const Span &s : ctx.spans.spans) {
        w.beginObject();
        w.member("name", s.name);
        w.member("cell", s.cell);
        w.member("ns", s.ns);
        w.member("calls", s.calls);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
    std::cout << "# spans written to " << path << "\n";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "memento_perfbench: " << why
              << "\nusage: memento_perfbench --workload "
                 "functions|longrun [--seed N] "
                 "[--seconds S] [--trace 0|1] [--reduced] [--golden FILE] "
                 "[--out-dir DIR]\n"
                 "       memento_perfbench --write-golden FILE --seeds A-B\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string golden_out, seeds = "0-0";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = next();
        else if (a == "--seed")
            opt.seed = std::stoull(next());
        else if (a == "--seconds")
            opt.seconds = std::stod(next());
        else if (a == "--trace")
            opt.trace = next() != "0";
        else if (a == "--reduced")
            opt.reduced = true;
        else if (a == "--golden")
            opt.golden = next();
        else if (a == "--out-dir")
            opt.outDir = next();
        else if (a == "--write-golden")
            golden_out = next();
        else if (a == "--seeds")
            seeds = next();
        else
            usage("unknown argument " + a);
    }
    if (!golden_out.empty()) {
        const auto dash = seeds.find('-');
        return writeGolden(golden_out, std::stoull(seeds.substr(0, dash)),
                           std::stoull(seeds.substr(dash + 1)));
    }

    if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
        kWorkloads.end())
        usage("unknown workload '" + opt.workload + "'");
    // Goldens describe the full-size benchmark only.
    if (opt.reduced)
        opt.golden.clear();
    Context ctx;
    ctx.opt = opt;
    ctx.spans.enabled = opt.trace;
    {
        std::ostringstream meta;
        JsonWriter w(meta);
        writeMeta(w, opt.workload, opt.seed);
        std::string line;
        for (char ch : meta.str())
            if (ch != '\n' && !(ch == ' ' && !line.empty() &&
                                line.back() == ' '))
                line += ch;
        std::cout << "# meta " << line << "\n";
    }
    const double timer_ns = opt.trace ? timerCostNs() : 0.0;
    try {
        runWorkload(ctx);
    } catch (const SimError &e) {
        ++ctx.rep.attempted;
        ctx.rep.fail(std::string("set-up: ") + e.what());
    }
    if (opt.trace) {
        ctx.rep.metric("val.golden_checked", ctx.goldens.checked, "count");
        ctx.rep.metric("val.golden_mismatches", ctx.goldens.mismatches,
                       "count");
        ctx.rep.metric("trace.timer_ns", timer_ns, "ns");
        writeSpans(ctx);
    }
    ctx.rep.print();
    return 0;
}
