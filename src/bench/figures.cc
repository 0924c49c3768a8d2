#include "bench/figures.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "an/cacti_lite.h"
#include "an/lifetime.h"
#include "an/pricing.h"
#include "an/report.h"
#include "machine/breakdown.h"
#include "machine/machine.h"
#include "machine/result_store.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/rng.h"

namespace memento {

/**
 * The run results and trace profiles a figure renders from.
 *
 * Every render function runs twice. In the planning pass run() and
 * profile() record what the figure asks for and return zeroed
 * placeholders; the text written then is discarded. compute() runs
 * each distinct recorded cell once on the engine and takes each
 * recorded profile from the engine's TraceCache; the rendering pass
 * then reads those results. So what a figure asks for must not depend
 * on the results it reads.
 */
class FigureInputs
{
  public:
    explicit FigureInputs(SweepEngine &engine) : engine_(engine) {}

    /** One run of @p spec under @p cfg. */
    const RunResult &
    run(const WorkloadSpec &spec, const MachineConfig &cfg,
        RunOptions opts = {})
    {
        const std::string identity = runCellIdentity(spec, cfg, opts);
        if (planning_) {
            if (runIndex_.emplace(identity, tasks_.size()).second)
                tasks_.push_back({spec, cfg, opts, nullptr, {}});
            return placeholderRun_;
        }
        const auto it = runIndex_.find(identity);
        panic_if(it == runIndex_.end(), "figures: unplanned run of ",
                 spec.id);
        return runs_[it->second];
    }

    /** Baseline, Memento and Memento-no-bypass runs (Table 3 configs). */
    Comparison
    compare(const WorkloadSpec &spec, RunOptions opts = {})
    {
        MachineConfig no_bypass = mementoConfig();
        no_bypass.memento.bypassEnabled = false;
        return {spec, run(spec, defaultConfig(), opts),
                run(spec, mementoConfig(), opts), run(spec, no_bypass, opts)};
    }

    /** The §2.2 profile of @p spec's trace. */
    const TraceProfile &
    profile(const WorkloadSpec &spec)
    {
        const std::string identity = traceIdentity(spec);
        if (planning_) {
            if (profileIndex_.emplace(identity, profileSpecs_.size()).second)
                profileSpecs_.push_back(spec);
            return placeholderProfile_;
        }
        const auto it = profileIndex_.find(identity);
        panic_if(it == profileIndex_.end(), "figures: unplanned profile of ",
                 spec.id);
        return profiles_[it->second];
    }

    /** True during the planning pass (results are placeholders). */
    bool planning() const { return planning_; }

    SweepEngine &engine() { return engine_; }

    /**
     * Run the recorded cells and take the recorded profiles, then
     * leave the planning pass. Throws SimError for the first failed
     * cell in request order; returns false when the sweep was stopped.
     */
    bool
    compute()
    {
        const std::vector<SweepOutcome> outcomes = engine_.run(tasks_);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (outcomes[i].skipped)
                return false;
            const RunResult &res = outcomes[i].result;
            if (res.failed())
                throw SimError(res.error->category,
                               tasks_[i].spec.id + ": " + res.error->message,
                               res.error->opIndex);
            runs_.push_back(res);
        }
        profiles_.resize(profileSpecs_.size());
        parallelFor(profileSpecs_.size(), engine_.effectiveJobs(),
                    [&](std::size_t i) {
                        profiles_[i] = profileTrace(
                            *engine_.traceCache().get(profileSpecs_[i]));
                    });
        planning_ = false;
        return true;
    }

  private:
    SweepEngine &engine_;
    bool planning_ = true;
    std::vector<SweepTask> tasks_;
    std::vector<RunResult> runs_;
    std::map<std::string, std::size_t> runIndex_;
    std::vector<WorkloadSpec> profileSpecs_;
    std::vector<TraceProfile> profiles_;
    std::map<std::string, std::size_t> profileIndex_;
    RunResult placeholderRun_;
    TraceProfile placeholderProfile_;
};

/** One entry of the figure table. */
struct FigureSpec
{
    std::string_view id;
    void (*render)(FigureInputs &in, std::ostream &os);
};

namespace {

/** Language group label used in figure rows ("Python", "C++", ...). */
std::string
groupLabel(const WorkloadSpec &spec)
{
    if (spec.domain == Domain::DataProc)
        return "DataProc";
    if (spec.domain == Domain::Platform)
        return "Platform";
    return languageName(spec.lang);
}

/** The domains the figures average over, with their row prefixes. */
constexpr std::pair<Domain, const char *> kDomainAverages[] = {
    {Domain::Function, "func-avg"},
    {Domain::DataProc, "data-avg"},
    {Domain::Platform, "pltf-avg"},
};

std::vector<Comparison>
compareAll(FigureInputs &in, const std::vector<WorkloadSpec> &specs,
           RunOptions opts = {})
{
    std::vector<Comparison> out;
    out.reserve(specs.size());
    for (const WorkloadSpec &spec : specs)
        out.push_back(in.compare(spec, opts));
    return out;
}

/** Average of @p f over the comparisons of @p domain's workloads. */
double
averageOver(const std::vector<Comparison> &cmps, Domain domain,
            const std::function<double(const Comparison &)> &f)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const Comparison &c : cmps) {
        if (c.spec.domain == domain) {
            sum += f(c);
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / n;
}

/**
 * A per-workload table: one row per comparison holding the workload
 * id, its group label, and the cells @p fill adds under @p headers.
 */
void
printRows(std::ostream &os, const std::vector<Comparison> &cmps,
          std::vector<std::string> headers,
          const std::function<void(TextTable &, const Comparison &)> &fill)
{
    headers.insert(headers.begin(), {"Workload", "Group"});
    TextTable t(std::move(headers));
    for (const Comparison &c : cmps) {
        t.newRow();
        t.cell(c.spec.id);
        t.cell(groupLabel(c.spec));
        fill(t, c);
    }
    t.print(os);
}

double
speedupOver(const RunResult &base, const RunResult &other)
{
    return static_cast<double>(base.cycles) /
           static_cast<double>(other.cycles);
}

/** @p part / @p whole, or @p empty when @p whole is 0. */
double
fraction(std::uint64_t part, std::uint64_t whole, double empty)
{
    return whole == 0 ? empty
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

/** Running sums of a fixed list of values, giving their means. */
struct Means
{
    std::vector<double> sum;
    unsigned n = 0;

    void
    add(const std::vector<double> &values)
    {
        sum.resize(values.size(), 0.0);
        for (std::size_t i = 0; i < values.size(); ++i)
            sum[i] += values[i];
        ++n;
    }

    double mean(std::size_t i) const { return sum[i] / n; }
};

// ---- Characterization (§2.2) ------------------------------------------

/**
 * Print the per-group mean of each bucket of @p hist over all
 * workloads, each workload weighing equally (the paper normalizes per
 * function), and return the per-group means.
 */
std::map<std::string, Means>
printGroupHistogram(FigureInputs &in, Histogram TraceProfile::*hist,
                    std::ostream &os)
{
    std::map<std::string, Means> groups;
    for (const WorkloadSpec &spec : allWorkloads()) {
        const Histogram &h = in.profile(spec).*hist;
        std::vector<double> percents;
        percents.reserve(h.buckets());
        for (std::size_t b = 0; b < h.buckets(); ++b)
            percents.push_back(h.percent(b));
        groups[groupLabel(spec)].add(percents);
    }

    std::vector<std::string> headers = {"Bucket"};
    for (const auto &[label, g] : groups)
        headers.push_back(label);
    TextTable t(headers);
    const Histogram &buckets = in.profile(allWorkloads().front()).*hist;
    for (std::size_t b = 0; b < buckets.buckets(); ++b) {
        t.newRow();
        t.cell(buckets.label(b));
        for (const auto &[label, g] : groups)
            t.cell(g.mean(b), 1);
    }
    t.print(os);
    return groups;
}

/**
 * Fig. 2: allocation-size distribution in 512 B buckets. Paper: 93% of
 * function allocations below 512 B (>98% for several workloads);
 * DataProc 98%, platform 99%.
 */
void
renderFig02(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 2: Allocation size (Bytes) ===\n\n";
    const auto groups = printGroupHistogram(in, &TraceProfile::sizeHist, os);
    os << "\n% of allocations <= 512 B per group:\n";
    for (const auto &[label, g] : groups)
        os << "  " << label << ": " << percentStr(g.mean(0) / 100.0) << "\n";
    os << "\nPaper: functions 93% (several >98%), DataProc 98%, "
          "Platform 99% below 512 B\n";
}

/**
 * Fig. 3: allocation lifetime (malloc-free distance in same-size-class
 * allocations), 16-allocation buckets with a [257,Inf] tail that also
 * holds never-freed (OS batch-freed) objects. Paper: 71% of function
 * allocations freed within 16; 27% long-lived.
 */
void
renderFig03(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 3: Allocation lifetime (malloc-free distance) ===\n\n";
    printGroupHistogram(in, &TraceProfile::lifetimeHist, os);

    const std::vector<WorkloadSpec> functions =
        workloadsByDomain(Domain::Function);
    double func_short = 0.0;
    for (const WorkloadSpec &spec : functions)
        func_short += in.profile(spec).lifetimeHist.percent(0);
    os << "\nFunction allocations freed within 16 same-class "
          "allocations: "
       << percentStr(func_short / static_cast<double>(functions.size()) /
                     100.0)
       << "\n";
    os << "Paper: 71% within 16; 27% long-lived ([257,Inf] incl. "
          "never-freed)\n";
}

void
printJoint(FigureInputs &in, std::ostream &os, const char *title,
           Domain domain)
{
    Means joint;
    for (const WorkloadSpec &spec : workloadsByDomain(domain)) {
        const JointDistribution &j = in.profile(spec).joint;
        joint.add({j.smallShort, j.largeShort, j.smallLong, j.largeLong});
    }

    os << title << "\n";
    TextTable t({"", "Small (<=512B)", "Large"});
    t.newRow();
    t.cell("Short-lived");
    t.cell(percentStr(joint.mean(0), 2));
    t.cell(percentStr(joint.mean(1), 2));
    t.newRow();
    t.cell("Long-lived");
    t.cell(percentStr(joint.mean(2), 2));
    t.cell(percentStr(joint.mean(3), 2));
    t.print(os);
    os << "\n";
}

/** Table 1: joint distribution of allocation size and lifetime. */
void
renderTab01(FigureInputs &in, std::ostream &os)
{
    os << "=== Table 1: Combined distribution of size and lifetime ===\n\n";
    printJoint(in, os, "Functions (paper: 61% / 6.55% ; 32% / 0.45%):",
               Domain::Function);
    printJoint(in, os, "Data processing (paper: ~97% small+short):",
               Domain::DataProc);
    printJoint(in, os, "Serverless platform (paper: ~99% small, long-lived):",
               Domain::Platform);
}

/** Table 2: user/kernel memory-management cycle split (baseline). */
void
renderTab02(FigureInputs &in, std::ostream &os)
{
    os << "=== Table 2: Memory management cycles breakdown (baseline) "
          "===\n\n";

    std::map<std::string, Means> groups;
    TextTable t({"Workload", "Group", "User MM", "Kernel MM",
                 "User/Kernel", "MM share of cycles"});
    for (const WorkloadSpec &spec : allWorkloads()) {
        const RunResult &base = in.run(spec, defaultConfig());
        const Cycles mm = base.userMmCycles() + base.kernelMmCycles();
        const double user_pct = fraction(base.userMmCycles(), mm, 0.0);
        const double mm_share = fraction(mm, base.cycles, 0.0);

        t.newRow();
        t.cell(spec.id);
        t.cell(groupLabel(spec));
        t.cell(base.userMmCycles());
        t.cell(base.kernelMmCycles());
        t.cell(percentStr(user_pct) + "/" + percentStr(1.0 - user_pct));
        t.cell(percentStr(mm_share));
        groups[groupLabel(spec)].add({user_pct, 1.0 - user_pct, mm_share});
    }
    t.print(os);

    os << "\nPer-group averages (user% / kernel%):\n";
    for (const auto &[label, g] : groups) {
        os << "  " << label << ": " << percentStr(g.mean(0)) << " / "
           << percentStr(g.mean(1)) << "   (MM share of all cycles: "
           << percentStr(g.mean(2)) << ")\n";
    }
    os << "\nPaper: Python 48/52, C++ 96/4, Golang 56/44, "
          "Platform 59/41, DataProc 38/62\n";
}

std::string
sramRow(const std::string &prefix, const SramCost &cost)
{
    char buf[80];
    std::snprintf(buf, sizeof(buf), "%.2fmW, %.4fmm^2", cost.powerMw,
                  cost.areaMm2);
    return prefix + buf;
}

/** Table 3: simulated configuration with HOT/AAC power and area. */
void
renderTab03(FigureInputs &, std::ostream &os)
{
    const MachineConfig cfg = mementoConfig();
    const CactiLite cacti(22.0);

    os << "=== Table 3: Simulation configuration ===\n\n";
    TextTable t({"Component", "Configuration"});
    const std::pair<std::string, std::string> rows[] = {
        {"CPU", "4-issue OOO, 3 GHz, 256-entry ROB, 64-entry LSQ"},
        {"TLB", "L1 64-entry 4-way; L2 2048-entry 12-way"},
        {"L1d", "32KB, 8-way, 2 cycle, LRU"},
        {"L1i", "32KB, 8-way, 2 cycle, LRU"},
        {"HOT", sramRow("3.4KB, direct-mapped, " +
                            std::to_string(cfg.memento.hotLatency) +
                            " cycle, ",
                        cacti.hotCost())},
        {"L2", "256KB, 8-way, 14 cycle, LRU"},
        {"LLC", "2MB slice, 16-way, 40 cycle, LRU"},
        {"AAC", sramRow("32-entry, direct-mapped, " +
                            std::to_string(cfg.memento.aacLatency) +
                            " cycle, ",
                        cacti.aacCost())},
        {"DRAM", "64GB, DDR4 3200, 16 banks"},
    };
    for (const auto &[component, config] : rows) {
        t.newRow();
        t.cell(component);
        t.cell(config);
    }
    t.print(os);

    os << "\nPaper reference: HOT 1.32mW / 0.0084mm^2, "
          "AAC 0.43mW / 0.0023mm^2 (CACTI 6.5 @ 22nm)\n";
}

// ---- Headline evaluation (§6) -----------------------------------------

/**
 * Fig. 8: speedup of Memento over the baseline. Paper: functions
 * 8-28% (16% avg), data processing 5-11%, platform operations 4-7%.
 */
void
renderFig08(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 8: Normalized speedup ===\n\n";
    const auto cmps = compareAll(in, allWorkloads());
    printRows(os, cmps,
              {"Base cycles", "Memento cycles", "Speedup", ""},
              [](TextTable &t, const Comparison &c) {
                  t.cell(c.base.cycles);
                  t.cell(c.memento.cycles);
                  t.cell(c.speedup(), 3);
                  t.cell(asciiBar((c.speedup() - 1.0) / 0.4, 20));
              });

    os << "\n";
    for (const auto &[domain, name] : kDomainAverages)
        os << name << " speedup: "
           << averageOver(cmps, domain,
                          [](const Comparison &c) { return c.speedup(); })
           << "\n";
    os << "\nPaper: functions 1.08-1.28 (avg 1.16), "
          "data 1.05-1.11, platform 1.04-1.07\n";
}

/** Fig. 9: where the saved cycles come from. */
void
renderFig09(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 9: Performance gains breakdown (% saved cycles) "
          "===\n\n";
    const auto cmps = compareAll(in, allWorkloads());
    constexpr double Breakdown::*kParts[] = {
        &Breakdown::objAlloc, &Breakdown::objFree, &Breakdown::pageMgmt,
        &Breakdown::bypass};
    printRows(os, cmps, {"obj-alloc", "obj-free", "page-mgmt", "bypass"},
              [&](TextTable &t, const Comparison &c) {
                  const Breakdown bd = computeBreakdown(c);
                  for (double Breakdown::*part : kParts)
                      t.cell(percentStr(bd.*part));
              });

    os << "\nGroup averages:\n";
    for (const auto &[domain, name] : kDomainAverages) {
        os << "  " << name << ":";
        const char *labels[] = {" alloc ", ", free ", ", page ",
                                ", bypass "};
        for (std::size_t i = 0; i < 4; ++i)
            os << labels[i]
               << percentStr(averageOver(
                      cmps, domain, [&](const Comparison &c) {
                          return computeBreakdown(c).*kParts[i];
                      }));
        os << "\n";
    }
    os << "\nPaper: func-avg 33/32/33/2; data 37/-/58/-; "
          "platform 71% alloc\n";
}

/** Fig. 10: DRAM traffic reduction and the bypass share of it. */
void
renderFig10(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 10: Normalized memory bandwidth reduction ===\n\n";
    const auto cmps = compareAll(in, allWorkloads());
    printRows(
        os, cmps,
        {"Base MB", "Memento MB", "Reduction", "Bypass share"},
        [](TextTable &t, const Comparison &c) {
            // The bypass share of the reduction: traffic saved relative
            // to the bypass-disabled Memento run.
            const double bypass_saved =
                c.base.dramBytes == 0
                    ? 0.0
                    : (static_cast<double>(c.mementoNoBypass.dramBytes) -
                       static_cast<double>(c.memento.dramBytes)) /
                          static_cast<double>(c.base.dramBytes);
            t.cell(c.base.dramBytes >> 20);
            t.cell(c.memento.dramBytes >> 20);
            t.cell(percentStr(c.bandwidthReduction()));
            t.cell(percentStr(bypass_saved < 0 ? 0 : bypass_saved));
        });

    os << "\n";
    for (const auto &[domain, name] : kDomainAverages)
        os << name << " reduction: "
           << percentStr(averageOver(cmps, domain,
                                     [](const Comparison &c) {
                                         return c.bandwidthReduction();
                                     }))
           << "\n";
    os << "\nPaper: functions ~30% avg (UM 31%, CM 35%), data "
          "33%, platform smaller; bypass avg 5%, up to 34%\n";
}

/** Memento's aggregate pages over the baseline's: user, kernel, total. */
double
userRatio(const Comparison &c)
{
    return fraction(c.memento.aggUserPages, c.base.aggUserPages, 1.0);
}

double
kernelRatio(const Comparison &c)
{
    return fraction(c.memento.aggKernelPages, c.base.aggKernelPages, 1.0);
}

double
totalRatio(const Comparison &c)
{
    return fraction(c.memento.aggUserPages + c.memento.aggKernelPages,
                    c.base.aggUserPages + c.base.aggKernelPages, 1.0);
}

/** Fig. 11: aggregate memory usage, Memento over baseline. */
void
renderFig11(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 11: Normalized aggregate memory usage ===\n\n";
    const auto cmps = compareAll(in, allWorkloads());
    printRows(os, cmps, {"User", "Kernel", "Total"},
              [](TextTable &t, const Comparison &c) {
                  t.cell(userRatio(c), 2);
                  t.cell(kernelRatio(c), 2);
                  t.cell(totalRatio(c), 2);
              });

    os << "\nfunc-avg normalized usage: user "
       << averageOver(cmps, Domain::Function, userRatio) << ", kernel "
       << averageOver(cmps, Domain::Function, kernelRatio) << ", total "
       << averageOver(cmps, Domain::Function, totalRatio) << "\n";
    os << "data-avg total: " << averageOver(cmps, Domain::DataProc, totalRatio)
       << "\n";
    os << "pltf-avg total: " << averageOver(cmps, Domain::Platform, totalRatio)
       << "\n";
    os << "\nPaper: functions user 0.90, kernel 0.72, total 0.85; "
          "data total 0.77; platform ~1.0\n";
}

/** Fig. 12: hardware object table (HOT) hit rates. */
void
renderFig12(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 12: Hardware object table hit rate ===\n\n";
    const auto cmps = compareAll(in, allWorkloads());
    auto alloc_rate = [](const Comparison &c) {
        const RunResult &m = c.memento;
        return fraction(m.hotAllocHits, m.hotAllocHits + m.hotAllocMisses,
                        1.0);
    };
    auto free_rate = [](const Comparison &c) {
        const RunResult &m = c.memento;
        return fraction(m.hotFreeHits, m.hotFreeHits + m.hotFreeMisses, 1.0);
    };
    printRows(os, cmps, {"allocs", "alloc hit", "frees", "free hit"},
              [&](TextTable &t, const Comparison &c) {
                  const RunResult &m = c.memento;
                  t.cell(m.hotAllocHits + m.hotAllocMisses);
                  t.cell(percentStr(alloc_rate(c)));
                  t.cell(m.hotFreeHits + m.hotFreeMisses);
                  t.cell(percentStr(free_rate(c)));
              });

    os << "\nfunc-avg: alloc "
       << percentStr(averageOver(cmps, Domain::Function, alloc_rate))
       << ", free "
       << percentStr(averageOver(cmps, Domain::Function, free_rate)) << "\n";
    os << "Paper: alloc 99.8%, free 83% (Python lower)\n";
}

/** Fig. 13: arena list operations per allocation / free. */
void
renderFig13(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 13: Arena list operation frequency ===\n\n";
    bool all_below = true;
    printRows(os, compareAll(in, allWorkloads()),
              {"alloc list ops (% of allocs)", "free list ops (% of frees)"},
              [&](TextTable &t, const Comparison &c) {
                  const RunResult &m = c.memento;
                  const double alloc_pct =
                      fraction(m.allocListOps, m.objAllocs, 0.0);
                  const double free_pct =
                      fraction(m.freeListOps, m.objFrees, 0.0);
                  all_below = all_below && alloc_pct < 0.02 && free_pct < 0.02;
                  t.cell(percentStr(alloc_pct, 3));
                  t.cell(percentStr(free_pct, 3));
              });

    os << "\nAll workloads below 2%: " << (all_below ? "yes" : "no")
       << "\n";
    os << "Paper: <1% of allocations, <0.6% of frees\n";
}

/** Fig. 14 / §6.5: normalized function pricing. */
void
renderFig14(FigureInputs &in, std::ostream &os)
{
    os << "=== Fig. 14: Normalized function runtime pricing ===\n\n";
    const auto cmps = compareAll(in, workloadsByDomain(Domain::Function));
    PricingModel pricing;
    // The synthetic functions are scaled down ~50x in billable work and
    // footprint relative to the paper's real workloads; scale the
    // fixed per-invocation fee identically so the runtime-vs-fee ratio
    // (which determines the end-to-end saving) is preserved.
    pricing.usdPerInvocation /= 50.0;
    const MachineConfig cfg = defaultConfig();
    auto peak_mb = [](const RunResult &r) {
        return static_cast<double>(r.peakResidentPages * kPageSize) /
               (1 << 20);
    };

    TextTable t({"Workload", "Base ms", "Memento ms", "Base MB",
                 "Memento MB", "Runtime cost", "End-to-end"});
    double runtime_ratio_sum = 0.0;
    double total_ratio_sum = 0.0;
    for (const Comparison &c : cmps) {
        const double base_ms = c.base.executionMs(cfg);
        const double mem_ms = c.memento.executionMs(cfg);
        const double base_mb = peak_mb(c.base);
        const double mem_mb = peak_mb(c.memento);
        const double runtime_ratio = pricing.runtimeCostUsd(mem_ms, mem_mb) /
                                     pricing.runtimeCostUsd(base_ms, base_mb);
        const double total_ratio = pricing.totalCostUsd(mem_ms, mem_mb) /
                                   pricing.totalCostUsd(base_ms, base_mb);
        runtime_ratio_sum += runtime_ratio;
        total_ratio_sum += total_ratio;

        t.newRow();
        t.cell(c.spec.id);
        t.cell(base_ms, 2);
        t.cell(mem_ms, 2);
        t.cell(base_mb, 1);
        t.cell(mem_mb, 1);
        t.cell(runtime_ratio, 3);
        t.cell(total_ratio, 3);
    }
    t.print(os);

    const double n = static_cast<double>(cmps.size());
    os << "\nAverage normalized runtime pricing: " << runtime_ratio_sum / n
       << " (paper: 0.71)\n";
    os << "Average normalized end-to-end pricing: " << total_ratio_sum / n
       << " (paper: 0.89)\n";
}

// ---- Sensitivity studies (§6.1, §6.6) and comparison (§6.7) -----------

/**
 * Print the speedups of @p alt and of Memento over the baseline on
 * @p ids (§6.1 iso-storage, §6.7 Mallacc); return their averages.
 */
std::pair<double, double>
printRivalSpeedups(FigureInputs &in, std::ostream &os,
                   std::initializer_list<const char *> ids,
                   const MachineConfig &alt, const std::string &alt_name)
{
    TextTable t({"Workload", alt_name + " speedup", "Memento speedup"});
    double alt_sum = 0.0, memento_sum = 0.0;
    for (const char *id : ids) {
        const WorkloadSpec &spec = workloadById(id);
        const RunResult &base = in.run(spec, defaultConfig());
        const double alt_speedup = speedupOver(base, in.run(spec, alt));
        const double mem_speedup =
            speedupOver(base, in.run(spec, mementoConfig()));
        alt_sum += alt_speedup;
        memento_sum += mem_speedup;

        t.newRow();
        t.cell(spec.id);
        t.cell(alt_speedup, 3);
        t.cell(mem_speedup, 3);
    }
    t.print(os);
    const auto n = static_cast<double>(ids.size());
    return {alt_sum / n, memento_sum / n};
}

/** §6.1: a 9-way L1D with the HOT's SRAM budget vs Memento. */
void
renderIsoStorage(FigureInputs &in, std::ostream &os)
{
    os << "=== Iso-storage comparison (9-way L1D vs Memento) ===\n\n";
    // 9-way L1D with the same set count: 36 KB, matching the extra
    // 3.4 KB HOT SRAM within one way's granularity.
    MachineConfig iso_cfg = defaultConfig();
    iso_cfg.l1d = CacheConfig{36 << 10, 9, iso_cfg.l1d.latency};
    const auto [iso, memento] = printRivalSpeedups(
        in, os, {"html", "aes", "jl", "US", "UM"}, iso_cfg, "Iso-L1D");
    os << "\nAverage: iso-L1D " << iso << ", Memento " << memento << "\n";
    os << "Paper: iso-storage ~1.03 overall vs Memento up to 1.28\n";
}

/** §6.6: MAP_POPULATE on the baseline, per language. */
void
renderPopulate(FigureInputs &in, std::ostream &os)
{
    os << "=== MAP_POPULATE sensitivity ===\n\n";
    MachineConfig pop_cfg = defaultConfig();
    pop_cfg.kernel.mapPopulate = true;

    std::map<std::string, Means> langs;
    TextTable t({"Workload", "Lang", "Perf vs base", "Footprint vs base"});
    for (const WorkloadSpec &spec : workloadsByDomain(Domain::Function)) {
        const RunResult &base = in.run(spec, defaultConfig());
        const RunResult &populated = in.run(spec, pop_cfg);
        const double perf = speedupOver(base, populated);
        const double mem =
            static_cast<double>(populated.peakResidentPages) /
            static_cast<double>(base.peakResidentPages);

        t.newRow();
        t.cell(spec.id);
        t.cell(languageName(spec.lang));
        t.cell(perf, 3);
        t.cell(mem, 2);
        langs[languageName(spec.lang)].add({perf, mem});
    }
    t.print(os);

    os << "\nPer-language averages:\n";
    for (const auto &[lang, g] : langs)
        os << "  " << lang << ": perf x" << g.mean(0) << ", footprint x"
           << g.mean(1) << "\n";
    os << "\nPaper: Golang +3% perf but 8.6x footprint; "
          "Python/C++ ~no speedup change, +9.6% memory\n";
}

/** Run four functions round-robin on one core; return (total, cs). */
std::pair<Cycles, Cycles>
runMix(const std::vector<const WorkloadSpec *> &mix,
       const MachineConfig &cfg, TraceCache &traces)
{
    Machine machine(cfg);
    std::vector<std::shared_ptr<const Trace>> mix_traces;
    std::vector<std::unique_ptr<FunctionExecutor>> executors;
    std::vector<std::size_t> cursor(mix.size(), 0);
    for (const WorkloadSpec *spec : mix) {
        machine.createProcess(*spec);
        mix_traces.push_back(traces.get(*spec));
        executors.push_back(std::make_unique<FunctionExecutor>(machine));
    }

    // Time slices of ~2000 trace operations (a few hundred
    // microseconds of simulated time, like a scheduler quantum).
    constexpr std::size_t kSlice = 2000;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t p = 0; p < mix.size(); ++p) {
            const Trace &trace = *mix_traces[p];
            if (cursor[p] >= trace.size())
                continue;
            progress = true;
            machine.switchTo(static_cast<unsigned>(p));
            const std::size_t end = std::min(cursor[p] + kSlice, trace.size());
            executors[p]->runRange(*mix[p], trace, cursor[p], end);
            cursor[p] = end;
        }
    }
    return {machine.cycleLedger().total(),
            machine.cycleLedger().category(CycleCategory::ContextSwitch)};
}

/**
 * §6.6: context-switch cost, HOT flush included, with four random
 * functions time-sharing one core. The processes share one Machine, so
 * the trials are not sweep cells: they run here, one per worker.
 */
void
renderMultiproc(FigureInputs &in, std::ostream &os)
{
    if (in.planning())
        return;
    os << "=== Multi-process context-switch sensitivity ===\n\n";
    constexpr std::size_t kTrials = 10;
    const auto functions = workloadsByDomain(Domain::Function);
    Rng rng(2023);
    std::vector<std::vector<const WorkloadSpec *>> mixes(kTrials);
    std::vector<std::string> names(kTrials);
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
        for (int i = 0; i < 4; ++i) {
            const WorkloadSpec &spec =
                functions[rng.nextBelow(functions.size())];
            mixes[trial].push_back(&spec);
            names[trial] += (i ? "+" : "") + spec.id;
        }
    }

    std::vector<std::pair<Cycles, Cycles>> cycles(kTrials);
    std::vector<std::exception_ptr> errors(kTrials);
    parallelFor(kTrials, in.engine().effectiveJobs(), [&](std::size_t i) {
        try {
            cycles[i] =
                runMix(mixes[i], mementoConfig(), in.engine().traceCache());
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }

    TextTable t({"Trial", "Mix", "Total cycles", "CS cycles", "CS share"});
    double share_sum = 0.0;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
        const auto [total, cs] = cycles[trial];
        const double share =
            static_cast<double>(cs) / static_cast<double>(total);
        share_sum += share;

        t.newRow();
        t.cell(static_cast<std::uint64_t>(trial));
        t.cell(names[trial]);
        t.cell(total);
        t.cell(cs);
        t.cell(percentStr(share, 3));
    }
    t.print(os);

    os << "\nAverage context-switch share (incl. HOT flush): "
       << percentStr(share_sum / 10.0, 3) << "\n";
    os << "Paper: negligible overall performance effect\n";
}

/** §6.6: pymalloc arena size vs mmap count and Memento's speedup. */
void
renderTuning(FigureInputs &in, std::ostream &os)
{
    os << "=== Software-allocator tuning sensitivity (pymalloc arena "
          "size) ===\n\n";

    TextTable t({"Workload", "Arena KB", "Base cycles", "mmap calls",
                 "Memento speedup", "Peak pages"});
    for (const char *id : {"html", "jd", "mk"}) {
        const WorkloadSpec &spec = workloadById(id);
        for (std::uint64_t arena_kb : {256, 512, 1024}) {
            MachineConfig base_cfg = defaultConfig();
            base_cfg.tuning.pymallocArenaBytes = arena_kb << 10;
            MachineConfig mem_cfg = mementoConfig();
            mem_cfg.tuning.pymallocArenaBytes = arena_kb << 10;
            const RunResult &base = in.run(spec, base_cfg);

            t.newRow();
            t.cell(spec.id);
            t.cell(arena_kb);
            t.cell(base.cycles);
            t.cell(base.mmapCalls);
            t.cell(speedupOver(base, in.run(spec, mem_cfg)), 3);
            t.cell(base.peakResidentPages);
        }
    }
    t.print(os);

    os << "\nPaper: larger arenas cut mmap frequency; Memento "
          "speedup changes by <1%; footprint unaffected\n";
}

/** §6.6: inactive small-object slots, software vs Memento. */
void
renderFragmentation(FigureInputs &in, std::ostream &os)
{
    os << "=== Fragmentation (inactive small-object slots) ===\n\n";

    TextTable t({"Workload", "Group", "Software", "Memento", "Delta"});
    double memento_sum = 0.0;
    double delta_sum = 0.0;
    for (const WorkloadSpec &spec : allWorkloads()) {
        const double base = in.run(spec, defaultConfig()).fragInactiveFraction;
        const double mem = in.run(spec, mementoConfig()).fragInactiveFraction;
        memento_sum += mem;
        delta_sum += mem - base;

        t.newRow();
        t.cell(spec.id);
        t.cell(groupLabel(spec));
        t.cell(percentStr(base, 2));
        t.cell(percentStr(mem, 2));
        t.cell(percentStr(mem - base, 2));
    }
    t.print(os);

    const auto n = static_cast<double>(allWorkloads().size());
    os << "\nMemento average inactive slots: "
       << percentStr(memento_sum / n, 2)
       << " (paper: 3.68%); average delta vs software: "
       << percentStr(delta_sum / n, 2) << " (paper: within ±2%)\n";
}

/** §6.6: speedups when every run pays the container cold start. */
void
renderColdStart(FigureInputs &in, std::ostream &os)
{
    os << "=== Cold-start sensitivity ===\n\n";
    RunOptions cold;
    cold.coldStart = true;
    const auto cmps =
        compareAll(in, workloadsByDomain(Domain::Function), cold);

    double lo = 1e9, hi = 0.0, sum = 0.0;
    printRows(os, cmps, {"Cold speedup"},
              [&](TextTable &t, const Comparison &c) {
                  const double speedup = c.speedup();
                  lo = std::min(lo, speedup);
                  hi = std::max(hi, speedup);
                  sum += speedup;
                  t.cell(speedup, 3);
              });

    os << "\nCold-start speedup range: " << lo << " - " << hi << " (avg "
       << sum / static_cast<double>(cmps.size()) << ")\n";
    os << "Paper: 1.07 - 1.22 with cold starts\n";
}

/** Extension: transparent huge pages on the baseline vs Memento. */
void
renderThp(FigureInputs &in, std::ostream &os)
{
    os << "=== Transparent huge pages vs Memento ===\n\n";
    MachineConfig thp_cfg = defaultConfig();
    thp_cfg.kernel.transparentHugePages = true;

    TextTable t({"Workload", "Lang", "THP speedup", "Memento speedup",
                 "THP footprint", "kernel MM left"});
    double thp_sum = 0.0, mem_sum = 0.0;
    const auto ids = {"html", "bfs", "jd", "html-go", "bfs-go", "US"};
    for (const char *id : ids) {
        const WorkloadSpec &spec = workloadById(id);
        const RunResult &base = in.run(spec, defaultConfig());
        const RunResult &thp = in.run(spec, thp_cfg);
        const double thp_speedup = speedupOver(base, thp);
        const double mem_speedup =
            speedupOver(base, in.run(spec, mementoConfig()));
        thp_sum += thp_speedup;
        mem_sum += mem_speedup;

        t.newRow();
        t.cell(spec.id);
        t.cell(languageName(spec.lang));
        t.cell(thp_speedup, 3);
        t.cell(mem_speedup, 3);
        t.cell(static_cast<double>(thp.peakResidentPages) /
                   static_cast<double>(base.peakResidentPages),
               2);
        t.cell(percentStr(
            fraction(thp.kernelMmCycles(), base.kernelMmCycles(), 0.0)));
    }
    t.print(os);

    const auto n = static_cast<double>(ids.size());
    os << "\nAverage: THP " << thp_sum / n << " vs Memento " << mem_sum / n
       << "\n";
    os << "THP attacks only the kernel half of Table 2; the "
          "userspace allocator path is untouched.\n";
}

/** §6.7: idealized Mallacc vs Memento on DeathStarBench. */
void
renderMallacc(FigureInputs &in, std::ostream &os)
{
    os << "=== Comparison with idealized Mallacc (DeathStarBench) ===\n\n";
    MachineConfig mallacc_cfg = mementoConfig();
    mallacc_cfg.memento.mallaccMode = true;
    const auto [mallacc, memento] = printRivalSpeedups(
        in, os, {"US", "UM", "CM", "MI"}, mallacc_cfg, "Mallacc");
    os << "\nAverage: Mallacc " << mallacc << ", Memento " << memento
       << "\n";
    os << "Paper: Mallacc 1.05-1.10 (avg 1.08) vs Memento "
          "1.12-1.20 (avg 1.16)\n";
}

/** Extension: design-choice ablations on html (DESIGN.md). */
void
renderAblations(FigureInputs &in, std::ostream &os)
{
    const WorkloadSpec &spec = workloadById("html");
    const RunResult &base = in.run(spec, defaultConfig());
    // One ablation table: a row per (label, Memento config), the
    // speedup over the baseline, then the columns @p extra adds.
    auto ablate =
        [&](std::vector<std::string> headers,
            const std::vector<std::pair<std::string, MachineConfig>> &rows,
            const std::function<void(TextTable &, const RunResult &)> &extra) {
            headers.insert(headers.begin() + 1, "Speedup");
            TextTable t(std::move(headers));
            for (const auto &[label, cfg] : rows) {
                const RunResult &mem = in.run(spec, cfg);
                t.newRow();
                t.cell(label);
                t.cell(speedupOver(base, mem), 4);
                extra(t, mem);
            }
            t.print(os);
        };
    auto memento_with = [](const std::function<void(MementoConfig &)> &set) {
        MachineConfig cfg = mementoConfig();
        set(cfg.memento);
        return cfg;
    };

    os << "=== Design ablations (workload: " << spec.id << ") ===\n\n";
    os << "Objects per arena (paper picks 256; the header's\n"
          "bitmap field caps the arena at 256 objects):\n";
    std::vector<std::pair<std::string, MachineConfig>> rows;
    for (unsigned objs : {32u, 64u, 128u, 256u})
        rows.push_back({std::to_string(objs), memento_with([&](auto &m) {
                            m.objectsPerArena = objs;
                        })});
    ablate({"objects/arena", "Inactive slots", "Arena grants"}, rows,
           [](TextTable &t, const RunResult &mem) {
               t.cell(percentStr(mem.fragInactiveFraction, 2));
               t.cell(mem.objAllocs == 0 ? std::string("-")
                                         : std::to_string(mem.allocListOps));
           });

    os << "\nEager arena prefetch (§3.1 optimization):\n";
    ablate({"prefetch", "HOT alloc miss"},
           {{"eager", mementoConfig()},
            {"demand", memento_with([](auto &m) {
                 m.eagerArenaPrefetch = false;
             })}},
           [](TextTable &t, const RunResult &mem) {
               t.cell(mem.hotAllocMisses);
           });

    os << "\nMain-memory bypass (§3.3):\n";
    ablate({"bypass", "DRAM MB"},
           {{"on", mementoConfig()},
            {"off", memento_with([](auto &m) { m.bypassEnabled = false; })}},
           [](TextTable &t, const RunResult &mem) {
               t.cell(mem.dramBytes >> 20);
           });

    os << "\nPage-pool refill batch (OS grants per refill):\n";
    rows.clear();
    for (unsigned refill : {16u, 64u, 256u})
        rows.push_back({std::to_string(refill), memento_with([&](auto &m) {
                            m.pagePoolRefill = refill;
                            m.pagePoolLowWater = refill / 4;
                        })});
    ablate({"refill pages", "Pool refills", "Peak pages"}, rows,
           [](TextTable &t, const RunResult &mem) {
               t.cell(mem.poolRefills);
               t.cell(mem.peakResidentPages);
           });

    os << "\nHOT access latency:\n";
    rows.clear();
    for (Cycles lat : {1u, 2u, 4u, 8u})
        rows.push_back({std::to_string(lat), memento_with([&](auto &m) {
                            m.hotLatency = lat;
                        })});
    ablate({"HOT cycles"}, rows, [](TextTable &, const RunResult &) {});
}

/** The figure table, in the paper's order. */
const std::vector<FigureSpec> &
figureTable()
{
    static const std::vector<FigureSpec> figures = {
        // Characterization (§2.2)
        {"fig02_alloc_size", renderFig02},
        {"fig03_lifetime", renderFig03},
        {"tab01_joint", renderTab01},
        {"tab02_cycles", renderTab02},
        {"tab03_config", renderTab03},
        // Headline evaluation (§6)
        {"fig08_speedup", renderFig08},
        {"fig09_breakdown", renderFig09},
        {"fig10_bandwidth", renderFig10},
        {"fig11_memusage", renderFig11},
        {"fig12_hot_hitrate", renderFig12},
        {"fig13_arena_list_ops", renderFig13},
        {"fig14_pricing", renderFig14},
        // Sensitivity studies and comparisons (§6.1, §6.6, §6.7)
        {"sens_iso_storage", renderIsoStorage},
        {"sens_populate", renderPopulate},
        {"sens_multiproc", renderMultiproc},
        {"sens_tuning", renderTuning},
        {"sens_fragmentation", renderFragmentation},
        {"sens_coldstart", renderColdStart},
        {"sens_thp", renderThp},
        {"comp_mallacc", renderMallacc},
        // Design-choice ablations (DESIGN.md)
        {"abl_design", renderAblations},
    };
    return figures;
}

} // namespace

std::vector<const FigureSpec *>
selectFigures(const std::vector<std::string> &ids)
{
    std::vector<const FigureSpec *> out;
    for (const std::string &id :
         ids.empty() ? std::vector<std::string>{"all"} : ids) {
        const std::size_t before = out.size();
        for (const FigureSpec &fig : figureTable()) {
            if (id == "all" || fig.id == id)
                out.push_back(&fig);
        }
        if (out.size() == before) {
            std::string valid = "all";
            for (const FigureSpec &fig : figureTable())
                valid += ", " + std::string(fig.id);
            throw SimError(ErrorCategory::Config,
                           "unknown figure '" + id + "' (valid: " + valid +
                               ")");
        }
    }
    return out;
}

bool
renderFigures(const std::vector<const FigureSpec *> &figs,
              SweepEngine &engine, std::ostream &os)
{
    FigureInputs in(engine);
    std::ostringstream planning_text;
    for (const FigureSpec *fig : figs)
        fig->render(in, planning_text);
    if (!in.compute())
        return false;
    for (const FigureSpec *fig : figs)
        fig->render(in, os);
    return true;
}

} // namespace memento
