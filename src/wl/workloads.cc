#include "wl/workloads.h"

#include "sim/logging.h"

namespace memento {
namespace {

using SB = SizeBucket;

/** Default large-allocation mixture (KB-scale buffers). */
SizeDistribution
defaultLargeDist()
{
    return SizeDistribution({SB{0.70, 520, 2048}, SB{0.25, 2049, 16384},
                             SB{0.05, 16385, 131072}});
}

WorkloadSpec
base(std::string id, std::string desc, Language lang, Domain domain,
     std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.id = std::move(id);
    spec.description = std::move(desc);
    spec.lang = lang;
    spec.domain = domain;
    spec.largeDist = defaultLargeDist();
    spec.seed = seed;
    return spec;
}

std::vector<WorkloadSpec>
buildWorkloads()
{
    std::vector<WorkloadSpec> v;

    // ---------------- Python functions (SeBS / FunctionBench /
    // pyperformance) ----------------
    {
        // dynamic-html: renders templated HTML; streams freshly
        // allocated string buffers (bypass-friendly, biggest speedup).
        auto w = base("html", "SeBS dynamic-html", Language::Python,
                      Domain::Function, 101);
        w.numAllocs = 120'000;
        w.sizeDist = SizeDistribution(
            {SB{0.18, 24, 96}, SB{0.38, 97, 288}, SB{0.44, 289, 512}});
        w.lifetime = {.pShort = 0.76, .meanShortDistance = 4.0,
                      .pLongFreed = 0.30, .meanLongDistance = 500.0};
        w.pLarge = 0.030;
        w.computePerAlloc = 1150;
        w.burstEvery = 8000;
        w.burstBytes = 320 << 10;
        w.touchStores = 6;
        w.touchLoads = 1;
        w.staticWsBytes = 1 << 20;
        v.push_back(w);
    }
    {
        // image-recognition: compute-heavy inference over tensors.
        auto w = base("ir", "SeBS image-recognition", Language::Python,
                      Domain::Function, 102);
        w.numAllocs = 80'000;
        w.sizeDist = SizeDistribution(
            {SB{0.40, 16, 64}, SB{0.35, 65, 240}, SB{0.25, 241, 512}});
        w.lifetime = {.pShort = 0.72, .meanShortDistance = 5.0,
                      .pLongFreed = 0.30, .meanLongDistance = 600.0};
        w.pLarge = 0.050;
        w.computePerAlloc = 3400;
        w.burstEvery = 9000;
        w.burstBytes = 384 << 10;
        w.touchStores = 2;
        w.touchLoads = 3;
        w.staticWsBytes = (3 << 20) / 2;
        w.staticAccesses = 3;
        v.push_back(w);
    }
    {
        // graph-bfs: frontier churn over a static graph image.
        auto w = base("bfs", "SeBS graph-bfs", Language::Python,
                      Domain::Function, 103);
        w.numAllocs = 140'000;
        w.sizeDist = SizeDistribution(
            {SB{0.45, 16, 64}, SB{0.35, 65, 240}, SB{0.20, 241, 512}});
        w.lifetime = {.pShort = 0.70, .meanShortDistance = 6.0,
                      .pLongFreed = 0.10, .meanLongDistance = 800.0};
        w.pLarge = 0.010;
        w.computePerAlloc = 1550;
        w.burstEvery = 9000;
        w.burstBytes = 320 << 10;
        w.touchStores = 1;
        w.touchLoads = 2;
        w.staticWsBytes = (3 << 20) / 2;
        w.staticAccesses = 3;
        v.push_back(w);
    }
    {
        // dna-visualisation: large sequence strings + small records.
        auto w = base("dna", "SeBS dna-visualisation", Language::Python,
                      Domain::Function, 104);
        w.numAllocs = 90'000;
        w.sizeDist = SizeDistribution(
            {SB{0.40, 24, 96}, SB{0.30, 97, 288}, SB{0.30, 289, 512}});
        w.lifetime = {.pShort = 0.74, .meanShortDistance = 5.0,
                      .pLongFreed = 0.06, .meanLongDistance = 700.0};
        w.pLarge = 0.080;
        w.computePerAlloc = 2300;
        w.burstEvery = 7000;
        w.burstBytes = 384 << 10;
        w.touchStores = 3;
        w.touchLoads = 2;
        w.staticWsBytes = (3 << 20) / 2;
        v.push_back(w);
    }
    {
        // pyaes: tiny working set, allocation-dominated (>90% of the
        // gains come from object management, §6.1).
        auto w = base("aes", "FunctionBench pyaes", Language::Python,
                      Domain::Function, 105);
        w.numAllocs = 60'000;
        w.sizeDist = SizeDistribution({SB{0.80, 16, 64}, SB{0.20, 65, 160}});
        w.lifetime = {.pShort = 0.90, .meanShortDistance = 3.0,
                      .pLongFreed = 0.30, .meanLongDistance = 300.0};
        w.pLarge = 0.004;
        w.computePerAlloc = 520;
        w.touchStores = 1;
        w.touchLoads = 1;
        w.staticWsBytes = 128 << 10;
        w.staticAccesses = 1;
        v.push_back(w);
    }
    {
        // feature_reducer: text feature extraction.
        auto w = base("fr", "FunctionBench feature_reducer",
                      Language::Python, Domain::Function, 106);
        w.numAllocs = 100'000;
        w.sizeDist = SizeDistribution(
            {SB{0.45, 24, 96}, SB{0.30, 97, 288}, SB{0.25, 289, 512}});
        w.lifetime = {.pShort = 0.74, .meanShortDistance = 5.0,
                      .pLongFreed = 0.30, .meanLongDistance = 500.0};
        w.pLarge = 0.020;
        w.computePerAlloc = 2000;
        w.burstEvery = 7500;
        w.burstBytes = 320 << 10;
        w.touchStores = 2;
        w.touchLoads = 2;
        w.staticWsBytes = (3 << 20) / 2;
        v.push_back(w);
    }
    {
        // json_loads: parser churn, small dicts/strings, small WS.
        auto w = base("jl", "pyperformance json_loads", Language::Python,
                      Domain::Function, 107);
        w.numAllocs = 150'000;
        w.sizeDist = SizeDistribution({SB{0.75, 16, 96}, SB{0.25, 97, 256}});
        w.lifetime = {.pShort = 0.86, .meanShortDistance = 4.0,
                      .pLongFreed = 0.30, .meanLongDistance = 400.0};
        w.pLarge = 0.003;
        w.computePerAlloc = 640;
        w.touchStores = 1;
        w.touchLoads = 1;
        w.staticWsBytes = 256 << 10;
        w.staticAccesses = 1;
        v.push_back(w);
    }
    {
        // json_dumps: serializer builds many short-lived strings.
        auto w = base("jd", "pyperformance json_dumps", Language::Python,
                      Domain::Function, 108);
        w.numAllocs = 130'000;
        w.sizeDist = SizeDistribution(
            {SB{0.45, 16, 96}, SB{0.30, 97, 288}, SB{0.25, 289, 512}});
        w.lifetime = {.pShort = 0.78, .meanShortDistance = 4.0,
                      .pLongFreed = 0.30, .meanLongDistance = 400.0};
        w.pLarge = 0.015;
        w.computePerAlloc = 1550;
        w.burstEvery = 8500;
        w.burstBytes = 320 << 10;
        w.touchStores = 3;
        w.touchLoads = 1;
        w.staticWsBytes = 1 << 20;
        v.push_back(w);
    }
    {
        // mako: template rendering, string heavy.
        auto w = base("mk", "pyperformance mako", Language::Python,
                      Domain::Function, 109);
        w.numAllocs = 110'000;
        w.sizeDist = SizeDistribution(
            {SB{0.40, 24, 128}, SB{0.35, 129, 320}, SB{0.25, 321, 512}});
        w.lifetime = {.pShort = 0.76, .meanShortDistance = 4.0,
                      .pLongFreed = 0.30, .meanLongDistance = 500.0};
        w.pLarge = 0.020;
        w.computePerAlloc = 1650;
        w.burstEvery = 8000;
        w.burstBytes = 320 << 10;
        w.touchStores = 3;
        w.touchLoads = 2;
        w.staticWsBytes = 1 << 20;
        v.push_back(w);
    }

    // ---------------- C++ functions (DeathStarBench units) -----------
    {
        auto w = base("US", "DeathStarBench UrlShorten", Language::Cpp,
                      Domain::Function, 201);
        w.numAllocs = 100'000;
        w.sizeDist = SizeDistribution({SB{0.75, 8, 64}, SB{0.25, 65, 192}});
        w.lifetime = {.pShort = 0.92, .meanShortDistance = 3.0,
                      .pLongFreed = 0.30, .meanLongDistance = 300.0};
        w.pLarge = 0.003;
        w.largeDist = SizeDistribution({SB{1.0, 520, 4096}});
        w.computePerAlloc = 120;
        w.touchStores = 1;
        w.touchLoads = 1;
        w.staticWsBytes = 512 << 10;
        v.push_back(w);
    }
    {
        auto w = base("UM", "DeathStarBench UserMentions", Language::Cpp,
                      Domain::Function, 202);
        w.numAllocs = 110'000;
        w.sizeDist = SizeDistribution(
            {SB{0.60, 16, 96}, SB{0.30, 97, 256}, SB{0.10, 257, 512}});
        w.lifetime = {.pShort = 0.90, .meanShortDistance = 4.0,
                      .pLongFreed = 0.30, .meanLongDistance = 300.0};
        w.pLarge = 0.004;
        w.largeDist = SizeDistribution({SB{1.0, 520, 4096}});
        w.computePerAlloc = 130;
        w.touchStores = 3;
        w.touchLoads = 3;
        w.staticWsBytes = 1 << 20;
        v.push_back(w);
    }
    {
        auto w = base("CM", "DeathStarBench ComposeMedia", Language::Cpp,
                      Domain::Function, 203);
        w.numAllocs = 120'000;
        w.sizeDist = SizeDistribution(
            {SB{0.45, 32, 128}, SB{0.35, 129, 320}, SB{0.20, 321, 512}});
        w.lifetime = {.pShort = 0.88, .meanShortDistance = 4.0,
                      .pLongFreed = 0.03, .meanLongDistance = 300.0};
        w.pLarge = 0.006;
        w.largeDist = SizeDistribution({SB{1.0, 520, 8192}});
        w.computePerAlloc = 150;
        w.touchStores = 4;
        w.touchLoads = 2;
        w.staticWsBytes = 1 << 20;
        v.push_back(w);
    }
    {
        auto w = base("MI", "DeathStarBench MovieID", Language::Cpp,
                      Domain::Function, 204);
        w.numAllocs = 90'000;
        w.sizeDist = SizeDistribution({SB{0.80, 8, 64}, SB{0.20, 65, 160}});
        w.lifetime = {.pShort = 0.93, .meanShortDistance = 3.0,
                      .pLongFreed = 0.30, .meanLongDistance = 300.0};
        w.pLarge = 0.002;
        w.largeDist = SizeDistribution({SB{1.0, 520, 4096}});
        w.computePerAlloc = 115;
        w.touchStores = 1;
        w.touchLoads = 2;
        w.staticWsBytes = 512 << 10;
        v.push_back(w);
    }

    // ---------------- Golang function ports --------------------------
    // Go objects die only at GC time; functions finish before the first
    // cycle, so no Free events appear and everything is batch-freed.
    {
        auto w = base("html-go", "dynamic-html ported to Go",
                      Language::Golang, Domain::Function, 301);
        w.numAllocs = 100'000;
        w.sizeDist = SizeDistribution(
            {SB{0.45, 24, 96}, SB{0.35, 97, 256}, SB{0.20, 257, 512}});
        w.lifetime = {.pShort = 0.0, .meanShortDistance = 4.0,
                      .pLongFreed = 0.0, .meanLongDistance = 500.0};
        w.pLarge = 0.020;
        w.computePerAlloc = 1300;
        w.touchStores = 3;
        w.touchLoads = 1;
        w.staticWsBytes = 1 << 20;
        v.push_back(w);
    }
    {
        auto w = base("bfs-go", "graph-bfs ported to Go", Language::Golang,
                      Domain::Function, 302);
        w.numAllocs = 120'000;
        w.sizeDist = SizeDistribution({SB{0.70, 16, 48}, SB{0.30, 49, 128}});
        w.lifetime = {.pShort = 0.0, .meanShortDistance = 6.0,
                      .pLongFreed = 0.0, .meanLongDistance = 800.0};
        w.pLarge = 0.008;
        w.computePerAlloc = 820;
        w.touchStores = 1;
        w.touchLoads = 2;
        w.staticWsBytes = 4 << 20;
        w.staticAccesses = 4;
        v.push_back(w);
    }
    {
        auto w = base("aes-go", "pyaes ported to Go", Language::Golang,
                      Domain::Function, 303);
        w.numAllocs = 70'000;
        w.sizeDist = SizeDistribution({SB{0.80, 16, 64}, SB{0.20, 65, 160}});
        w.lifetime = {.pShort = 0.0, .meanShortDistance = 3.0,
                      .pLongFreed = 0.0, .meanLongDistance = 300.0};
        w.pLarge = 0.003;
        w.computePerAlloc = 730;
        w.touchStores = 1;
        w.touchLoads = 1;
        w.staticWsBytes = 128 << 10;
        w.staticAccesses = 1;
        v.push_back(w);
    }

    // ---------------- Data-processing applications (C++) -------------
    // Value-size mixture follows the tiny-object flash-cache study the
    // paper cites for these workloads.
    auto data_proc = [&](std::string id, std::string desc,
                         std::uint64_t seed, InstCount compute,
                         double p_short, unsigned stores) {
        auto w = base(std::move(id), std::move(desc), Language::Cpp,
                      Domain::DataProc, seed);
        w.numAllocs = 180'000;
        w.burstEvery = 1100;
        w.burstBytes = 128 << 10;
        w.sizeDist = SizeDistribution(
            {SB{0.50, 16, 96}, SB{0.35, 97, 256}, SB{0.15, 257, 512}});
        w.lifetime = {.pShort = p_short, .meanShortDistance = 6.0,
                      .pLongFreed = 0.50, .meanLongDistance = 2000.0};
        w.pLarge = 0.030;
        w.computePerAlloc = compute;
        w.touchStores = stores;
        w.touchLoads = 2;
        w.staticWsBytes = 1 << 20;
        w.staticAccesses = 2;
        w.rpcBytes = 0; // Long-running server, no per-run RPC bookends.
        return w;
    };
    v.push_back(data_proc("redis", "Redis mixed PUT-GET (SDS strings)",
                          401, 2200, 0.97, 3));
    v.push_back(data_proc("memcached", "Memcached mixed workload", 402,
                          2500, 0.96, 2));
    v.push_back(data_proc("silo", "Silo in-memory OLTP", 403, 2500, 0.96,
                          2));
    v.push_back(
        data_proc("sqlite3", "SQLite3 SELECT parsing", 404, 2500, 0.97, 2));

    // ---------------- Serverless platform operations (Golang) --------
    // OpenFaaS control-plane paths: long-running Go processes whose GC
    // does run; allocations are small and die only at collection time.
    auto platform = [&](std::string id, std::string desc,
                        std::uint64_t seed, std::uint64_t allocs,
                        InstCount compute) {
        auto w = base(std::move(id), std::move(desc), Language::Golang,
                      Domain::Platform, seed);
        w.numAllocs = allocs;
        w.sizeDist = SizeDistribution(
            {SB{0.65, 16, 96}, SB{0.30, 97, 256}, SB{0.05, 257, 512}});
        w.lifetime = {.pShort = 0.04, .meanShortDistance = 8.0,
                      .pLongFreed = 0.985, .meanLongDistance = 450.0};
        w.pLarge = 0.010;
        w.computePerAlloc = compute;
        w.touchStores = 2;
        w.touchLoads = 2;
        w.staticWsBytes = 6 << 20;
        w.staticAccesses = 4;
        w.rpcBytes = 0;
        w.burstEvery = 1100;
        w.burstBytes = 192 << 10;
        return w;
    };
    v.push_back(platform("up", "OpenFaaS platform start-up", 501, 110'000,
                         10000));
    v.push_back(platform("deploy", "OpenFaaS function deployment", 502,
                         90'000, 10500));
    v.push_back(platform("invoke", "OpenFaaS request routing", 503,
                         80'000, 9600));

    return v;
}

} // namespace

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> workloads = buildWorkloads();
    return workloads;
}

const WorkloadSpec &
workloadById(const std::string &id)
{
    for (const WorkloadSpec &w : allWorkloads()) {
        if (w.id == id)
            return w;
    }
    fatal("unknown workload id: ", id);
}

std::vector<WorkloadSpec>
workloadsByDomain(Domain domain)
{
    std::vector<WorkloadSpec> out;
    for (const WorkloadSpec &w : allWorkloads()) {
        if (w.domain == domain)
            out.push_back(w);
    }
    return out;
}

std::string
traceIdentity(const WorkloadSpec &spec)
{
    return spec.id + '#' + std::to_string(spec.seed) + '#' +
           std::to_string(spec.numAllocs);
}

std::string
languageName(Language lang)
{
    switch (lang) {
      case Language::Python: return "Python";
      case Language::Cpp: return "C++";
      case Language::Golang: return "Golang";
    }
    panic("bad language");
}

std::string
domainName(Domain domain)
{
    switch (domain) {
      case Domain::Function: return "Function";
      case Domain::DataProc: return "DataProc";
      case Domain::Platform: return "Platform";
    }
    panic("bad domain");
}

} // namespace memento
