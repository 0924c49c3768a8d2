/**
 * @file
 * Self-benchmark harness tests.
 *
 * The bench contract: performance numbers (ops/s, percentiles, wall
 * seconds) are free to vary run to run, but everything simulated —
 * per-workload cycle counts and machine-state digests — must be
 * byte-identical at any --jobs level and across repeated invocations.
 * The JSON document must carry the versioned envelope, and the
 * per-op percentiles are nearest-rank.
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_harness.h"
#include "sim/json.h"
#include "sim/stats.h"

namespace memento {
namespace {

BenchOptions
smokeOptions(unsigned jobs)
{
    BenchOptions opts;
    opts.smoke = true;
    opts.repeats = 1;
    opts.jobs = jobs;
    return opts;
}

TEST(BenchHarness, SmokeSweepMeasuresEveryWorkload)
{
    const BenchReport report = runBench(smokeOptions(1));
    ASSERT_EQ(report.workloads.size(), 3u);
    for (const WorkloadBench &wb : report.workloads) {
        EXPECT_FALSE(wb.id.empty());
        EXPECT_GT(wb.traceOps, 0u);
        EXPECT_GT(wb.cycles, 0u);
        EXPECT_NE(wb.digest, 0u);
        EXPECT_GT(wb.opsPerSec, 0.0);
        EXPECT_GT(wb.p50OpNs, 0.0);
        EXPECT_GE(wb.p99OpNs, wb.p50OpNs);
    }
    EXPECT_GT(report.totalOps, 0u);
    EXPECT_GT(report.totalCycles, 0u);
    EXPECT_GT(report.jobs1WallSec, 0.0);
    EXPECT_GT(report.jobsNWallSec, 0.0);

    // The real report, read back as the BENCH_*.json schema.
    std::ostringstream os;
    writeBenchJson(os, report);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), doc, err)) << err;
    ASSERT_NE(doc.find("schema_version"), nullptr);
    EXPECT_EQ(doc.find("schema_version")->u64, 1u);
    ASSERT_NE(doc.find("kind"), nullptr);
    EXPECT_EQ(doc.find("kind")->str, "bench");
    for (const char *key :
         {"git_sha", "build_flags", "repeats", "workloads", "totals"})
        EXPECT_NE(doc.find(key), nullptr) << "missing " << key;

    const JsonValue *workloads = doc.find("workloads");
    ASSERT_NE(workloads, nullptr);
    ASSERT_EQ(workloads->items.size(), 3u);
    for (const JsonValue &wb : workloads->items) {
        for (const char *key : {"id", "trace_ops", "cycles", "digest",
                                "ops_per_sec", "p50_op_ns", "p99_op_ns"})
            ASSERT_NE(wb.find(key), nullptr) << "workload missing " << key;
        EXPECT_GT(wb.find("trace_ops")->u64, 0u);
        EXPECT_GT(wb.find("ops_per_sec")->number, 0.0);
    }

    const JsonValue *fleet = doc.find("fleet");
    ASSERT_NE(fleet, nullptr);
    for (const char *key :
         {"arrival", "invocations", "cores", "completed", "cold_starts",
          "p50_ms", "p99_ms", "throughput_rps", "digest"})
        ASSERT_NE(fleet->find(key), nullptr) << "fleet missing " << key;
    EXPECT_GT(fleet->find("completed")->u64, 0u);
}

TEST(BenchHarness, SimulatedResultsIdenticalAtAnyJobCount)
{
    // Perf numbers are excluded from the comparison by construction:
    // only ids, cycle counts, and digests are checked.
    const BenchReport a = runBench(smokeOptions(1));
    for (unsigned jobs : {2u, 8u}) {
        const BenchReport b = runBench(smokeOptions(jobs));
        ASSERT_EQ(a.workloads.size(), b.workloads.size());
        for (std::size_t i = 0; i < a.workloads.size(); ++i) {
            EXPECT_EQ(a.workloads[i].id, b.workloads[i].id);
            EXPECT_EQ(a.workloads[i].traceOps, b.workloads[i].traceOps);
            EXPECT_EQ(a.workloads[i].cycles, b.workloads[i].cycles)
                << a.workloads[i].id << " at jobs=" << jobs;
            EXPECT_EQ(a.workloads[i].digest, b.workloads[i].digest)
                << a.workloads[i].id << " at jobs=" << jobs;
        }
        EXPECT_EQ(a.totalCycles, b.totalCycles);
    }
}

TEST(BenchHarness, JsonDocumentCarriesVersionedEnvelope)
{
    BenchReport report;
    report.repeats = 3;
    report.smoke = true;
    report.jobsN = 4;
    WorkloadBench wb;
    wb.id = "aes";
    wb.traceOps = 100;
    wb.cycles = 2000;
    wb.digest = 0x1234;
    wb.opsPerSec = 1.5e6;
    wb.p50OpNs = 250.0;
    wb.p99OpNs = 900.0;
    report.workloads.push_back(wb);
    report.totalOps = 100;
    report.totalCycles = 2000;

    std::ostringstream os;
    writeBenchJson(os, report);
    const std::string doc = os.str();

    EXPECT_EQ(doc.rfind("{\n  \"schema_version\": 1,\n"
                        "  \"kind\": \"bench\",\n",
                        0),
              0u)
        << doc;
    EXPECT_NE(doc.find("\"git_sha\": "), std::string::npos);
    EXPECT_NE(doc.find("\"build_flags\": "), std::string::npos);
    EXPECT_NE(doc.find("\"workloads\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"id\": \"aes\""), std::string::npos);
    EXPECT_NE(doc.find("\"trace_ops\": 100"), std::string::npos);
    EXPECT_NE(doc.find("\"cycles\": 2000"), std::string::npos);
    EXPECT_NE(doc.find("\"digest\": \"0000000000001234\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"ops_per_sec\": 1500000"), std::string::npos);
    EXPECT_NE(doc.find("\"totals\": {"), std::string::npos);
    EXPECT_EQ(doc.back(), '}');
}

TEST(BenchHarness, NearestRankP99OfTenSamplesIsTheMaximum)
{
    // Nearest rank: ceil(0.99 * 10) = 10, the largest sample; an
    // index of floor(0.99 * 9) = 8 would report the second largest.
    std::vector<double> samples = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
    std::size_t from = 0;
    EXPECT_EQ(selectNearestRank(samples, from, 50, 100), 5.0);
    EXPECT_EQ(selectNearestRank(samples, from, 99, 100), 10.0);
}

} // namespace
} // namespace memento
