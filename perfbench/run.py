#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload functions --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
simulator library and the benchmark program into .bench_build/ (CMake, RelWithDebInfo,
two compile jobs); later runs only rebuild what changed. Build output goes to
stderr, so the last stdout line is always the program's JSON result.

--self-test runs the program in its reduced-size mode (two applications per
workload, a small node simulation) for every workload with tracing off and
on, and checks that traced and untraced cells agree and that each workload
prints exactly the metrics BENCHMARK.json declares, with their units.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "memento_perfbench")
GOLDEN = os.path.join(HERE, "golden.tsv")

WORKLOADS = ["functions", "longrun"]

# End-to-end metrics (--trace 0); every workload computes all of them.
E2E = ["wall_s", "setup_s", "peak_rss_mb", "replay_mops", "fleet_minv_s",
       "speedup_err_pp", "traffic_err_pp", "memory_err_pp", "hot_hit_err_pp",
       "frag_err_pp", "p99_ms", "capacity_rps", "capacity_gain"]


def _split(names):
    return [n + s for n in names for s in (".base", ".mem")]


# Per-layer metrics (--trace 1); every workload computes all of them.
LAYER = (
    ["wl.synth_s", "wl.synth_ns_per_op", "wl.trace_mb",
     "machine.build_ms", "machine.cells"]
    + _split(["machine.replay_ns_per_op", "machine.dispatch_ns_per_op",
              "mem.access_ns", "mem.accesses", "mem.l1d_miss_rate",
              "mem.llc_miss_rate", "mem.l1tlb_miss_rate",
              "mem.l2tlb_miss_rate", "mem.dram_mb", "os.page_faults",
              "os.mmap_calls", "os.kernel_pages", "cycles.app_frac",
              "cycles.user_mm_frac", "cycles.kernel_mm_frac"])
    + ["cycles.hw_mm_frac.mem"]
    + ["rt.malloc_ns", "rt.free_ns", "rt.exit_ms", "rt.calls",
       "hw.malloc_ns", "hw.free_ns", "hw.exit_ms", "hw.calls",
       "hw.hot_alloc_hit_rate", "hw.hot_free_hit_rate", "hw.list_ops",
       "hw.pool_refills", "hw.bypassed_lines", "val.digest_ms",
       "trace.overhead_frac", "an.profile_s", "an.short_lived_pct",
       "an.small_short_pct", "machine.sweep_efficiency",
       "machine.store_writes", "fleet.arrivals_ns", "fleet.loop_ns",
       "fleet.probes"]
    + _split(["fleet.cold_start_rate", "fleet.evictions",
              "fleet.served_frac"])
    + ["val.golden_checked", "val.golden_mismatches", "trace.timer_ns"]
)


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the program; False if that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to", HERE)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "memento_perfbench",
                  "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def program_cmd(workload, seed, seconds, trace, reduced=False):
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden", GOLDEN, "--out-dir", os.path.join(BUILD, "out")]
    return cmd + (["--reduced"] if reduced else [])


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Reduced-size runs of every workload, traced and untraced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    if set(E2E) != declared_e2e:
        problems.append("E2E list != BENCHMARK.json end_to_end")
    if set(LAYER) != declared_layer:
        problems.append("LAYER list != BENCHMARK.json per_layer")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(program_cmd(workload, 0, 1, trace, True),
                                  capture_output=True, text=True)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}")
                continue
            res = last_json(proc.stdout)
            if not res or not res["correct"] or res["failed"]:
                problems.append(f"{tag}: run not correct: {res}")
                continue
            expect = LAYER if trace else E2E
            got = res["metrics"]
            for name in expect:
                if name not in got:
                    problems.append(f"{tag}: missing metric {name}")
                elif got[name]["unit"] != units.get(name):
                    problems.append(f"{tag}: {name} unit {got[name]['unit']}"
                                    f" != {units.get(name)}")
            for name in got:
                if name not in expect:
                    problems.append(f"{tag}: reports undeclared {name}")
            if trace:
                cells = [l for l in proc.stdout.splitlines()
                         if l.startswith("# cell ")]
                if not cells:
                    problems.append(f"{tag}: no traced cells")
                for line in cells:
                    # '# cell W/C cycles X digest D executor X D traced X D ok'
                    f = line.split()
                    timed, execd, traced = (f[4], f[6]), (f[8], f[9]), \
                        (f[11], f[12])
                    if not timed == execd == traced:
                        problems.append(f"{tag}: {line}")
            log(f"self-test {tag}: {len(got)} metrics, "
                f"{res['attempted']} operations checked")
    for p in problems:
        log("self-test FAILED:", p)
    if not problems:
        log("self-test passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 3
    if args.self_test:
        return self_test()
    proc = subprocess.run(program_cmd(args.workload, args.seed, args.seconds,
                                     args.trace))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
