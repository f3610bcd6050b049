#!/usr/bin/env python3
"""The layered wall-clock benchmark (workloads and metrics: BENCHMARK.json).

Run from the repository root:

  python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/ledger/run.py --report [--workload W] [--seconds S]
  python3 bench/ledger/run.py --selftest

The first form builds bench/ledger/ledger.exe with dune and measures one
workload for S seconds.  The workloads are closed loops: one client, one
process at a time, each process starting when the previous one exits,
no think time.  Every process gets the same seed, so the exact counts
(dsim.events, amac.forced, pdes.windows) must repeat across them; a
mismatch counts as a failure.  The last line of stdout is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with tracing off: wall time of
each whole process from spawn to exit (setup and output checks
included), its CPU and peak RSS from wait4, and per-simulation wall
times.  Timings are medians over the processes of the run; run_p50_ms
and run_p90_ms pool every simulation of the run.  On mega_grid one
process runs one simulation, so there run_p90_ms rests on a handful of
samples.

--trace 1 reports the per-layer metrics.  It alternates an untraced and
a traced process until S seconds have passed and reports medians; the
traced process records spans around every call into a layer, injects a
monotonic clock into each engine, runs the layer cases, and writes its
spans to _ledger/spans-W.jsonl.  trace.overhead_s is the traced minus the
untraced workload time; dsim.minor_words_per_event is read from the
untraced process.  A layer the workload bypasses reads 0.

--report prints every metric of every workload by name with its unit,
plus the failure counts.  --selftest runs every workload at a tiny scale
and checks that each reports every metric BENCHMARK.json names.

Wall times come from CLOCK_MONOTONIC (time.monotonic here, the same
clock inside the OCaml process); CPU only from getrusage via wait4.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "bench", "ledger", "ledger.exe")
TARGET = "./bench/ledger/ledger.exe"
OUT_DIR = "_ledger"
MIN_PROCS = 3
WORKLOADS = ["fig1_sweep", "fig1_audited", "mega_grid"]


def die(msg):
    print("ledger: " + msg, file=sys.stderr)
    sys.exit(2)


def check_layout():
    for path in ("BENCHMARK.json", "dune-project", "lib", "bench/ledger/dune"):
        if not os.path.exists(path):
            die("run from the repository root (missing %s)" % path)


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    return spec, units


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        die("build failed")
    os.makedirs(OUT_DIR, exist_ok=True)


class Proc:
    """One finished ledger.exe process: wall, CPU, peak RSS, its record."""

    def __init__(self, mode, workload, seed, scale):
        argv = [EXE, mode, "--workload", workload, "--seed", str(seed),
                "--scale", scale, "--out", OUT_DIR]
        t0 = time.monotonic()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE)
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        self.wall_s = time.monotonic() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.record = None
        self.error = None
        lines = out.decode(errors="replace").strip().splitlines()
        if p.returncode != 0:
            self.error = "%s exited with %d" % (mode, p.returncode)
        elif not lines:
            self.error = "%s printed nothing" % mode
        else:
            try:
                self.record = json.loads(lines[-1])
            except ValueError:
                self.error = "%s printed no JSON record" % mode

    def ok(self):
        return self.record is not None


def fits(start, seconds, done):
    """Whether one more round, as long as the rounds so far took on
    average, still ends within the measured time."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / max(1, done) <= seconds


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tally(procs):
    """attempted, failed and failure reasons over a list of processes,
    with exact-count mismatches between them counted as failures."""
    attempted = failed = 0
    reasons = []
    first = None
    for p in procs:
        if not p.ok():
            attempted += 1
            failed += 1
            reasons.append(p.error)
            continue
        r = p.record
        attempted += r["attempted"]
        failed += r["failed"]
        reasons += r["reasons"]
        if first is None:
            first = r["counts"]
        elif r["counts"] != first:
            failed += r["attempted"]
            reasons.append("exact counts differ across repeats: %s vs %s"
                           % (r["counts"], first))
    return attempted, failed, reasons


def host_record(procs):
    ocaml = next((p.record["host"] for p in procs if p.ok()), {})
    return {
        "host": dict(
            ocaml,
            nproc=len(os.sched_getaffinity(0)),
            python_wall_clock="time.monotonic (CLOCK_MONOTONIC)",
            python_cpu_clock="wait4 rusage user+sys, whole child process",
        )
    }


def end_to_end(workload, seed, seconds, scale):
    procs = []
    start = time.monotonic()
    while len(procs) < MIN_PROCS or fits(start, seconds, len(procs)):
        procs.append(Proc("run", workload, seed, scale))
    good = [p for p in procs if p.ok()]
    attempted, failed, reasons = tally(procs)
    metrics = {}
    if good:
        runs = sorted(x for p in good for x in p.record["runs_s"])
        metrics = {
            "total_s": statistics.median(p.wall_s for p in good),
            "setup_s": statistics.median(p.record["setup_s"] for p in good),
            "cpu_s": statistics.median(p.cpu_s for p in good),
            "run_p50_ms": nearest_rank(runs, 0.5) * 1e3,
            "run_p90_ms": nearest_rank(runs, 0.9) * 1e3,
            "peak_rss_mb": statistics.median(p.rss_mb for p in good),
        }
    info = {"processes": len(procs), "simulation_samples":
            sum(len(p.record["runs_s"]) for p in good), "reasons": reasons[:5]}
    return procs, attempted, failed, metrics, info


def per_layer(workload, seed, seconds, scale, names):
    procs, pairs = [], []
    start = time.monotonic()
    while not procs or fits(start, seconds, len(procs) // 2):
        u = Proc("run", workload, seed, scale)
        t = Proc("trace", workload, seed, scale)
        procs += [u, t]
        if u.ok() and t.ok():
            pairs.append((u.record, t.record))
    attempted, failed, reasons = tally(procs)
    metrics = {}
    if pairs:
        def med(f):
            return statistics.median(f(u, t) for u, t in pairs)

        for name in names:
            if name == "trace.overhead_s":
                metrics[name] = med(lambda u, t: t["workload_s"] - u["workload_s"])
            elif name == "dsim.minor_words_per_event":
                metrics[name] = med(lambda u, t: u["floats"].get("gc.minor_words", 0.0)
                                    / max(1, u["ints"].get("dsim.events", 0)))
            else:
                metrics[name] = med(lambda u, t: t["metrics"][name])
    info = {"processes": len(procs), "pairs": len(pairs), "reasons": reasons[:5]}
    return procs, attempted, failed, metrics, info


def measure(workload, seed, seconds, trace, scale, spec):
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        return per_layer(workload, seed, seconds, scale, names)
    return end_to_end(workload, seed, seconds, scale)


def result_line(attempted, failed, metrics, units):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(args, spec, units):
    workloads = [args.workload] if args.workload else WORKLOADS
    bad = False
    for w in workloads:
        print("== %s (seed %d, %gs per mode)" % (w, args.seed, args.seconds))
        for trace in (0, 1):
            procs, attempted, failed, metrics, info = measure(
                w, args.seed, args.seconds, trace, "full", spec)
            print("  -- %s: %d simulation(s) attempted, %d failed, fail_ratio %g, %s"
                  % ("per-layer" if trace else "end-to-end", attempted, failed,
                     failed / max(1, attempted), info))
            for name, value in metrics.items():
                print("  %-32s %16.6g %s" % (name, value, units[name]))
            bad = bad or failed > 0 or attempted == 0
    return 1 if bad else 0


def selftest(spec, units):
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = [m["name"] for m in spec[key]]
            procs, attempted, failed, metrics, info = measure(
                w, 1, 0, trace, "tiny", spec)
            res = result_line(attempted, failed, metrics, units)
            missing = [n for n in want if n not in metrics]
            extra = [n for n in metrics if n not in want]
            odd = [n for n, v in metrics.items()
                   if not isinstance(v, (int, float)) or not math.isfinite(v)]
            for label, lst in (("missing", missing), ("unexpected", extra),
                               ("non-finite", odd)):
                if lst:
                    problems.append("%s --trace %d: %s %s" % (w, trace, label, lst))
            if not res["correct"]:
                problems.append("%s --trace %d: %d/%d failed %s"
                                % (w, trace, failed, attempted, info["reasons"]))
            print("selftest %-13s --trace %d: %d metrics, %d/%d failed"
                  % (w, trace, len(metrics), failed, attempted))
    for p in problems:
        print("selftest: " + p)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    check_layout()
    spec, units = load_spec()
    build()
    if args.selftest:
        return selftest(spec, units)
    if args.report:
        return report(args, spec, units)
    if not args.workload:
        die("--workload is required")
    procs, attempted, failed, metrics, info = measure(
        args.workload, args.seed, args.seconds, args.trace, "full", spec)
    for r in info["reasons"]:
        print("ledger: failure: " + r, file=sys.stderr)
    print(json.dumps(host_record(procs)))
    print(json.dumps(result_line(attempted, failed, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
