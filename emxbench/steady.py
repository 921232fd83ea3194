#!/usr/bin/env python3
"""Steadiness check for the emxbench benchmark.

    python3 emxbench/steady.py --runs 10 --seconds 25 --save set1.json
    python3 emxbench/steady.py --workloads serve_preempt --runs 5 --seed 100
    python3 emxbench/steady.py --compare set1.json set2.json

Runs every chosen workload --runs times, each run with its own seed,
interleaved across workloads (the order rotates every round), so each
workload's runs spread over the whole set. For every end-to-end metric
of every workload it prints the median, the quartiles and
(q3 - q1) / median as statistics.quantiles(n=4) gives them, beside the
metric's bound from BENCHMARK.json, and marks spreads that exceed a third
of the bound. It also prints operations attempted and failed, and exits 1
when any run failed or printed no result. --save writes every value.

--compare reads two saved sets and prints, per workload and metric, both
medians and how much worse each is than the other (the gate compares a
second set with a first; with the roles swapped it may fail where the
first order passes); it exits 1 when either direction exceeds the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def worse(a, b, better):
    """How much worse median b is than median a, as a share of a."""
    return (a - b) / a if better == "higher" else (b - a) / a


def compare(bench, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    print("| workload | metric | median A | median B | B worse than A | A worse than B | bound |")
    print("|---|---|---|---|---|---|---|")
    failed = 0
    for w in a:
        for name, va in a[w].items():
            if name not in b.get(w, {}):
                continue
            ma, mb = statistics.median(va), statistics.median(b[w][name])
            ab, ba = worse(ma, mb, spec[name]["better"]), worse(mb, ma, spec[name]["better"])
            bad = max(ab, ba) > spec[name]["bound"]
            failed += bad
            print("| %s | %s | %.6g | %.6g | %+.3f | %+.3f | %s%s |" % (
                w, name, ma, mb, ab, ba, spec[name]["bound"], " ✗" if bad else ""))
    print("%d workload/metric pairs differ by more than their bound" % failed)
    sys.exit(1 if failed else 0)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--save", help="write every value to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two files written by --save instead of running")
    args = ap.parse_args()
    if args.compare:
        compare(bench, *args.compare)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    ops = {w: [0, 0] for w in workloads}
    bad = 0
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                    "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                    "--trace", "0"]
            t0 = time.monotonic()
            p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (ValueError, IndexError):
                bad += 1
                print("%s seed %d: no result (exit %d)\n%s" % (w, args.seed + i,
                      p.returncode, p.stderr[-2000:]), flush=True)
                continue
            ops[w][0] += result["attempted"]
            ops[w][1] += result["failed"]
            bad += 0 if result["correct"] else 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("%-14s seed %-4d %5.1fs  %s" % (
                w, args.seed + i, time.monotonic() - t0,
                "  ".join("%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
                flush=True)

    print()
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | bound | runs |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else " (> bound/3)"
            print("| %s | %s | %.6g | %.6g | %.6g | %.3f%s | %s | %d |" % (
                w, name, med, q1, q3, spread, flag, bound, len(vs)))
    for w in workloads:
        print("%s: %d operations attempted, %d failed" % (w, ops[w][0], ops[w][1]))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
