#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

Runs one workload N times with different seeds and prints, for every
metric, the median, the quartiles and the quartile spread as a share of
the median, against the metric's bound from BENCHMARK.json. Also prints
the share of failed operations of each run, which must be the same in
every run.

    python3 pipebench/steady.py --workload live --runs 5
    python3 pipebench/steady.py --workload backlog --runs 10 --trace 1
    python3 pipebench/steady.py --workload restart --overhead

Run from the repository root. `--bin` runs an already built binary
instead of the command in BENCHMARK.json; `--overhead` runs each seed
untraced and traced and prints the end-to-end difference tracing makes.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2]) if len(lines) >= 2 else {}
    return json.loads(lines[-1]), detail, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def table(rows, bounds):
    print(f"{'metric':42} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, (unit, values) in rows.items():
        if len(values) < 2:
            continue
        q1, med, q3, s = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "  ok" if s < bound / 3 else ("  WIDE" if s > bound else "  >1/3")
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:42} {unit:>9} {med:12.5g} {q1:12.5g} {q3:12.5g} {s:7.3f} {b:>6}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bin", help="benchmark binary to run instead of the BENCHMARK.json command")
    ap.add_argument("--overhead", action="store_true")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = [a.bin] if a.bin else bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    rows, shares, walls, overhead = {}, [], [], {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        traces = [0, 1] if a.overhead else [a.trace]
        for trace in traces:
            result, detail, wall = run_once(cmd, a.workload, seed, seconds, trace)
            if not result["correct"]:
                sys.exit(f"seed {seed}: run reported incorrect output")
            if trace == traces[0]:
                walls.append(wall)
                shares.append(result["failed"] / result["attempted"])
                for name, m in result["metrics"].items():
                    rows.setdefault(name, (m["unit"], []))[1].append(m["value"])
            if a.overhead:
                for name, m in detail.get("end_to_end", {}).items():
                    overhead.setdefault(name, {0: [], 1: []})[trace].append(m["value"])
            values = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            print(f"seed {seed} trace {trace}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}: {values}", file=sys.stderr)

    print(f"workload {a.workload}: {a.runs} runs of {seconds} s, wall {min(walls):.1f}-{max(walls):.1f} s")
    table(rows, bounds)
    print("failed share per run:", sorted(set(f"{s:.6f}" for s in shares)))
    if a.overhead:
        print("tracing overhead (traced median / untraced median - 1):")
        for name, by in overhead.items():
            if by[0] and by[1]:
                m0, m1 = statistics.median(by[0]), statistics.median(by[1])
                print(f"  {name:32} {m0:12.5g} -> {m1:12.5g}  {(m1 / m0 - 1) * 100:+.1f} %")


if __name__ == "__main__":
    main()
