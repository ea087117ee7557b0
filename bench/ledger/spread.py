#!/usr/bin/env python3
"""Run-to-run spread of the ledger's end-to-end metrics, and a comparison
of two sets of runs against the bounds in BENCHMARK.json.

    python3 bench/ledger/spread.py run [--runs 10] [--first-seed 1]
        [--workloads oql_small,...] [--seconds S] [--out FILE]
    python3 bench/ledger/spread.py compare BASE.json NEW.json

[run] runs each workload --runs times through the benchmark command, each
with another seed, and prints per metric the median and the distance
between the first and third quartiles as a share of the median
(statistics.quantiles with n=4).  --out keeps every value.

[compare] reads two such files and prints, per workload and metric, how
much the second median is worse than the first, against the metric's
bound; it exits 1 when any metric is worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCHMARK = json.load(open("BENCHMARK.json"))
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correctness gate failed")
    return {n: m["value"] for n, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def cmd_run(args):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in BENCHMARK["workloads"]]
    values = {}
    for w in workloads:
        runs = [one_run(w, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        values[w] = {n: [r[n] for r in runs] for n in E2E}
        for n in E2E:
            med, s = spread(values[w][n])
            print(f"{w:14s} {n:20s} median {med:14.6g}  spread {100 * s:6.2f}%"
                  f"  (bound {100 * E2E[n]['bound']:.0f}%)", flush=True)
    if args.out:
        json.dump(values, open(args.out, "w"), indent=1)


def cmd_compare(args):
    base, new = json.load(open(args.base)), json.load(open(args.new))
    worse_than_bound = False
    for w in base:
        for n, m in E2E.items():
            b, c = statistics.median(base[w][n]), statistics.median(new[w][n])
            worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
            flag = "REGRESSION" if worse > m["bound"] else "ok"
            worse_than_bound |= worse > m["bound"]
            print(f"{w:14s} {n:20s} {b:14.6g} -> {c:14.6g}  worse by "
                  f"{100 * worse:6.2f}% (bound {100 * m['bound']:.0f}%)  {flag}")
    return 1 if worse_than_bound else 0


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workloads")
    r.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
