#!/usr/bin/env python3
"""Steadiness check for the benchmark: two sets of ten untraced runs of one
commit, interleaved so that both sets see the same machine conditions.

Run from the checkout root:

    python3 perfbench/steady.py

Run i of each set uses seed i (1 to 10) and the run length from
BENCHMARK.json; the order of the two sets alternates from one seed to the
next (A B, B A, A B, ...). For every end-to-end metric of every workload it
prints each set's median, first and third quartiles
(statistics.quantiles(n=4)), the quartile spread as a share of the median,
the difference of the two medians as a share of the smaller one, and the
metric's bound from BENCHMARK.json. Each spread and the difference must stay
within the bound, setup_s included. It also checks that every run failed the
same share of ops and that the virtual-time results of a seed are identical
in both sets. Exit status 1 means a check or a bound failed.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    virtual = None
    for line in p.stderr.splitlines():
        if line.startswith("perfbench: virtual "):
            virtual = line[len("perfbench: virtual "):]
    return res, virtual


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        virt = {"A": [], "B": []}
        for seed in range(1, RUNS + 1):
            for s in ("AB" if seed % 2 else "BA"):
                res, v = run_once(w, seed, seconds)
                if not res["correct"]:
                    print(f"{w} seed {seed}: outputs incorrect")
                    ok = False
                sets[s].append(res)
                virt[s].append(v)
                print(f"  {w} set {s} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())), file=sys.stderr)
        print(f"\n{w}: {RUNS} runs per set, {seconds}s each")
        print("| metric | bound | set A median [q1, q3] | A spread | set B median [q1, q3] | B spread | A vs B |")
        print("|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row, med, flags = [], {}, []
            for s in "AB":
                med[s], q1, q3, spread = summary([r["metrics"][name]["value"] for r in sets[s]])
                row += [f"{med[s]:.4g} [{q1:.4g}, {q3:.4g}]", f"{spread:.3f}"]
                if spread > bound:
                    flags.append(f"{s} spread over bound")
                    ok = False
                elif spread > bound / 3:
                    flags.append(f"{s} spread over bound/3")
            diff = abs(med["A"] - med["B"]) / min(med["A"], med["B"])
            if diff > bound:
                flags.append("medians differ by more than the bound")
                ok = False
            print(f"| {name} | {bound} | {row[0]} | {row[1]} | {row[2]} | {row[3]} | "
                  f"{diff:.3f}{' — ' + '; '.join(flags) if flags else ''} |")
        shares = {s: sum(r["failed"] for r in sets[s]) / sum(r["attempted"] for r in sets[s]) for s in "AB"}
        print(f"failed share: A {shares['A']:.6f}, B {shares['B']:.6f}")
        if len({r["failed"] / r["attempted"] for r in sets["A"] + sets["B"]}) > 1:
            print("failed share differs between runs")
            ok = False
        same = virt["A"] == virt["B"]
        print(f"virtual-time results identical per seed across sets: {same}")
        ok = ok and same
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
