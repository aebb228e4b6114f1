"""Steadiness check: two sets of runs of the same code must agree.

    python3 bench/steady.py [--workloads mc-sample,exact,cli]

Runs two sets of five runs of ``bench/run.py`` with tracing off for
``run_seconds`` of BENCHMARK.json, each run on its own seed (101 to 110),
the workloads interleaved so that a slow spell of the machine touches all
of them.  For each workload and end-to-end metric it prints the median of
each set, the spread of all ten runs (interquartile range over median, from
``statistics.quantiles(values, n=4)``) and how far the second set's median
moved in the worse direction, and checks them against the bounds in
BENCHMARK.json: every spread and every median shift within its bound, and
the same share of failed operations in every run.  Exits 1 when a check
fails.  Raw results go to .bench_work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

SETS, RUNS = 2, 5

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_shift(first, second, better: str) -> float:
    """Relative change of the second median, positive when it is worse."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(RUNS):
            seed = 101 + k * RUNS + i
            for w in workloads:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, check=False)
                if proc.returncode != 0:
                    print(f"{w} seed {seed}: exit code {proc.returncode}")
                    return 1
                res = json.loads(proc.stdout.decode().splitlines()[-1])
                res["seed"] = seed
                runs[w][k].append(res)
                print(f"set {k + 1} {w} seed {seed}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.5g}" for m in metrics),
                    flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_work", "steady.json"), "w") as fh:
        json.dump(runs, fh, indent=1)

    ok = True
    print(f"\n{'workload':<10} {'metric':<12} {'median1':>11} {'median2':>11}"
          f" {'spread':>7} {'shift':>7} {'bound':>6}  verdict")
    for w in workloads:
        sets = runs[w]
        everyone = [r for s in sets for r in s]
        shares = {Fraction(r["failed"], r["attempted"]) for r in everyone}
        correct = all(r["correct"] for r in everyone)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first, second = ([r["metrics"][name]["value"] for r in s] for s in sets)
            sp = spread(first + second)
            shift = worse_shift(first, second, m["better"])
            good = shift <= bound and sp <= bound
            ok &= good
            verdict = "ok" if sp <= bound / 3 and good else ("ok, spread above bound/3" if good else "FAIL")
            print(f"{w:<10} {name:<12} {statistics.median(first):>11.5g} {statistics.median(second):>11.5g}"
                  f" {sp:>7.3f} {shift:>+7.3f} {bound:>6.2f}  {verdict}")
        share_text = ", ".join(str(s) for s in sorted(shares))
        print(f"{w:<10} failed share {share_text}; correct in every run: {correct}")
        ok &= len(shares) == 1 and correct
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
