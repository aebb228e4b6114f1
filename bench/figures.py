"""Re-measure the sizing figures quoted in bench/README.md.

    python3 bench/figures.py

Single runs, printed as a Markdown table: the import, a few CLI processes
and the in-process calls that set the size of each workload.  The larger
cases (a-shuffle:8 at n = 6, the routes at n = 6, mixed at n = 6) are the
ones the workloads shrink to keep a round short.  Takes about two minutes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

IN_PROCESS = r"""
import sys, time
t = time.perf_counter()
import quasishuffle as q
print("import quasishuffle", time.perf_counter() - t, flush=True)
import numpy as np
rng = np.random.default_rng(1)
cases = [
    ("sample_ordering_batch gsr, n = 8, 10^6 rows",
     lambda: q.sample_ordering_batch(q.gsr(), range(1, 9), 10**6, rng)),
    ("sample_ordering_batch a-shuffle:3, n = 52, 10^5 rows",
     lambda: q.sample_ordering_batch(q.a_shuffle(3), range(1, 53), 10**5, rng)),
    ("walk gsr, n = 52, 100 steps",
     lambda: q.walk(52, q.ConjugateCoupling(q.gsr()), 100, rng)),
    ("exact_ordering_distribution a-shuffle:8, n = 6",
     lambda: q.exact_ordering_distribution(q.a_shuffle(8), 6)),
    ("coupling route a-shuffle:3, n = 6",
     lambda: q.exact_coupling_step_distribution(q.a_shuffle(3), 6)),
    ("map route a-shuffle:3, n = 6",
     lambda: q.exact_map_step_distribution(q.shuffle_map_from_measure(q.a_shuffle(3)), 6)),
    ("mixing_curve gsr, n = 7, 3 steps",
     lambda: q.mixing_curve(q.gsr(), 7, "one", 3, max_n=7)),
    ("mixing_curve mixed, n = 6, 4 steps",
     lambda: q.mixing_curve(q.mixed_fixture(), 6, "one", 4)),
]
for name, fn in cases:
    t = time.perf_counter()
    fn()
    print(name, time.perf_counter() - t, flush=True)
"""

CLI = (
    ("`--version` process", ["--version"]),
    ("`sample-order gsr --n 4 --samples 1e6` process",
     ["sample-order", "--measure", "gsr", "--n", "4", "--samples", "1000000", "--seed", "1"]),
    ("`step a-shuffle:3 --type two --n 8 --samples 2e5` process",
     ["step", "--measure", "a-shuffle:3", "--type", "two", "--n", "8", "--samples", "200000",
      "--seed", "1"]),
    ("`verify gsr --n 6` process", ["verify", "--measure", "gsr", "--n", "6", "--seed", "5"]),
)


def main() -> int:
    sys.path.insert(0, HERE)
    from run import child_env

    env = child_env()
    rows = []
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, check=True)
    for line in proc.stdout.decode().splitlines():
        name, secs = line.rsplit(" ", 1)
        rows.append((name, float(secs)))
    for name, args in CLI:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "quasishuffle.cli"] + args, env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        rows.append((name, time.perf_counter() - t0))
    print("| operation | time |\n|---|---|")
    for name, secs in rows:
        print(f"| {name} | {secs:.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
