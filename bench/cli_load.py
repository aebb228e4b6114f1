"""The cli workload: the README's command set, one process per command.

Each command runs as ``python -m quasishuffle.cli`` with ``src`` on the
path; its output goes to a file and is checked after the process ends.  The
sampling commands take their seeds from the benchmark seed.  ``verify``
runs at the README's fixed seed 5, because its four KS checks at
alpha = 0.01 reject a correct sampler on a few percent of seeds.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import reference as R

SAMPLES = 100_000
WALK_STEPS = 100
MIX_N, MIX_STEPS = 6, 6


class Command:
    """One CLI process: its arguments, the cards it deals and its check."""

    def __init__(self, name, argv, check, cards=0):
        self.name, self.argv, self.check, self.cards = name, argv, check, cards

    @property
    def subcommand(self) -> str:
        return "version" if self.argv[0] == "--version" else self.argv[0]


def _rows(lines, n):
    return [tuple(int(c) for c in line) if n <= 9 else tuple(int(c) for c in line.split(","))
            for line in lines]


def _parse_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != "permutation" or "# histogram" not in lines:
        return None, None
    cut = lines.index("# histogram")
    hist = {}
    for line in lines[cut + 1 :]:
        key, count = line[2:].rsplit(",", 1)
        hist[key] = int(count)
    return lines[1:cut], hist


def _parse_json(text, key):
    obj = json.loads(text)
    return obj[key], obj["histogram"]


def _sample_check(text, fmt, key, n, law, memo):
    """Rows are permutations, the histogram matches them, the law fits, and
    the CSV and JSON forms of one seed carry the same rows."""
    import checks as C
    import numpy as np

    rows, hist = _parse_csv(text) if fmt == "csv" else _parse_json(text, key)
    if rows is None:
        return "output is not the documented CSV form"
    if len(rows) != SAMPLES or sum(hist.values()) != SAMPLES:
        return f"{len(rows)} rows and histogram total {sum(hist.values())}, want {SAMPLES}"
    if dict(Counter(rows)) != hist:
        return "histogram does not match the printed rows"
    other = memo.setdefault(key, rows)
    if other is not rows and other != rows:
        return "CSV and JSON forms of one seed differ"
    arr = np.array(_rows(rows, n))
    return C.bad_rows(arr, n) or C.gof(C.counts_from_rows(arr, n), law())


def _walk_check(text):
    import checks as C

    lines = text.splitlines()
    if lines[0] != "h,permutation" or len(lines) != WALK_STEPS + 2:
        return "walk output has the wrong header or length"
    states = []
    for h, line in enumerate(lines[1:]):
        idx, perm = line.split(",", 1)
        if int(idx) != h:
            return f"row {h} is labelled {idx}"
        states.append(tuple(int(v) for v in perm.split(",")))
    if states[0] != tuple(range(1, 53)):
        return "walk does not start at the identity"
    if any(sorted(s) != list(range(1, 53)) for s in states):
        return "a walk state is not a permutation of 1..52"
    return C.walk_bound(states)


def _verify_check(text):
    report = json.loads(text)
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return f"verify failed: {failed}"
    return None


def _mixing_exact_check(text):
    want = ["h,tv_exact"] + [
        f"{h},{float(R.bayer_diaconis_tv(2, MIX_N, h)):.12g}" for h in range(MIX_STEPS + 1)
    ]
    return None if text.splitlines() == want else "exact mixing rows differ from Bayer-Diaconis"


def _mixing_mc_check(text):
    import checks as C

    lines = text.splitlines()
    if lines[0] != "h,tv_empirical" or len(lines) != MIX_STEPS + 2:
        return "mc mixing output has the wrong header or length"
    curve = [float(line.split(",")[1]) for line in lines[1:]]
    return C.curve_within_tolerance(curve, 2, MIX_N, SAMPLES)


def _shuffle_map_check(text, a, grid):
    lines = text.splitlines()
    if "# x,value" not in lines:
        return "no grid table in shuffle-map output"
    table = lines[lines.index("# x,value") + 1 :]
    want = []
    for k in range(grid + 1):
        x = Fraction(k, grid)
        want.append(f"# {x},{Fraction(1) if x == 1 else (a * x) % 1}")
    return None if table == want else "shuffle-map table differs from a*x mod 1"


def _oracle_check(text, a, n):
    import checks as C

    obj = json.loads(text)
    got = {tuple(int(c) for c in k): Fraction(v) for k, v in obj["probs"].items()}
    return C.same_law(got, R.a_shuffle_law(a, n))


def _version_check(text):
    parts = text.strip().split(".")
    return None if text.endswith("\n") and all(p.isdigit() for p in parts) else "bad version line"


def commands(seed: int) -> list[Command]:
    import checks as C

    memo_order: dict = {}
    memo_step: dict = {}
    order_law = lambda: C.law_vector(R.GSR, 4)  # noqa: E731
    step_law = lambda: C.law_vector(R.A3, 8, inverse=True)  # noqa: E731
    order = ["sample-order", "--measure", "gsr", "--n", "4", "--samples", str(SAMPLES),
             "--seed", str(seed)]
    step = ["step", "--measure", "a-shuffle:3", "--type", "two", "--n", "8",
            "--samples", str(SAMPLES), "--seed", str(seed + 1)]
    return [
        Command("version", ["--version"], _version_check),
        Command("sample-order/csv", order,
                lambda t: _sample_check(t, "csv", "rankings", 4, order_law, memo_order),
                cards=SAMPLES * 4),
        Command("sample-order/json", order + ["--format", "json"],
                lambda t: _sample_check(t, "json", "rankings", 4, order_law, memo_order),
                cards=SAMPLES * 4),
        Command("step/csv", step,
                lambda t: _sample_check(t, "csv", "steps", 8, step_law, memo_step),
                cards=SAMPLES * 8),
        Command("step/json", step + ["--format", "json"],
                lambda t: _sample_check(t, "json", "steps", 8, step_law, memo_step),
                cards=SAMPLES * 8),
        Command("walk", ["walk", "--sampler", "nu_mu:gsr", "--n", "52",
                         "--steps", str(WALK_STEPS), "--seed", str(seed + 2)],
                _walk_check, cards=WALK_STEPS * 52),
        Command("verify/mixed", ["verify", "--measure", "mixed", "--seed", "5"], _verify_check),
        Command("verify/gsr/n6", ["verify", "--measure", "gsr", "--n", "6", "--seed", "5"],
                _verify_check),
        Command("mixing/exact", ["mixing", "--measure", "gsr", "--type", "two",
                                 "--n", str(MIX_N), "--steps", str(MIX_STEPS)],
                _mixing_exact_check),
        Command("mixing/mc", ["mixing", "--measure", "gsr", "--n", str(MIX_N),
                              "--steps", str(MIX_STEPS), "--mode", "mc",
                              "--samples", str(SAMPLES), "--seed", str(seed + 3)],
                _mixing_mc_check, cards=MIX_STEPS * SAMPLES * MIX_N),
        Command("shuffle-map", ["shuffle-map", "--measure", "a-shuffle:3", "--grid", "12"],
                lambda t: _shuffle_map_check(t, 3, 12)),
        Command("oracle", ["oracle", "--measure", "a-shuffle:8", "--n", "5"],
                lambda t: _oracle_check(t, 8, 5)),
    ]
