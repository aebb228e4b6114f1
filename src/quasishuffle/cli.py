"""Command-line interface.

Subcommands: sample-order, step, walk, verify, mixing, shuffle-map,
oracle.  Each takes only the options it reads.  `--format csv|json`
belongs to sample-order, step, walk, mixing and shuffle-map; verify and
oracle always print JSON.  `--seed` belongs to the sampling commands
(sample-order, step, walk, verify, and mixing in mc mode).  `--sampler`
excludes `--measure` and `--type`; `--labels` excludes `--n`.  Output is
byte-stable for a fixed command line and seed.  Exit codes: 0 success, 1
property failure, 2 usage or configuration error, a malformed JSON spec
included.

Each command imports the library modules it calls when it runs, so a
process loads only those: `--version`, `oracle` and `mixing --mode exact`
start without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import QuasiShuffleError

if TYPE_CHECKING:
    import numpy as np


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _measure_only(text: str):
    from .measure import CandidateMeasure, resolve_source

    source = resolve_source(text)
    if isinstance(source, CandidateMeasure):
        raise ValueError("candidate measures are only accepted by `verify`")
    return source


def _coupling(kind: str, measure):
    """The coupling of a plain measure that `--type one|two` selects."""
    from .kernels import ConjugateCoupling, InverseConjugateCoupling

    return (ConjugateCoupling if kind == "one" else InverseConjugateCoupling)(measure)


def _sampler_from_args(args) -> object:
    from .kernels import resolve_sampler
    from .measure import _plain_measure

    if args.sampler is not None:
        if args.measure is not None or args.type is not None:
            raise ValueError("--sampler excludes --measure and --type")
        return resolve_sampler(args.sampler)
    if args.measure is not None:
        return _coupling(args.type or "one", _plain_measure(args.measure, f"{args.command} --measure"))
    raise ValueError("need --sampler or --measure")


def _count(value: int, option: str) -> int:
    """A count option's value; a negative one is an error that names it."""
    if value < 0:
        raise ValueError(f"{option} = {value} is negative")
    return value


def _rows_and_histogram(rows: np.ndarray) -> tuple[list[str], dict[str, int]]:
    """`perm_to_str` of each row, and the histogram in lexicographic order.

    Every row of a permutation of 1..n takes the same `perm_to_str` form,
    digits for n <= 9 and comma-separated otherwise, so the whole batch is
    formatted at once.
    """
    import numpy as np

    from .permutations import count_perms, perm_rows

    size, n = rows.shape
    keys, counts = count_perms([rows], n)
    keys = perm_rows(keys, n)
    if n <= 9:
        text = np.full((size + len(keys), n + 1), ord("\n"), dtype=np.uint8)
        text[:size, :n] = rows
        text[size:, :n] = keys
        text[:, :n] += ord("0")
        strings = text.tobytes().decode("ascii").split("\n")
    else:
        tokens = np.array([f"{v}," for v in range(n + 1)], dtype=object)
        ends = np.array([f"{v}\n" for v in range(n + 1)], dtype=object)
        both = np.concatenate([rows, keys])
        cells = tokens[both]
        cells[:, -1] = ends[both[:, -1]]
        strings = "".join(cells.ravel().tolist()).split("\n")
    return strings[:size], dict(zip(strings[size:-1], counts.tolist()))


def _emit(args, obj, csv_lines) -> None:
    """Write `obj` as JSON under `--format json`, else the lines that
    `csv_lines()` returns, built only then."""
    text = _json_text(obj) if args.format == "json" else "\n".join(csv_lines()) + "\n"
    _write(args.out, text)


def _write_rows(args, head: dict, name: str, rows: np.ndarray) -> None:
    """Write sampled rows and their histogram: a JSON object of `head`,
    the rows under `name` and the histogram, or CSV rows then `# key,count`
    histogram lines."""
    lines, hist = _rows_and_histogram(rows)
    _emit(
        args,
        {**head, name: lines, "histogram": hist},
        lambda: ["permutation", *lines, "# histogram", *(f"# {k},{c}" for k, c in hist.items())],
    )


def cmd_sample_order(args) -> int:
    import numpy as np

    from .ordering import check_labels, sample_ordering_batch

    if args.labels is not None and args.n is not None:
        raise ValueError("--labels excludes --n")
    source = _measure_only(args.measure)
    labels = (
        check_labels([int(v) for v in args.labels.split(",")])
        if args.labels is not None
        else tuple(range(1, (3 if args.n is None else args.n) + 1))
    )
    rng = np.random.default_rng(args.seed)
    rows = sample_ordering_batch(source, labels, _count(args.samples, "samples"), rng)
    _write_rows(args, {"labels": list(labels), "seed": args.seed}, "rankings", rows)
    return 0


def cmd_step(args) -> int:
    import numpy as np

    from .kernels import step_batch

    sampler = _sampler_from_args(args)
    rng = np.random.default_rng(args.seed)
    rows = step_batch(args.n, sampler, _count(args.samples, "samples"), rng)
    _write_rows(args, {"n": args.n, "seed": args.seed}, "steps", rows)
    return 0


def cmd_walk(args) -> int:
    import numpy as np

    from .kernels import walk
    from .permutations import perm_from_str, perm_to_str

    sampler = _sampler_from_args(args)
    rng = np.random.default_rng(args.seed)
    start = perm_from_str(args.start) if args.start else None
    states = [perm_to_str(p) for p in walk(args.n, sampler, args.steps, rng, start)]
    obj = {"n": args.n, "seed": args.seed, "states": states}
    _emit(args, obj, lambda: ["h,permutation", *(f"{h},{s}" for h, s in enumerate(states))])
    return 0


def cmd_verify(args) -> int:
    from .measure import resolve_source
    from .verify import run_property_suite

    source = resolve_source(args.measure)
    samples = _count(args.samples, "samples")
    report = run_property_suite(source, args.seed, n=args.n, samples=samples, label=args.measure)
    _write(args.out, _json_text(report.to_json()))
    return 0 if report.passed else 1


def cmd_mixing(args) -> int:
    from .measure import MeasureMixture

    source = _measure_only(args.measure)
    mc = args.mode in ("mc", "both")
    # the mc preconditions fail before any work on the exact curve
    if mc and args.seed is None:
        raise ValueError("mc mode needs --seed")
    if mc and isinstance(source, MeasureMixture):
        raise ValueError("mc mixing runs on a plain measure")
    curves = []  # (name, JSON values, CSV values) per curve
    if args.mode in ("exact", "both"):
        from .oracle import mixing_curve

        exact = mixing_curve(source, args.n, args.type, args.steps)
        curves.append(("tv_exact", [str(v) for v in exact], [f"{float(v):.12g}" for v in exact]))
    if mc:
        import numpy as np

        from .kernels import empirical_mixing_curve

        rng = np.random.default_rng(args.seed)
        tv = empirical_mixing_curve(args.n, _coupling(args.type, source), args.steps, args.samples, rng)
        curves.append(("tv_empirical", [f"{v:.6f}" for v in tv], [f"{v:.12g}" for v in tv]))
    columns = [["h", *map(str, range(args.steps + 1))]] + [[name, *col] for name, _, col in curves]
    obj = {"n": args.n, "type": args.type, **{name: values for name, values, _ in curves}}
    _emit(args, obj, lambda: [",".join(row) for row in zip(*columns)])
    return 0


def cmd_shuffle_map(args) -> int:
    from fractions import Fraction

    from .kernels import shuffle_map_from_measure
    from .measure import _plain_measure

    measure = _plain_measure(args.measure, "shuffle-map")
    grid = _count(args.grid or 0, "grid")  # 0: no table
    smap = shuffle_map_from_measure(measure)
    table = [(x, smap(x)) for x in (Fraction(k, grid) for k in range(grid + 1))] if grid else []
    obj = smap.to_json()
    if table:
        obj["table"] = [{"x": str(x), "value": str(value)} for x, value in table]
    _emit(
        args,
        obj,
        lambda: [
            "lo,hi,slope,intercept",
            *(f"{p.lo},{p.hi},{p.slope},{p.intercept}" for p in smap.pieces),
            *(["# x,value"] if table else []),
            *(f"# {x},{value}" for x, value in table),
        ],
    )
    return 0


def cmd_oracle(args) -> int:
    from .oracle import exact_ordering_distribution, exact_step_distribution

    source = _measure_only(args.measure)
    if args.kind == "order":
        dist = exact_ordering_distribution(source, args.n)
    else:
        dist = exact_step_distribution(source, args.n, args.kind)
    _write(args.out, _json_text(dist.to_json()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasishuffle",
        description="Random orderings and generalized riffle shuffles from quasi-uniform measures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, csv=True):
        """A subparser that runs `func`: `--out`, and `--format` if it writes CSV."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", default="-", help="output path, - for stdout")
        if csv:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    def add_coupling(p):
        p.add_argument("--sampler", help="sampler spec; excludes --measure and --type")
        p.add_argument("--measure")
        p.add_argument("--type", choices=("one", "two"), help="coupling of --measure, default one")

    p = command("sample-order", cmd_sample_order, "sample rankings of a label set")
    p.add_argument("--measure", required=True)
    p.add_argument("--labels", help="comma-separated strictly increasing labels, of which only "
                   "the number enters the draw; excludes --n")
    p.add_argument("--n", type=int, help="rank labels 1..n, default 3")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("step", cmd_step, "sample one-step permutations of a coupling")
    add_coupling(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("walk", cmd_walk, "run one walk trajectory")
    add_coupling(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", help="starting permutation, e.g. 2314")
    p.add_argument("--seed", type=int, required=True)

    p = command("verify", cmd_verify, "run the property suite on a measure", csv=False)
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)

    p = command("mixing", cmd_mixing, "TV-to-uniform mixing curve of the walk")
    p.add_argument("--measure", required=True)
    p.add_argument("--type", choices=("one", "two"), default="one")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=("exact", "mc", "both"),
        default="exact",
        help="exact TV, or the empirical TV of --samples walks (mc) over n! bins, which"
        " reads a floor, not the TV, when there are few walks per bin: about 0.26 for"
        " 10^5 walks of 8 cards whose exact TV is below 0.001",
    )
    p.add_argument("--samples", type=int, default=100_000, help="mc trajectories")
    p.add_argument("--seed", type=int, help="needed by --mode mc and both")

    p = command("shuffle-map", cmd_shuffle_map, "deterministic map of a purely atomic measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--grid", type=int, help="also tabulate x = k/grid")

    p = command("oracle", cmd_oracle, "exact ordering or step distribution", csv=False)
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("order", "one", "two"), default="order")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuasiShuffleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
