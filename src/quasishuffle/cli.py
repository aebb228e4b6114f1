"""Command-line interface.

Subcommands: sample-order, step, walk, verify, mixing, shuffle-map,
oracle.  Output is byte-stable for a fixed command line and seed.  Exit
codes: 0 success, 1 property failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import QuasiShuffleError
from .kernels import (
    empirical_mixing_curve,
    resolve_sampler,
    shuffle_map_from_measure,
    step_batch,
    walk,
    ConjugateCoupling,
    InverseConjugateCoupling,
)
from .measure import (
    CandidateMeasure,
    MeasureMixture,
    QuasiUniformMeasure,
    resolve_source,
)
from .oracle import (
    exact_ordering_distribution,
    exact_step_distribution,
    mixing_curve,
)
from .ordering import check_labels, sample_ordering_batch
from .permutations import count_rows, perm_from_str, perm_to_str
from .verify import run_property_suite


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _measure_only(text: str):
    source = resolve_source(text)
    if isinstance(source, CandidateMeasure):
        raise ValueError("candidate measures are only accepted by `verify`")
    return source


# the coupling of a plain measure that `--type one|two` selects
_COUPLINGS = {"one": ConjugateCoupling, "two": InverseConjugateCoupling}


def _sampler_from_args(args) -> object:
    if args.sampler:
        return resolve_sampler(args.sampler)
    if args.measure:
        source = _measure_only(args.measure)
        if isinstance(source, MeasureMixture):
            raise ValueError("build mixture samplers with --sampler JSON")
        return _COUPLINGS[args.type](source)
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
    size, n = rows.shape
    keys, counts = count_rows([rows])
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


def _write_rows(args, head: dict, name: str, rows: np.ndarray) -> None:
    """Write sampled rows and their histogram: a JSON object of `head`,
    the rows under `name` and the histogram, or CSV rows then `# key,count`
    histogram lines."""
    lines, hist = _rows_and_histogram(rows)
    if args.format == "json":
        _write(args.out, _json_text({**head, name: lines, "histogram": hist}))
    else:
        body = ["permutation", *lines, "# histogram"]
        body += [f"# {key},{count}" for key, count in hist.items()]
        _write(args.out, "\n".join(body) + "\n")


def cmd_sample_order(args) -> int:
    source = _measure_only(args.measure)
    labels = (
        check_labels([int(v) for v in args.labels.split(",")])
        if args.labels
        else tuple(range(1, args.n + 1))
    )
    rng = np.random.default_rng(args.seed)
    rows = sample_ordering_batch(source, labels, _count(args.samples, "samples"), rng)
    _write_rows(args, {"labels": list(labels), "seed": args.seed}, "rankings", rows)
    return 0


def cmd_step(args) -> int:
    sampler = _sampler_from_args(args)
    rng = np.random.default_rng(args.seed)
    rows = step_batch(args.n, sampler, _count(args.samples, "samples"), rng)
    _write_rows(args, {"n": args.n, "seed": args.seed}, "steps", rows)
    return 0


def cmd_walk(args) -> int:
    sampler = _sampler_from_args(args)
    rng = np.random.default_rng(args.seed)
    start = perm_from_str(args.start) if args.start else None
    states = walk(args.n, sampler, args.steps, rng, start)
    if args.format == "json":
        _write(
            args.out,
            _json_text({"n": args.n, "seed": args.seed, "states": [perm_to_str(p) for p in states]}),
        )
    else:
        body = ["h,permutation"] + [f"{h},{perm_to_str(p)}" for h, p in enumerate(states)]
        _write(args.out, "\n".join(body) + "\n")
    return 0


def cmd_verify(args) -> int:
    source = resolve_source(args.measure)
    samples = _count(args.samples, "samples")
    report = run_property_suite(source, args.seed, n=args.n, samples=samples, label=args.measure)
    _write(args.out, _json_text(report.to_json()))
    return 0 if report.passed else 1


def cmd_mixing(args) -> int:
    source = _measure_only(args.measure)
    mc = args.mode in ("mc", "both")
    # the mc preconditions fail before any work on the exact curve
    if mc and args.seed is None:
        raise ValueError("mc mode needs --seed")
    if mc and isinstance(source, MeasureMixture):
        raise ValueError("mc mixing runs on a plain measure")
    exact: list | None = None
    empirical: list | None = None
    if args.mode in ("exact", "both"):
        exact = mixing_curve(source, args.n, args.type, args.steps)
    if mc:
        rng = np.random.default_rng(args.seed)
        empirical = empirical_mixing_curve(
            args.n, _COUPLINGS[args.type](source), args.steps, args.samples, rng
        )
    if args.format == "json":
        obj = {"n": args.n, "type": args.type}
        if exact is not None:
            obj["tv_exact"] = [str(v) for v in exact]
        if empirical is not None:
            obj["tv_empirical"] = [f"{v:.6f}" for v in empirical]
        _write(args.out, _json_text(obj))
    else:
        cols = ["h"]
        if exact is not None:
            cols.append("tv_exact")
        if empirical is not None:
            cols.append("tv_empirical")
        body = [",".join(cols)]
        for h in range(args.steps + 1):
            row = [str(h)]
            if exact is not None:
                row.append(f"{float(exact[h]):.12g}")
            if empirical is not None:
                row.append(f"{empirical[h]:.12g}")
            body.append(",".join(row))
        _write(args.out, "\n".join(body) + "\n")
    return 0


def cmd_shuffle_map(args) -> int:
    source = _measure_only(args.measure)
    if not isinstance(source, QuasiUniformMeasure):
        raise ValueError("shuffle-map needs a plain measure")
    grid = _count(args.grid or 0, "grid")  # 0: no table
    smap = shuffle_map_from_measure(source)
    if args.format == "json":
        obj = smap.to_json()
        if grid:
            obj["table"] = [
                {"x": str(Fraction(k, grid)), "value": str(smap(Fraction(k, grid)))}
                for k in range(grid + 1)
            ]
        _write(args.out, _json_text(obj))
    else:
        body = ["lo,hi,slope,intercept"]
        for p in smap.pieces:
            body.append(f"{p.lo},{p.hi},{p.slope},{p.intercept}")
        if grid:
            body.append("# x,value")
            for k in range(grid + 1):
                x = Fraction(k, grid)
                body.append(f"# {x},{smap(x)}")
        _write(args.out, "\n".join(body) + "\n")
    return 0


def cmd_oracle(args) -> int:
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

    def add_common(p, seed_required=True):
        p.add_argument("--out", default="-", help="output path, - for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, required=seed_required)

    p = sub.add_parser("sample-order", help="sample rankings of a label set")
    p.add_argument("--measure", required=True)
    p.add_argument("--labels", help="comma-separated strictly increasing labels")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_sample_order)

    p = sub.add_parser("step", help="sample one-step permutations of a coupling")
    p.add_argument("--sampler")
    p.add_argument("--measure")
    p.add_argument("--type", choices=("one", "two"), default="one")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("walk", help="run one walk trajectory")
    p.add_argument("--sampler")
    p.add_argument("--measure")
    p.add_argument("--type", choices=("one", "two"), default="one")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", help="starting permutation, e.g. 2314")
    add_common(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("verify", help="run the property suite on a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--samples", type=int, default=100_000)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mixing", help="TV-to-uniform mixing curve of the walk")
    p.add_argument("--measure", required=True)
    p.add_argument("--type", choices=("one", "two"), default="one")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "mc", "both"), default="exact")
    p.add_argument("--samples", type=int, default=100_000, help="mc trajectories")
    add_common(p, seed_required=False)
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("shuffle-map", help="deterministic map of a purely atomic measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--grid", type=int, help="also tabulate x = k/grid")
    add_common(p, seed_required=False)
    p.set_defaults(func=cmd_shuffle_map)

    p = sub.add_parser("oracle", help="exact ordering or step distribution")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("order", "one", "two"), default="order")
    add_common(p, seed_required=False)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuasiShuffleError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
