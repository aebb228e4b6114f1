"""An operation of a workload and the round that runs a list of them."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Op:
    """One operation: a library call and the check of its output.

    A known-fault operation fails until a named fault is mended; it runs on
    fixed inputs so that it fails on every seed.
    """

    name: str
    run: Callable
    check: Callable[[object], Optional[str]]
    cards: int = 0
    known_fault: bool = False


def run_round(ops, seed: int, round_index: int):
    """Run every op once; return (per-op seconds, failures by op name)."""
    import numpy as np

    times, failures = [], {}
    for i, op in enumerate(ops):
        key = [i] if op.known_fault else [seed, round_index, i]
        rng = np.random.default_rng(key)
        t0 = time.perf_counter()
        try:
            result, error = op.run(rng), None
        except Exception as exc:  # a raising operation is a failed operation
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if error is None:
            error = op.check(result)
        del result
        if error:
            failures[op.name] = error
    return times, failures

