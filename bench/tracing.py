"""Span recorder for the traced run.

The recorder rebinds the library's public functions, in every
``quasishuffle`` module that holds a copy, with wrappers that record a span
(name, start, end, parent) per call and add work counts.  Spans stay in
memory; ``write`` stores them as JSON at the end.  A layer's self time is its
span's duration minus the durations of its direct children (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import defaultdict

# (module, function, layer metric prefix).  Functions bound under several
# names (sample_conjugate_batch in ordering and kernels, the oracle routes in
# cli) are rebound wherever the same function object appears.
TRACED = (
    ("measure", "sample_conjugate_batch", "measure.sample_conjugate_batch"),
    ("measure", "is_quasi_uniform", "measure.is_quasi_uniform"),
    ("ordering", "sample_ordering_batch", "ordering.sample_ordering_batch"),
    ("ordering", "ordering_counts", "ordering.ordering_counts"),
    ("kernels", "step_batch", "kernels.step_batch"),
    ("kernels", "empirical_step_counts", "kernels.empirical_step_counts"),
    ("kernels", "walk", "kernels.walk"),
    ("kernels", "empirical_mixing_curve", "kernels.empirical_mixing_curve"),
    ("oracle", "exact_ordering_distribution", "oracle.exact_ordering_distribution"),
    ("oracle", "exact_coupling_step_distribution", "oracle.exact_coupling_step_distribution"),
    ("oracle", "exact_map_step_distribution", "oracle.exact_map_step_distribution"),
    ("oracle", "convolve", "oracle.convolve"),
    ("oracle", "tv_distance", "oracle.tv_distance"),
    ("oracle", "transition_matrix", "oracle.transition_matrix"),
    ("stats", "ks_uniform", "stats.ks_uniform"),
    ("stats", "chi_square_goodness", "stats.chi_square"),
    ("stats", "chi_square_two_sample", "stats.chi_square"),
    ("stats", "empirical_tv", "stats.empirical_tv"),
    ("verify", "run_property_suite", "verify.run_property_suite"),
)
CLI_COMMANDS = (
    "cmd_sample_order", "cmd_step", "cmd_walk", "cmd_verify",
    "cmd_mixing", "cmd_shuffle_map", "cmd_oracle",
)
SELF_LAYERS = sorted({layer for _, _, layer in TRACED} | {"cli.format"})
COUNTS = (
    "measure.draws",
    "kernels.walk.steps",
    "oracle.assignments",
    "oracle.convolve.pairs",
)
LRU_CACHES = ("cell_decomposition", "_batch_tables", "_gap_los")


def _count(name, args, kwargs, cells_of):
    """Work count of one call, computed from its inputs."""
    if name == "measure.sample_conjugate_batch":
        shape = kwargs.get("shape", args[1] if len(args) > 1 else None)
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        total = 1
        for s in shape:
            total *= int(s)
        return "measure.draws", total
    if name == "kernels.walk":
        steps = kwargs.get("steps", args[2] if len(args) > 2 else 0)
        return "kernels.walk.steps", int(steps)
    if name == "oracle.convolve":
        step, state = args[0], args[1]
        return "oracle.convolve.pairs", len(step.probs) * len(state.probs)
    if name == "oracle.exact_ordering_distribution":
        source, n = args[0], int(kwargs.get("n", args[1] if len(args) > 1 else 0))
        if hasattr(source, "gaps"):  # a mixture recurses into this wrapper
            return "oracle.assignments", len(cells_of(source).cells) ** n
    return None, 0


class Recorder:
    """Collects spans and counts while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._cells_of = package.measure.cell_decomposition

    def _wrap(self, fn, name):
        rec = self

        def traced(*args, **kwargs):
            key, work = _count(name, args, kwargs, rec._cells_of)
            if key:
                rec.counts[key] += work
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append([name, time.perf_counter(), None, parent])
            rec._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[idx][2] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "quasishuffle" or k.startswith("quasishuffle.")]
        targets = [(getattr(self.package, mod).__dict__[fn], layer) for mod, fn, layer in TRACED]
        cli = sys.modules.get("quasishuffle.cli")
        if cli is not None:
            targets += [(cli.__dict__[fn], "cli.format") for fn in CLI_COMMANDS]
        for original, layer in targets:
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in list(module.__dict__.items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def cache_entries(self) -> int:
        m = self.package.measure
        return sum(getattr(m, name).cache_info().currsize for name in LRU_CACHES)

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*?)\s*$")


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative seconds per top-level module from ``-X importtime`` lines."""
    out = {}
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(3) in ("quasishuffle", "scipy.stats"):
            out[m.group(3)] = int(m.group(2)) / 1e6
    return out


def write(path: str, spans, extra: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"spans": spans, **extra}, fh)
