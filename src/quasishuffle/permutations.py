"""Small helpers for permutations in one-line notation.

A permutation of size n is a tuple p of length n with p[i] = image of i+1,
so values are a rearrangement of 1..n.  When a permutation records an
ordering, p[i] is the rank (1 = lowest) of the i-th label.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

Perm = Tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(outer: Perm, inner: Perm) -> Perm:
    """Return outer after inner: (outer . inner)(i) = outer(inner(i))."""
    if len(outer) != len(inner):
        raise ValueError("size mismatch in composition")
    return tuple(outer[inner[i] - 1] for i in range(len(inner)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def all_permutations(n: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def perm_to_str(p: Iterable[int]) -> str:
    vals = list(p)
    if all(v <= 9 for v in vals):
        return "".join(str(v) for v in vals)
    return ",".join(str(v) for v in vals)


def perm_from_str(text: str) -> Perm:
    text = text.strip()
    if "," in text:
        p = tuple(int(tok) for tok in text.split(","))
    else:
        p = tuple(int(ch) for ch in text)
    if not is_permutation(p):
        raise ValueError(f"not a permutation: {text!r}")
    return p


def _ranks_of_order(order: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1-based rank of each column from a per-row argsort, by one flat
    scatter into `out`: a new array when None, else a C-contiguous one.

    `order` is used up: it is overwritten with the flat scatter indices, so
    that no index array as large as the batch is allocated.
    """
    rows, n = order.shape
    if out is None:
        out = np.empty_like(order, order="C")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous, so its flat view is a view")
    order += np.arange(0, rows * n, n)[:, None]
    out.reshape(-1)[order] = np.arange(1, n + 1)
    return out


def count_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D integer array in lexicographic order, with counts."""
    rows = np.asarray(rows)
    keys, counts, base = _encoded_counts(rows)
    if base is None:
        return keys, counts
    return keys[:, None] // _digit_weights(base, rows.shape[1]) % base, counts


def _digit_weights(base: int, n: int) -> np.ndarray:
    return base ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _encoded_counts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, Optional[int]]:
    """Distinct keys of the rows in row order, their counts, and the code base.

    When the entries are non-negative and every row fits one int64 code
    (the entries as digits in base max + 1, most significant first, so code
    order is row order), the keys are the codes, counted with a flat
    `np.unique`, much faster than a row-wise one.  Wider rows, such as
    permutations of more than 15 cards, fall back to `np.unique(axis=0)`:
    the keys are the rows themselves and the base is None.
    """
    rows = np.asarray(rows)
    n = rows.shape[1]
    base = int(rows.max(initial=0)) + 1
    if rows.min(initial=0) < 0 or base**n > np.iinfo(np.int64).max:
        return (*np.unique(rows, axis=0, return_counts=True), None)
    codes, counts = np.unique(rows @ _digit_weights(base, n), return_counts=True)
    return codes, counts, base


def row_histogram(batches: Iterable[np.ndarray]) -> dict[Perm, int]:
    """Merged `count_rows` of row batches, keyed by row tuples."""
    totals: dict[Perm, int] = {}
    for rows in batches:
        keys, counts = count_rows(rows)
        for key, count in zip(map(tuple, keys.tolist()), counts.tolist()):
            totals[key] = totals.get(key, 0) + count
    return totals
