"""Small helpers for permutations in one-line notation.

A permutation of size n is a tuple p of length n with p[i] = image of i+1,
so values are a rearrangement of 1..n.  When a permutation records an
ordering, p[i] is the rank (1 = lowest) of the i-th label.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple, Union

# the array functions import numpy when they run, so that the exact routes
# load without it
if TYPE_CHECKING:
    import numpy as np

Perm = Tuple[int, ...]

# `count_rows` lets at least this many counted keys wait before a fold, so
# that rows of a small support are not merged block by block.
_FOLD_AT = 1 << 14

# `_row_ranks` counts comparisons in rows up to this width and argsorts
# wider ones; it must stay below 128, the int8 bound of `_counted_ranks`.
# Per card, on one block of 2^14 draws (2-core shared host, numpy 2.4):
# counting takes 4.5 ns at width 4, 6.1 at 8 and 10.3 at 16, numpy's
# default argsort plus a scatter 21.0, 12.1 and 9.9 ns, a stable one 17.1,
# 19.4 and 21.9 ns.
_COUNT_WIDTH = 16
# A row inverse of distinct keys is counted, and scattered, only up to
# this width; beyond it the default argsort wins: 7.1 against 15.6 ns per
# card at width 4, 9.0 against 10.7 at 6, 9.3 against 9.1 at 7 and 10.0
# against 8.1 at 8.
_COUNT_INVERSE_WIDTH = 6


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


def _row_ranks(
    keys: np.ndarray,
    out: Optional[np.ndarray] = None,
    inverse: bool = False,
    distinct: Union[bool, np.ndarray] = False,
) -> np.ndarray:
    """1-based rank of each entry of a 2-D array within its row, ties broken
    by column order: the ranks a stable argsort gives.  With `inverse`, the
    row inverse instead: each row's 1-based columns from its lowest entry up.

    The result is a C-contiguous int64 array: `out` when given, which must
    be one.  `distinct`, for all rows or one flag per row, says that a row
    holds no two equal keys, so its sort need not be stable.  Rows up to `_COUNT_WIDTH` wide are ranked by
    counting comparisons (`_counted_ranks`) and inverted by one scatter;
    wider rows are argsorted, and their ranks scattered from the order.  A
    row inverse of distinct keys is argsorted beyond `_COUNT_INVERSE_WIDTH`,
    where numpy's default sort beats a count and a scatter.
    """
    import numpy as np

    rows, n = keys.shape
    if out is None:
        out = np.empty((rows, n), dtype=np.int64)
    elif out.dtype != np.int64 or not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous int64, so its flat view is a view")
    tied = ~np.asarray(distinct)
    counted = n <= (_COUNT_INVERSE_WIDTH if inverse and not tied.any() else _COUNT_WIDTH)
    if counted:
        ranks = _counted_ranks(keys)
        if not inverse:
            out[...] = ranks.T
            return out
        # the inverse holds k + 1 at column rank_k - 1 of each row
        cols = ranks.T.astype(np.intp)
        cols += np.arange(-1, rows * n - 1, n)[:, None]
    else:
        if tied.all() or not tied.any():
            order = np.argsort(keys, axis=1, kind="stable" if tied.all() else None)
        else:
            # only the rows that may hold ties need the stable sort
            order = np.empty((rows, n), dtype=np.intp)
            order[~tied] = np.argsort(keys[~tied], axis=1)
            order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
        if inverse:
            return np.add(order, 1, out=out)
        # the ranks hold k + 1 at column order_k of each row
        cols = order
        cols += np.arange(0, rows * n, n)[:, None]
    # cols holds flat positions: one scatter writes k + 1 at cols[:, k]
    out.reshape(-1)[cols] = np.arange(1, n + 1)
    return out


def _counted_ranks(keys: np.ndarray) -> np.ndarray:
    """1-based ranks of the (rows, n) keys as an (n, rows) int8 array, from
    the n(n - 1)/2 comparisons of each row's columns.

    Column j starts at rank j + 1, as if every earlier column sat below it;
    for each pair i < j whose key_j < key_i, column i moves up one and
    column j down one.  Equal keys keep column order.  The keys are
    compared on a transposed copy, column i against all later columns at
    once, so every operation runs over contiguous rows of the block.
    """
    import numpy as np

    rows, n = keys.shape
    kt = keys.T.copy()
    ranks = np.empty((n, rows), dtype=np.int8)
    ranks[...] = np.arange(1, n + 1, dtype=np.int8)[:, None]
    below = np.empty((max(n - 1, 0), rows), dtype=np.bool_)
    moves = below.view(np.int8)
    for i in range(n - 1):
        np.less(kt[i + 1 :], kt[i], out=below[i:])
        ranks[i] += moves[i:].sum(axis=0, dtype=np.int8)
        ranks[i + 1 :] -= moves[i:]
    return ranks


def count_rows(batches: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of 2-D integer row batches of one width, in
    lexicographic order, with their counts summed over the batches.

    Each batch is counted on its own (`_encoded_counts`).  Its distinct keys
    wait until the waiting keys outnumber both the running ones and
    `_FOLD_AT`; then all are folded into one running (keys, counts) part.
    So memory stays bounded by the number of distinct rows, however many
    batches come, and rows are decoded once, at the end.  Batches may have
    different maxima, and so different code bases: a fold re-encodes its
    parts in the largest base, or as rows when one part is too wide to
    encode.
    """
    import numpy as np

    n = None
    parts: list = []  # (keys, counts, base), the running part first
    held = waiting = 0
    for rows in batches:
        rows = np.asarray(rows)
        if rows.ndim != 2 or n not in (None, rows.shape[1]):
            raise ValueError(f"row batches must be 2-D of one width, got shape {rows.shape}")
        n = rows.shape[1]
        if len(rows) == 0:
            continue
        parts.append(_encoded_counts(rows))
        waiting += len(parts[-1][0])
        if waiting > max(held, _FOLD_AT):
            parts = [_fold(parts, n)]
            held, waiting = len(parts[0][0]), 0
    if not parts:
        return np.zeros((0, n or 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    keys, counts, base = _fold(parts, n)
    return _recoded(keys, base, None, n), counts


def _fold(parts: list, n: int) -> tuple[np.ndarray, np.ndarray, Optional[int]]:
    """Merge (keys, counts, base) parts of n-wide rows into one such part."""
    import numpy as np

    if len(parts) == 1:
        return parts[0]
    bases = {base for _, _, base in parts}
    base = None if None in bases else max(bases)
    keys = np.concatenate([_recoded(k, b, base, n) for k, _, b in parts])
    order = np.lexsort(keys.T[::-1]) if base is None else np.argsort(keys)
    keys = keys[order]
    counts = np.concatenate([c for _, c, _ in parts])[order]
    new = keys[1:] != keys[:-1]
    first = np.flatnonzero(np.concatenate([[True], new.any(axis=1) if base is None else new]))
    return keys[first], np.add.reduceat(counts, first), base


def _recoded(keys: np.ndarray, base: Optional[int], to: Optional[int], n: int) -> np.ndarray:
    """Keys of n-wide rows coded in `base` (rows when None), coded in `to`."""
    if base == to:
        return keys
    rows = keys if base is None else keys[:, None] // _digit_weights(base, n) % base
    return rows if to is None else rows @ _digit_weights(to, n)


def _digit_weights(base: int, n: int) -> np.ndarray:
    import numpy as np

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
    import numpy as np

    rows = np.asarray(rows)
    n = rows.shape[1]
    base = int(rows.max(initial=0)) + 1
    if rows.min(initial=0) < 0 or base**n > np.iinfo(np.int64).max:
        return (*np.unique(rows, axis=0, return_counts=True), None)
    codes, counts = np.unique(rows @ _digit_weights(base, n), return_counts=True)
    return codes, counts, base


def row_histogram(batches: Iterable[np.ndarray]) -> dict[Perm, int]:
    """`count_rows` of row batches as a dict keyed by row tuples."""
    keys, counts = count_rows(batches)
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))
