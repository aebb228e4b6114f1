"""Small helpers for permutations in one-line notation.

A permutation of size n is a tuple p of length n with p[i] = image of i+1,
so values are a rearrangement of 1..n.  When a permutation records an
ordering, p[i] is the rank (1 = lowest) of the i-th label.

The array helpers rank rows of keys (`_row_ranks`, `_counted_ranks`),
count row batches (`count_rows`: int64 codes where the rows fit one,
else the rows merged by `np.lexsort`), and count permutations of up to
`_INDEX_WIDTH` cards by their lexicographic index in S_n, their Lehmer
code in the factorial base (`_lex_index`, `_index_histogram`).
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

# the array functions import numpy when they run, so that the exact routes
# load without it
if TYPE_CHECKING:
    import numpy as np

Perm = Tuple[int, ...]

# `count_rows` lets at least this many counted keys wait before a fold, so
# that rows of a small support are not merged block by block.
_FOLD_AT = 1 << 14

# `_row_ranks` counts comparisons in rows up to this width, below the int8
# bound 128 of `_counted_ranks`, and argsorts wider ones stably: per card
# on one block of 2^14 floats (2-core shared host, numpy 2.4), counting
# took 24.3 ns at width 44, the sort 27.0, and two runs crossed at 45-51.
_COUNT_WIDTH = 44

# `_index_histogram` counts rows of up to this many labels in n! dense bins,
# 40,320 at n = 8; wider rows are counted as rows (`count_rows`).
_INDEX_WIDTH = 8


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


def _row_ranks(keys: np.ndarray) -> np.ndarray:
    """1-based rank of each entry of a 2-D array within its row, ties broken
    by column order as a stable argsort breaks them, as a C-contiguous int64
    array: the ranks of `kernels._rank_pairs`' float pairs, which may tie.

    Rows up to `_COUNT_WIDTH` wide count their comparisons
    (`_counted_ranks`); wider rows are argsorted stably, and their ranks
    scattered from the order.
    """
    import numpy as np

    rows, n = keys.shape
    out = np.empty((rows, n), dtype=np.int64)
    if n <= _COUNT_WIDTH:
        out[...] = _counted_ranks(keys).T
        return out
    order = np.argsort(keys, axis=1, kind="stable")
    # the ranks hold k + 1 at column order_k of each row: one flat scatter,
    # by the flat view of the intp order, of the values tiled to its size
    order += np.arange(0, rows * n, n)[:, None]
    out.reshape(-1)[order.reshape(-1)] = np.tile(np.arange(1, n + 1), rows)
    return out


def _counted_ranks(keys: np.ndarray) -> np.ndarray:
    """1-based ranks of the (rows, n) keys as an (n, rows) int8 array, from
    the n(n - 1)/2 comparisons of each row's columns (`_below`).

    Column j starts at rank j + 1, as if every earlier column sat below it;
    for each pair i < j whose key_j < key_i, column i moves up one and
    column j down one.  Equal keys keep column order.
    """
    import numpy as np

    rows, n = keys.shape
    ranks = np.empty((n, rows), dtype=np.int8)
    ranks[...] = np.arange(1, n + 1, dtype=np.int8)[:, None]
    for i, moves in _below(keys):
        ranks[i] += moves.sum(axis=0, dtype=np.int8)
        ranks[i + 1 :] -= moves
    return ranks


def _lex_index(keys: np.ndarray) -> np.ndarray:
    """Lexicographic index in S_n of the ranking of each row of the (rows, n)
    keys, as int64: the Lehmer code L_i = #{j > i : key_j < key_i} read in
    the factorial base, sum of L_i * (n - 1 - i)!, by Horner's rule over
    the comparisons of `_counted_ranks`.  A ranking row is its own key row.
    """
    import numpy as np

    rows, n = keys.shape
    index = np.zeros(rows, dtype=np.int64)
    for i, moves in _below(keys):
        index *= n - i
        index += moves.sum(axis=0, dtype=np.int8)
    return index


def _below(keys: np.ndarray):
    """For each column i < n - 1 of the (rows, n) keys, yield (i, moves):
    an (n - 1 - i, rows) int8 view, 1 where a later column's key is below
    column i's.  The keys are compared on a transposed copy, column i
    against all later columns at once, so every operation runs over
    contiguous rows of the block; each view is overwritten by the next."""
    import numpy as np

    rows, n = keys.shape
    kt = keys.T.copy()
    below = np.empty((max(n - 1, 0), rows), dtype=np.bool_)
    moves = below.view(np.int8)
    for i in range(n - 1):
        np.less(kt[i + 1 :], kt[i], out=below[i:])
        yield i, moves[i:]


def _lex_rows(index: np.ndarray, n: int) -> np.ndarray:
    """The rows of S_n at the lexicographic indices: `_lex_index` undone.

    The factorial digits come off least significant first, L_{n-1} first;
    each step puts L_i + 1 in front of the suffix's ranks and moves up
    the suffix entries at or above it.
    """
    import numpy as np

    rows = np.empty((len(index), n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        index, digit = np.divmod(index, n - i)
        rows[:, i] = digit + 1
        rows[:, i + 1 :] += rows[:, i + 1 :] >= rows[:, i, None]
    return rows


def _index_histogram(
    indices: Iterable[np.ndarray], n: int, inverse: bool = False
) -> dict[Perm, int]:
    """Histogram of rankings of n <= `_INDEX_WIDTH` labels given by their
    lexicographic indices in S_n (`_lex_index`), one array per batch; with
    `inverse`, of their row inverses.

    The indices are counted in n! dense bins, and only the bins hit are
    decoded, so the dict equals `row_histogram` of the rows, in keys,
    counts and order.  An inverse histogram moves each bin to its row
    inverse's and sorts the bins again.
    """
    import numpy as np

    counts = np.zeros(factorial(n), dtype=np.int64)
    for index in indices:
        counts += np.bincount(index, minlength=len(counts))
    seen = np.flatnonzero(counts)
    rows, counts = _lex_rows(seen, n), counts[seen]
    if inverse:
        inv = np.empty_like(rows)
        # row r of the inverse holds k + 1 at column rows[r, k] - 1
        inv[np.arange(len(rows))[:, None], rows - 1] = np.arange(1, n + 1)
        order = np.argsort(_lex_index(inv))
        rows, counts = inv[order], counts[order]
    return dict(zip(map(tuple, rows.tolist()), counts.tolist()))


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
    return _merged(keys, np.concatenate([c for _, c, _ in parts]), base)


def _merged(
    keys: np.ndarray, counts: np.ndarray, base: Optional[int]
) -> tuple[np.ndarray, np.ndarray, Optional[int]]:
    """Keys coded in `base` (rows when None) sorted into distinct keys, with
    the counts of equal keys summed: rows sort by one `np.lexsort`."""
    import numpy as np

    order = np.lexsort(keys.T[::-1]) if base is None else np.argsort(keys)
    keys, counts = keys[order], counts[order]
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
    permutations of more than 15 cards, are merged as rows (`_merged`): the
    keys are the rows themselves and the base is None.
    """
    import numpy as np

    rows = np.asarray(rows)
    n = rows.shape[1]
    base = int(rows.max(initial=0)) + 1
    if rows.min(initial=0) < 0 or base**n > np.iinfo(np.int64).max:
        return _merged(rows, np.ones(len(rows), dtype=np.int64), None)
    codes, counts = np.unique(rows @ _digit_weights(base, n), return_counts=True)
    return codes, counts, base


def row_histogram(batches: Iterable[np.ndarray]) -> dict[Perm, int]:
    """`count_rows` of row batches as a dict keyed by row tuples."""
    keys, counts = count_rows(batches)
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))
